"""Canonical order-0 Huffman coding over the 256-value byte alphabet.

Tables are fully determined by their code lengths (max 15 bits), which
package-merge builds optimal under that cap, and serialize as 128
bytes, two 4-bit lengths per byte.  Codes and decode tables come from
one stable sort of the lengths (Moffat & Turpin 1997), each on its
first use: a table read from an archive checks its lengths and builds
codes only if it encodes, decode tables only if it decodes.  A table
may carry extra bits: a fixed count of raw bits per symbol that follow
each of its codewords, as after deflate's length and distance codes
(RFC 1951 3.2.5); a codeword with its extra bits is a record.
Bitstreams are MSB-first within bytes.  There is one encoder and one
decoder, both vectorized so they run at numpy speed rather than
per-symbol Python speed: :func:`pack_codes` places whole codewords with
one scatter-add, each segment flushed to a byte boundary, and
:func:`decode_chains` follows the record chains of many segments
through one jump table, in lockstep or by jump doubling
(:func:`follow_chains`), then gathers every record's extra bits at once.
"""
from __future__ import annotations

import numpy as np

from .errors import CorruptArchiveError

MAX_CODE_LEN = 15
_NWIN = 1 << MAX_CODE_LEN
# a code of length l spans 2^(15 - l) windows; length 0 codes nothing
_KRAFT_UNITS = np.array([0] + [_NWIN >> ln for ln in range(1, MAX_CODE_LEN + 1)], dtype=np.int64)


def _package_merge_lengths(counts: np.ndarray, maxlen: int) -> np.ndarray:
    """Optimal code lengths of at most ``maxlen`` bits (package-merge,
    Larmore & Hirschberg 1990).  Kraft-tight; a lone symbol gets one bit."""
    syms = np.flatnonzero(counts)
    leaves = sorted((int(counts[s]), (int(s),)) for s in syms)
    merged = list(leaves)
    for _ in range(maxlen - 1):
        paired = [
            (merged[i][0] + merged[i + 1][0], merged[i][1] + merged[i + 1][1])
            for i in range(0, len(merged) - 1, 2)
        ]
        merged = sorted(paired + leaves)
    lengths = np.zeros(256, dtype=np.uint8)
    for _, group in merged[: max(2 * len(syms) - 2, 1)]:
        for s in group:
            lengths[s] += 1
    return lengths


def _canonical_spans(lengths: np.ndarray):
    """The coded symbols in canonical order (by length, then symbol), their
    lengths, and each code's span in the 15-bit window space: it starts at
    the running sum of 2^(15 - length) over the symbols before it."""
    syms = np.argsort(lengths, kind="stable")[np.count_nonzero(lengths == 0) :]
    lens = lengths[syms].astype(np.int64)
    width = 1 << (MAX_CODE_LEN - lens)
    return syms, lens, width, np.cumsum(width) - width


def _placeholder(counts: np.ndarray) -> np.ndarray:
    """``counts``, or one count of byte 0 when they are all zero, so a
    stream or reference with no bytes still gets a valid table."""
    if counts.any():
        return counts
    out = np.zeros_like(counts)
    out[0] = 1
    return out


class HuffmanTable:
    """Canonical Huffman code, immutable once built.  Everything is
    derived from the lengths on first use: the codes, which only the
    encoder reads, and the decode tables.  ``extra_bits``, when given,
    is the count of raw bits that follow each symbol's codeword; it is
    part of the stream's format, not of the serialized table."""

    __slots__ = ("lengths", "extra_bits", "_codes", "_dec")

    def __init__(self, lengths: np.ndarray, extra_bits: np.ndarray | None = None):
        self.lengths = np.asarray(lengths, dtype=np.uint8)
        self.extra_bits = extra_bits
        self._codes = None
        self._dec = None

    @property
    def codes(self) -> np.ndarray:
        """Canonical code per symbol (0 for an uncoded one)."""
        if self._codes is None:
            syms, lens, _, start = _canonical_spans(self.lengths)
            codes = np.zeros(256, dtype=np.uint16)
            codes[syms] = start >> (MAX_CODE_LEN - lens)
            self._codes = codes
        return self._codes

    @classmethod
    def from_counts(cls, counts, extra_bits=None) -> "HuffmanTable":
        counts = np.asarray(counts)
        if counts.shape != (256,):
            raise ValueError("need exactly 256 symbol counts")
        if (counts < 0).any():
            raise ValueError("negative count")
        if not counts.any():
            raise ValueError("cannot build a Huffman table from all-zero counts")
        return cls(_package_merge_lengths(counts, MAX_CODE_LEN), extra_bits)

    @classmethod
    def from_lengths(cls, lengths, extra_bits=None) -> "HuffmanTable":
        """Build from code lengths, enforcing the canonical invariants.

        Raises :class:`CorruptArchiveError` on an empty table, a length
        above 15, or a Kraft sum different from 1 (a lone symbol must
        have length exactly 1).
        """
        lengths = np.asarray(lengths, dtype=np.uint8)
        if lengths.max() > MAX_CODE_LEN:
            raise CorruptArchiveError("Huffman code length above 15")
        n_syms = np.count_nonzero(lengths)
        if n_syms == 0:
            raise CorruptArchiveError("Huffman table has no symbols")
        kraft = int(_KRAFT_UNITS[lengths].sum())
        if n_syms == 1:
            if kraft != _NWIN >> 1:
                raise CorruptArchiveError("single-symbol table must use length 1")
        elif kraft != _NWIN:
            raise CorruptArchiveError("Huffman table violates the Kraft equality")
        return cls(lengths, extra_bits)

    def serialize(self) -> bytes:
        """128 bytes: byte i holds lengths of symbols 2i (low nibble) and
        2i+1 (high nibble)."""
        pair = self.lengths.reshape(128, 2)
        return (pair[:, 0] | (pair[:, 1] << 4)).astype(np.uint8).tobytes()

    @classmethod
    def deserialize(cls, blob: bytes, extra_bits=None) -> "HuffmanTable":
        if len(blob) != 128:
            raise CorruptArchiveError("Huffman table blob must be 128 bytes")
        packed = np.frombuffer(blob, dtype=np.uint8)
        lengths = np.empty(256, dtype=np.uint8)
        lengths[0::2] = packed & 0x0F
        lengths[1::2] = packed >> 4
        return cls.from_lengths(lengths, extra_bits)

    def _decode_tables(self):
        """Symbol and record length (code length plus extra bits) per
        15-bit window (-1 and 0 past the Kraft sum), built on first use."""
        if self._dec is None:
            syms, lens, width, _ = _canonical_spans(self.lengths)
            if self.extra_bits is not None:
                lens = lens + self.extra_bits[syms]
            spans = np.append(width, _NWIN - width.sum())
            dsym = np.repeat(np.append(syms, -1).astype(np.int16), spans)
            dlen = np.repeat(np.append(lens, 0).astype(np.uint8), spans)
            self._dec = (dsym, dlen)
        return self._dec

    def __eq__(self, other) -> bool:
        if not isinstance(other, HuffmanTable):
            return NotImplemented
        return np.array_equal(self.lengths, other.lengths) and np.array_equal(
            self.extra_bits, other.extra_bits
        )


def _cat_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """[s0..s0+l0) ++ [s1..s1+l1) ++ ... as one index array."""
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    base = np.repeat(starts, lens)
    csum = np.cumsum(lens) - lens
    return base + (np.arange(total, dtype=np.int64) - np.repeat(csum, lens))


def pack_codes(lens: np.ndarray, codes: np.ndarray, seg_sizes) -> tuple[bytes, np.ndarray]:
    """Pack per-symbol codewords MSB-first, flushing every segment to a
    byte boundary.

    ``lens``/``codes`` cover all segments concatenated; ``seg_sizes``
    gives the symbol count per segment.  Returns the payload and an
    array of segment byte offsets (one per segment plus a terminator).
    Empty segments occupy zero bytes.
    """
    seg_sizes = np.asarray(seg_sizes, dtype=np.int64)
    ends = np.cumsum(seg_sizes)
    n = int(ends[-1]) if len(ends) else 0
    if n != len(lens):
        raise ValueError("segment sizes do not cover the value array")
    cum = np.zeros(n + 1, dtype=np.int64)
    cum[1:] = np.cumsum(lens, dtype=np.int64)
    seg_start = ends - seg_sizes
    seg_bits = cum[ends] - cum[seg_start]
    off = np.zeros(len(seg_sizes) + 1, dtype=np.int64)
    off[1:] = np.cumsum((seg_bits + 7) >> 3)
    if n == 0:
        return b"", off
    at = cum[:-1] + np.repeat(off[:-1] * 8 - cum[seg_start], seg_sizes)
    # a codeword of at most 15 bits from bit `at` lies in the 24 bits from
    # byte at >> 3; codewords share no bit, so these sums act as ORs
    word = codes.astype(np.int64) << (24 - (at & 7) - lens)
    s = np.bincount(at >> 3, word, int(off[-1])).astype(np.int64)
    s[1:] += (s[:-1] << 8) & 0xFF0000  # middle bytes of the words one byte back
    s[2:] += (s[:-2] & 0xFF) << 16  # low bytes of the words two bytes back
    return (s >> 16).astype(np.uint8).tobytes(), off


def bit_windows(seg: np.ndarray) -> np.ndarray:
    """15-bit MSB-first window value at every bit position of ``seg``
    (zero-padded past the end)."""
    seg = np.asarray(seg, dtype=np.uint8)
    nbits = len(seg) * 8
    ext = np.zeros(len(seg) + 4, dtype=np.uint8)
    ext[: len(seg)] = seg
    wbyte = (
        (ext[:-2].astype(np.int32) << 16)
        | (ext[1:-1].astype(np.int32) << 8)
        | ext[2:].astype(np.int32)
    )
    win = np.empty(nbits, dtype=np.int32)
    for r in range(8):
        win[r::8] = (wbyte[: len(seg)] >> (9 - r)) & 0x7FFF
    return win


def _walks_in_lockstep(n_jump: int, counts: np.ndarray) -> bool:
    """Whether :func:`follow_chains` walks chains of ``counts`` records
    (the longest at least 2) in lockstep rather than by jump doubling
    over a table of ``n_jump`` entries: the one with the lower estimated
    time.  The nanosecond terms were fitted to both strategies timed on
    every call of a decompression and of extracts on the seed-1 mixed
    corpus, and on 1-16 reference blocks (2-vCPU VM, numpy 2.4).  A
    lockstep step costs about 2.6 us plus 4 ns per chain; a doubling
    round 13 us, its squaring of the table 0.75 ns per entry, and its
    writes 10 ns per record."""
    maxcount = int(counts.max())
    steps, rounds = maxcount - 1, (maxcount - 1).bit_length()
    lockstep_ns = steps * (2600 + 4 * len(counts))
    doubling_ns = rounds * 13000 + (rounds - 1) * 0.75 * n_jump + 10 * int(counts.sum())
    return lockstep_ns <= doubling_ns


def follow_chains(
    jump: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Walk several chains through a jump table.

    ``jump`` must carry a trailing self-mapping sentinel (index = len-1).
    Returns the visited positions of all chains concatenated, plus the
    per-chain boundaries.  Position i of chain c is at
    ``out[bounds[c] + i]``; positions may equal the sentinel when a
    chain runs off the table.

    Two strategies with the same result: jump doubling costs
    O(log(maxcount)) rounds over the whole jump table, a lockstep walk
    O(maxcount) vector steps over the chains; :func:`_walks_in_lockstep`
    prices both and the cheaper one is picked per call.  Neither alone
    will do: lockstep walks one reference block in ~2,700 steps, about
    20 times as long as doubling, and doubling loses on most checkpoint
    windows, whose chains are short.
    """
    bounds = np.zeros(len(counts) + 1, dtype=np.int64)
    bounds[1:] = np.cumsum(counts)
    total = int(bounds[-1])
    out_pos = np.empty(total, dtype=np.int64)
    nz = counts > 0
    out_pos[bounds[:-1][nz]] = starts[nz]
    maxcount = int(counts.max()) if len(counts) else 0
    if maxcount <= 1:
        return out_pos, bounds

    if _walks_in_lockstep(len(jump), counts):
        cur = starts.astype(np.int64).copy()
        base = bounds[:-1]
        for j in range(1, maxcount):
            cur = jump[cur]  # finished chains idle on the sentinel
            live = counts > j
            out_pos[base[live] + j] = cur[live]
        return out_pos, bounds

    step = 1
    while step < maxcount:
        jump = jump[jump] if step > 1 else jump
        active = counts > step
        extra = np.minimum(step, counts[active] - step)
        dst = _cat_ranges(bounds[:-1][active] + step, extra)
        out_pos[dst] = jump[out_pos[dst - step]]
        step <<= 1
    return out_pos, bounds


def _jump_table(win: np.ndarray, dlen: np.ndarray) -> np.ndarray:
    """Where the record at each bit position ends, given the positions'
    15-bit windows, plus a trailing sentinel (index len(win), mapping to
    itself) that every jump past the segment lands on.  A window that
    starts no codeword (of valid tables, only a lone-symbol one has them)
    maps to itself; decode_chains checks every position a chain visits."""
    nbits = len(win)
    jump = np.arange(nbits + 1, dtype=np.int64)
    jump[:-1] += dlen[win]
    return np.minimum(jump, nbits, out=jump)


def _gather_bits(seg: np.ndarray, ends: np.ndarray, nbits: np.ndarray) -> np.ndarray:
    """The ``nbits``-bit MSB-first fields of ``seg`` that end at bit
    positions ``ends`` (at most 33 bits each, none past the end of
    ``seg``), read from the five bytes at each field's first bit."""
    at = ends - nbits
    # a byte index past seg's end only holds bits after its field's end,
    # which the shift drops, so clamping it changes no field
    idx = np.minimum((at >> 3)[:, None] + np.arange(5), len(seg) - 1)
    word = (seg[idx].astype(np.int64) << np.arange(32, -1, -8)).sum(axis=1)
    return (word >> (40 - (at & 7) - nbits)) & ((1 << nbits) - 1)


def decode_chains(
    buf: np.ndarray, table: HuffmanTable, starts, counts, ends=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Decode several independent chains of records out of one buffer.

    A record is one codeword of ``table`` followed by the symbol's extra
    bits, if the table has any.  ``starts`` are bit positions, ``counts``
    the number of records per chain, and ``ends`` (default: the end of
    ``buf``) the bit positions each chain's records must end by.  Returns
    (symbols, record boundaries per chain, extra bits), the last as int64
    per record, or None for a table without extra bits.  The heavy
    lifting (one jump table over every bit from the first chain's byte
    to the end of ``buf``, one :func:`follow_chains` walk, one gather of
    the extra bits) is shared across all chains; callers pass a buffer
    that ends at their last chain's last byte.  An invalid codeword, or a
    chain whose last record runs past its end or the buffer's, raises
    :class:`CorruptArchiveError`.
    """
    buf = np.asarray(buf, dtype=np.uint8)
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if (counts < 0).any():
        raise ValueError("negative symbol count")
    bounds = np.zeros(len(counts) + 1, dtype=np.int64)
    bounds[1:] = np.cumsum(counts)
    total = int(bounds[-1])
    if total == 0:
        extra = None if table.extra_bits is None else np.zeros(0, dtype=np.int64)
        return np.zeros(0, dtype=np.uint8), bounds, extra
    if (starts < 0).any() or (starts > len(buf) * 8).any():
        raise CorruptArchiveError("stream offset outside payload")

    lo_byte = int(starts.min()) >> 3
    seg = buf[lo_byte:]
    nbits = len(seg) * 8
    local = starts - lo_byte * 8

    dsym, dlen = table._decode_tables()
    win = bit_windows(seg)
    out_pos, _ = follow_chains(_jump_table(win, dlen), local, counts)
    if int(out_pos.max()) >= nbits:
        raise CorruptArchiveError("Huffman stream truncated")
    wpos = win[out_pos]
    syms = dsym[wpos]
    if (syms < 0).any():
        raise CorruptArchiveError("invalid Huffman codeword")
    # a chain's last record must end inside its bytes, not in the next
    # chain's or in the zero padding that bit_windows reads past the buffer
    rec_end = out_pos + dlen[wpos]
    live = counts > 0
    stop = nbits if ends is None else np.minimum(np.asarray(ends)[live] - lo_byte * 8, nbits)
    if np.count_nonzero(rec_end[bounds[1:][live] - 1] > stop):
        raise CorruptArchiveError("Huffman stream truncated at a chain's end")
    extra = None
    if table.extra_bits is not None:
        extra = _gather_bits(seg, rec_end, table.extra_bits[syms].astype(np.int64))
    return syms.astype(np.uint8), bounds, extra
