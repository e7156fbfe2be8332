"""Serialization of parses into four coded streams with checkpoints.

Streams: match offsets, match lengths, literals (triplet-packed run and
gap symbols), and quaternary factor flags (0 = literal run, else 1 +
gap count).  Each stream has one shared order-0 Huffman model, so there
are four, in stream order.  Flags pack four per byte, first flag in the
least significant bit pair; a literal or flag byte is one codeword.

An offset or length record is one codeword of its stream's model plus
the raw extra bits its symbol carries (deflate's length and distance
codes, RFC 1951 3.2.5; zstd's sequence codes, RFC 8878 3.1.1.3.2).  A
class code maps values below 2**32 to symbols: a small value is its own
symbol, a larger one of bit length e is the class of e and its top
mantissa bits, and the e - 1 - mantissa low bits follow as extra bits.

    LEN: length - 1; 0..31 direct, two mantissa bits (symbols 0..139)
    OFF: 0..167    a match: the zigzagged difference between its
                   (source - reference) delta and the previous match's;
                   0..63 direct, two mantissa bits
         168       an N-run pseudomatch, no extra bits
         169..232  a reservoir match: its absolute reservoir offset;
                   0..1 direct, one mantissa bit

A symbol past its stream's classes is corrupt.  Huffman codewords are
at most 15 bits and extra bits at most 30, so a record is at most 45.

Every stream is flushed to a byte boundary at each checkpoint (one per
``checkpoint_interval`` source symbols); the delta predictor resets
there, a factor belongs to the checkpoint window containing its start,
and each checkpoint records where decoding resumes, so any window
decodes standalone.  The checkpoint table is one int64 array per
column, a row per stream: cumulative symbols and coded bytes (4, W+1).

Both directions work on :class:`~rlzg.parse.FactorColumns` with array
operations.  :func:`encode_parse` writes a parse's columns into the raw
streams; :meth:`SequenceDecoder._decode_windows` derives the columns of
decoded windows back from them.  The parser's literal stream is
unpadded; a decoder's carries each window's triplet padding.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .errors import CorruptArchiveError
from .huffman import (
    HuffmanTable,
    _placeholder,
    decode_chains,
    follow_chains,  # noqa: F401  perfbench's tracer looks this name up to wrap it
    pack_codes,
)
from .packing import pack_triplets, pad_segments, unpack_triplets
from .parse import (
    LITERAL, MATCH, NRUN, RESERVOIR, FactorColumns, Parse, ParseParams, _empty_columns,
    validate_parse,
)

# stream indices, which are also their model indices
OFF, LEN, LIT, FLG = 0, 1, 2, 3
N_MODELS = 4

_FLAG_SHIFTS = np.array([0, 2, 4, 6], dtype=np.uint8)


def _class_code(direct_bits: int, mantissa_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Each symbol's smallest value and extra bit count in the class code
    of values below 2**32 with ``direct_bits`` and ``mantissa_bits``."""
    e = np.repeat(np.arange(direct_bits + 1, 33), 1 << mantissa_bits)
    extra = e - 1 - mantissa_bits
    lead = np.tile(np.arange(1 << mantissa_bits, 2 << mantissa_bits), 32 - direct_bits)
    direct = np.arange(1 << direct_bits)
    return np.concatenate((direct, lead << extra)), np.concatenate((0 * direct, extra))


_LEN_BASE, _len_extra = _class_code(5, 2)
_DELTA_BASE, _delta_extra = _class_code(6, 2)
_RES_BASE, _res_extra = _class_code(1, 1)
NRUN_CLASS = len(_DELTA_BASE)
RES_CLASS = NRUN_CLASS + 1
_OFF_BASE = np.concatenate((_DELTA_BASE, [0], _RES_BASE))
# factor kind by offset symbol (-1: past the classes)
_OFF_KIND = np.full(256, -1, dtype=np.int8)
_OFF_KIND[:NRUN_CLASS] = MATCH
_OFF_KIND[NRUN_CLASS] = NRUN
_OFF_KIND[RES_CLASS : len(_OFF_BASE)] = RESERVOIR
# extra bits per symbol of each stream's model
_EXTRA_BITS = [np.zeros(256, dtype=np.uint8) for _ in (OFF, LEN)] + [None, None]
_EXTRA_BITS[OFF][: len(_OFF_BASE)] = np.concatenate((_delta_extra, [0], _res_extra))
_EXTRA_BITS[LEN][: len(_LEN_BASE)] = _len_extra


def _classify(base: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The class code symbol of each value, given the code's ``base``."""
    return np.searchsorted(base, values, side="right") - 1


@dataclass
class RawStreams:
    """Window-segmented raw (pre-entropy) streams of one sequence."""

    length: int
    symbols: list[np.ndarray]  # per stream, the model symbol of each record or byte
    extra: list[np.ndarray | None]  # per OFF and LEN record, its extra bits (int64)
    sym_counts: np.ndarray  # (4, W+1) cumulative checkpoint symbol counts
    start_source: np.ndarray  # (W,) source position where each window resumes


@dataclass
class ModelSet:
    """The shared Huffman models, one per stream, in stream order."""

    tables: tuple[HuffmanTable, ...]

    def serialize(self) -> bytes:
        return b"".join(t.serialize() for t in self.tables)

    @classmethod
    def deserialize(cls, blob: bytes) -> "ModelSet":
        if len(blob) != N_MODELS * 128:
            raise CorruptArchiveError(f"model block must be {N_MODELS * 128} bytes")
        blobs = [blob[s * 128 : (s + 1) * 128] for s in range(N_MODELS)]
        return cls(tuple(map(HuffmanTable.deserialize, blobs, _EXTRA_BITS)))


@dataclass
class CodedSequence:
    """Huffman-coded payloads of one sequence plus its checkpoint table."""

    length: int
    payloads: list[bytes]  # 4 stream payloads
    start_source: np.ndarray  # (W,)
    sym_counts: np.ndarray  # (4, W+1) int64 cumulative symbols (records for
    # OFF/LEN, packed bytes for LIT, bytes for FLG)
    byte_offs: np.ndarray  # (4, W+1) int64 cumulative coded byte offsets

    @property
    def n_windows(self) -> int:
        return len(self.start_source)

    def checkpoint_for(self, source_pos: int) -> int:
        """Latest window whose decoding resumes at or before source_pos."""
        return int(np.searchsorted(self.start_source, source_pos, side="right")) - 1


def _per_window(win: np.ndarray, weights: np.ndarray | None, W: int) -> np.ndarray:
    return np.bincount(win, weights, minlength=W).astype(np.int64)


def encode_parse(parse: Parse, params: ParseParams) -> RawStreams:
    """Turn a factor tiling into window-segmented raw streams: the array
    inverse of :meth:`SequenceDecoder._decode_windows`.  Reads the
    columns' kinds, positions, pieces and literal stream; starts follow
    from the pieces."""
    validate_parse(parse, params)
    c = parse.columns
    interval = params.checkpoint_interval
    n = parse.source_length
    W = -(-n // interval)
    kind, pieces = c.kind, c.pieces
    use = np.count_nonzero(pieces, axis=1)  # length records per factor
    lit = kind == LITERAL
    advance = pieces.sum(axis=1) + use - 1
    start = np.cumsum(advance) - advance
    win = start // interval

    # lengths: the nonzero pieces in row order, less one
    len_val = pieces[pieces > 0] - 1
    if np.count_nonzero(len_val >> 32):
        raise ValueError("length exceeds the class code")
    len_sym = _classify(_LEN_BASE, len_val)

    # offsets: one record per non-literal factor
    nl = np.flatnonzero(~lit)
    k, pos, w_nl = kind[nl], c.position[nl], win[nl]
    is_res, is_match = k == RESERVOIR, k == MATCH
    off_val = np.where(is_res, pos, 0)
    if np.count_nonzero(off_val >> 32):
        raise ValueError("reservoir offset exceeds the class code")
    # the predictor is the previous match's delta in the same window, else 0
    delta = (start[nl] - pos)[is_match]
    w_m = w_nl[is_match]
    d = delta.copy()
    d[1:] -= np.where(w_m[1:] == w_m[:-1], delta[:-1], 0)
    if np.count_nonzero((d < -(1 << 31)) | (d >= 1 << 31)):
        raise ValueError("offset delta exceeds the class code")
    off_val[is_match] = (d << 1) ^ (d >> 63)  # zigzag: 0, -1, 1, -2, ... -> 0, 1, 2, 3, ...
    off_sym = np.full(len(nl), NRUN_CLASS)
    off_sym[is_match] = _classify(_DELTA_BASE, off_val[is_match])
    off_sym[is_res] = RES_CLASS + _classify(_RES_BASE, off_val[is_res])

    # literals and flags: each window zero-padded to whole bytes, packed once
    lit_use = np.where(lit, pieces[:, 0], use - 1)
    lit_padded, lit_seg = pad_segments(c.lits, _per_window(win, lit_use, W), 3)
    flags = np.where(lit, 0, use).astype(np.uint8)
    flg_padded, flg_seg = pad_segments(flags, _per_window(win, None, W), 4)
    flg = (flg_padded.reshape(-1, 4) << _FLAG_SHIFTS).sum(axis=1, dtype=np.uint8)

    sym_counts = np.zeros((4, W + 1), dtype=np.int64)
    per_window = [_per_window(w_nl, None, W), _per_window(np.repeat(win, use), None, W)]
    np.cumsum(per_window + [lit_seg // 3, flg_seg // 4], axis=1, out=sym_counts[:, 1:])
    # a window resumes at its first factor's start; a window no factor
    # starts in (inside a long factor) resumes where the next factor starts
    first_at = np.searchsorted(win, np.arange(W))
    return RawStreams(
        length=n,
        symbols=[off_sym.astype(np.uint8), len_sym.astype(np.uint8), pack_triplets(lit_padded), flg],
        extra=[off_val - _OFF_BASE[off_sym], len_val - _LEN_BASE[len_sym], None, None],
        sym_counts=sym_counts,
        start_source=np.append(start, n)[first_at],
    )


def build_models(raws: list[RawStreams]) -> ModelSet:
    """One shared model set from every sequence's raw streams, each
    stream's model from its symbol frequencies (none gives placeholder
    tables)."""
    counts = np.zeros((N_MODELS, 256), dtype=np.int64)
    for raw in raws:
        for row, syms in zip(counts, raw.symbols):
            row += np.bincount(syms, minlength=256)
    return ModelSet(
        tuple(HuffmanTable.from_counts(_placeholder(row), x) for row, x in zip(counts, _EXTRA_BITS))
    )


def _pieces(lens: np.ndarray, values: np.ndarray, seg_sizes: np.ndarray):
    """Records of ``lens`` bits as pieces of at most 15 bits, the most
    significant first, which is what :func:`pack_codes` places; returns
    the pieces' lengths and values and the pieces per segment."""
    k = (lens + 14) // 15
    ends = np.cumsum(k)
    rec = np.repeat(np.arange(len(k)), k)
    shift = 15 * (ends[rec] - 1 - np.arange(len(rec)))
    plens = np.minimum(lens[rec] - shift, 15)
    per_seg = np.diff(np.append(0, ends)[np.append(0, np.cumsum(seg_sizes))])
    return plens, (values[rec] >> shift) & ((1 << plens) - 1), per_seg


def compress_streams(raw: RawStreams, models: ModelSet) -> CodedSequence:
    """Huffman-code the raw streams, flushing at every checkpoint."""
    payloads: list[bytes] = []
    byte_offs = np.zeros_like(raw.sym_counts)
    for s, (t, syms, extra) in enumerate(zip(models.tables, raw.symbols, raw.extra)):
        lens = t.lengths[syms].astype(np.int64)
        if not lens.all():
            raise ValueError("stream byte missing from its model")
        codes = t.codes[syms].astype(np.int64)
        if t.extra_bits is not None:
            nb = t.extra_bits[syms]
            lens, codes = lens + nb, codes << nb | extra
        pieces = _pieces(lens, codes, np.diff(raw.sym_counts[s]))
        payload, byte_offs[s] = pack_codes(*pieces)
        payloads.append(payload)
    return CodedSequence(raw.length, payloads, raw.start_source, raw.sym_counts, byte_offs)


_PIECE = np.arange(3)


def _segment_cumsum(values: np.ndarray, bounds: np.ndarray, seg_of: np.ndarray):
    """Inclusive prefix sums down the rows of ``values``, restarting at
    every segment boundary in ``bounds`` (``seg_of`` is each row's
    segment), plus the segment totals."""
    head = np.zeros((1,) + values.shape[1:], dtype=np.int64)
    cs = np.concatenate((head, values.cumsum(axis=0)))
    base = cs[bounds[:-1]]
    return cs[1:] - base[seg_of], cs[bounds[1:]] - base


class SequenceDecoder:
    """Window-addressed decoding of one sequence's coded streams.

    Decoding windows yields their factors as :class:`FactorColumns`,
    derived with array operations from the windows' four streams and
    checked for exact tiling.  ``prefetch_all`` returns every factor
    from one batched decode of all windows (the full-decompression
    path) and caches nothing.  ``factors_from`` returns the columns of
    the windows a source range needs, and those windows, decoding each
    window alone on first access and caching its columns (the
    random-access path).

    ``last_touched`` holds, per thread, the windows the calling thread
    last set; only ``Archive.extract_report`` sets it, just before
    ``touched_payload_bytes`` counts their coded bytes.
    """

    def __init__(self, coded: CodedSequence, models: ModelSet, params: ParseParams):
        self.coded = coded
        self.models = models
        self.interval = params.checkpoint_interval
        if coded.n_windows and coded.start_source[0] != 0:
            raise CorruptArchiveError("first checkpoint window does not start at 0")
        self._bufs = [np.frombuffer(p, dtype=np.uint8) for p in coded.payloads]
        # source range of each window's factors: it ends where the next resumes
        self._ends = np.append(coded.start_source[1:], coded.length)
        self._start_list = coded.start_source.tolist()
        self._end_list = self._ends.tolist()
        # window -> its columns; extracts revisit windows, and without the
        # cache the benchmark's shared_novel extract p99 rises about threefold
        self._cache: dict[int, FactorColumns] = {}
        self._local = threading.local()

    @property
    def last_touched(self) -> set[int]:
        return getattr(self._local, "touched", set())

    @last_touched.setter
    def last_touched(self, windows: set[int]) -> None:
        self._local.touched = windows

    def prefetch_all(self) -> FactorColumns:
        """Every factor of the sequence.  The batch's tiling checks
        prove that the windows tile [0, length): the first starts at 0,
        each window's factors run from its start to the next's, and
        every factor advances at least one symbol."""
        if self.coded.n_windows == 0:
            return _empty_columns()
        return self._decode_windows(np.arange(self.coded.n_windows))

    def _decode_windows(self, windows: np.ndarray) -> FactorColumns:
        """Factor columns of ``windows`` (ascending) in one batch, from
        their decoded streams.  Raises :class:`CorruptArchiveError`
        unless the streams agree and the factors tile every window.

        A window is usually decoded alone on the random-access path, so
        this keeps to few numpy calls (``count_nonzero`` over ``any``,
        slices over ``diff``)."""
        c = self.coded
        counts = c.sym_counts[:, windows + 1] - c.sym_counts[:, windows]
        starts, ends = c.byte_offs[:, windows] * 8, c.byte_offs[:, windows + 1] * 8
        # each stream ends at the batch's last window: no window reads past its bytes
        bufs = [b[:end] for b, end in zip(self._bufs, c.byte_offs[:, windows[-1] + 1].tolist())]

        # ``*_bounds`` split each stream's values by window
        decoded = map(decode_chains, bufs, self.models.tables, starts, counts, ends)
        (o_sym, off_bounds, o_extra), (l_sym, len_bounds, l_extra), lit_s, flg_s = decoded
        (lit_bytes, lit_bounds, _), (flg_bytes, flg_bounds, _) = lit_s, flg_s
        if np.count_nonzero(l_sym >= len(_LEN_BASE)):
            raise CorruptArchiveError("length class past the class table")
        len_vals = _LEN_BASE[l_sym] + l_extra + 1
        lits = unpack_triplets(lit_bytes, len(lit_bytes) * 3)
        flags = (flg_bytes[:, None] >> _FLAG_SHIFTS[None, :]).reshape(-1) & 3
        flag_bounds, lit_bounds = flg_bounds * 4, lit_bounds * 3

        B = len(windows)
        # Flags are zero-padded to whole bytes: a window's factors are the
        # prefix of its flags whose length records (1 for a literal run, the
        # flag otherwise) add up exactly to the window's record count.
        win_of_flag = np.arange(B).repeat(flag_bounds[1:] - flag_bounds[:-1])
        use = np.maximum(flags, 1)
        cum = np.zeros(len(use) + 1, dtype=np.int64)
        use.cumsum(out=cum[1:])
        # a flag is real while the running sum stays within its window's
        # records: the sum before the window's first flag plus its record count
        limit = (cum[flag_bounds[:-1]] + len_bounds[1:] - len_bounds[:-1])[win_of_flag]
        real = (cum[1:] <= limit).nonzero()[0]
        lit = flags[real] == 0
        use, win = use[real].astype(np.int64), win_of_flag[real]
        # every window's sum stops at or below its record count, so equal
        # totals mean each window's sum is exact
        if use.sum() != len(len_vals):
            raise CorruptArchiveError("flag count disagrees with the length records")
        nl = (~lit).nonzero()[0]
        if np.count_nonzero(np.bincount(win[nl], minlength=B) != off_bounds[1:] - off_bounds[:-1]):
            raise CorruptArchiveError("flag count disagrees with the offset records")
        fac_bounds = np.zeros(B + 1, dtype=np.int64)
        np.bincount(win, minlength=B).cumsum(out=fac_bounds[1:])

        # every length is at least 1, so a zero piece marks no piece
        n = len(use)
        at = (use.cumsum() - use)[:, None] + _PIECE
        pieces = len_vals[np.minimum(at, len(len_vals) - 1)]
        pieces[_PIECE >= use[:, None]] = 0
        gaps = use - 1
        advance = pieces.sum(axis=1) + gaps

        kind_nl = _OFF_KIND[o_sym]
        if np.count_nonzero(kind_nl < 0):
            raise CorruptArchiveError("offset class past the class table")
        if np.count_nonzero(use[nl[kind_nl == NRUN]] != 1):
            raise CorruptArchiveError("N-run with a gapped flag")
        is_match = kind_nl == MATCH
        o_val = _OFF_BASE[o_sym] + o_extra
        d = (o_val >> 1) ^ -(o_val & 1)  # a match's delta difference, unzigzagged
        kind = np.zeros(n, dtype=np.int8)  # LITERAL
        kind[nl] = kind_nl
        mi = nl[is_match]

        # One pass of per-window running sums: advances give the starts, the
        # match offset differences the (source - reference) deltas (the
        # predictor restarts per window), literal use the literal offsets.
        sums = np.zeros((n, 3), dtype=np.int64)
        sums[:, 0] = advance
        sums[mi, 1] = d[is_match]
        sums[:, 2] = gaps + pieces[:, 0] * lit
        within, totals = _segment_cumsum(sums, fac_bounds, win)
        win_start = c.start_source[windows]
        start = win_start[win] + within[:, 0] - advance
        if np.count_nonzero(win_start + totals[:, 0] != self._ends[windows]) or np.count_nonzero(
            start // self.interval != windows[win]
        ):
            raise CorruptArchiveError("factors do not tile their checkpoint windows")
        if np.count_nonzero(totals[:, 2] > lit_bounds[1:] - lit_bounds[:-1]):
            raise CorruptArchiveError("literal stream exhausted")
        position = np.zeros(n, dtype=np.int64)
        position[nl] = o_val  # the reservoir offset; 0 for an N-run
        position[mi] = start[mi] - within[mi, 1]
        lit_off = lit_bounds[:-1][win] + within[:, 2] - sums[:, 2]
        return FactorColumns(kind, start, advance, position, pieces, lit_off, lits)

    def _window(self, w: int) -> FactorColumns:
        cols = self._cache.get(w)
        if cols is None:
            cols = self._cache.setdefault(w, self._decode_windows(np.array([w])))
        return cols

    def touched_payload_bytes(self) -> int:
        """Coded bytes of the windows in ``last_touched``."""
        offs = self.coded.byte_offs
        return int(sum((offs[:, w + 1] - offs[:, w]).sum() for w in self.last_touched))

    def factors_from(self, window: int, until: int) -> tuple[FactorColumns, list[int]]:
        """Factors from checkpoint ``window`` on whose start lies before
        ``until``, so they cover source symbols up to ``until`` (or the
        sequence end).  Returns (columns, the windows holding them)."""
        c = self.coded
        used: list[int] = []
        if c.n_windows == 0:
            return _empty_columns(), used
        stop = min(until, c.length)
        parts: list[FactorColumns] = []
        w, pos = window, self._start_list[window]
        while pos < stop:
            if w >= c.n_windows or self._start_list[w] != pos:
                raise CorruptArchiveError("checkpoint windows do not tile the sequence")
            cols = self._window(w)
            if len(cols):
                used.append(w)
                parts.append(cols)
            # the next factor starts where this window's factors end, in the
            # window holding that position; windows a long factor spans are empty
            pos = self._end_list[w]
            w = max(w + 1, pos // self.interval)
        if not parts:
            return _empty_columns(), used
        out = FactorColumns.concat(parts)
        n = int(np.searchsorted(out.start, until))
        return out.slice(0, n), used
