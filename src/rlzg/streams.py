"""Serialization of parses into four coded streams with checkpoints.

Streams: match offsets, match lengths, literals (triplet-packed run and
gap symbols), and quaternary factor flags (0 = literal run, else 1 +
gap count).  Offsets are coded as the difference between the match's
(source - reference) delta and the previous match's, biased into one
byte when it fits:

    first byte 0..250  -> delta difference  -125 .. +125
    251                -> difference < -125, 4-byte signed LE follows
    252                -> difference > +125, 4-byte signed LE follows
    253                -> N-run pseudomatch, no further bytes
    254                -> reservoir match, 4-byte unsigned LE absolute
                          reservoir offset follows (no delta coding)

Lengths: first byte b < 255 codes the value b + 1; byte 255 escapes to
a 4-byte unsigned LE full value.  Flags pack four per byte, first flag
in the least significant bit pair.

Six shared order-0 Huffman models cover the streams: offset first
bytes, pooled offset escape bytes, length first bytes, pooled length
escape bytes, literal triplet bytes, flag bytes.  An offset or length
record is thus one first-byte codeword, plus four escape-byte codewords
when the first byte escapes (251, 252 and 254; 255); it decodes with
:func:`huffman.decode_chains` given the escape table.  Literal and flag
bytes are plain chains of one table.

Every stream is flushed to a byte boundary at each checkpoint (one per
``checkpoint_interval`` source symbols); the delta predictor resets
there, a factor belongs to the checkpoint window containing its start,
and each checkpoint records where decoding resumes, so any window
decodes standalone.

Both directions work on :class:`~rlzg.parse.FactorColumns` with array
operations.  :func:`encode_parse` writes a parse's columns into the raw
streams; :func:`_factor_columns` derives the columns of decoded windows
back from them.  The parser's literal stream is unpadded; a decoder's
carries each window's triplet padding.
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

OFFSET_BIAS = 125
ESC_NEG, ESC_POS, NRUN_MARK, RESERVOIR_MARK = 251, 252, 253, 254
LEN_ESC = 255

# stream indices
OFF, LEN, LIT, FLG = 0, 1, 2, 3

_INT32_MIN, _INT32_MAX = -(1 << 31), (1 << 31) - 1

_FLAG_SHIFTS = np.array([0, 2, 4, 6], dtype=np.uint8)

_IS_OFF_ESC = np.zeros(256, dtype=bool)
_IS_OFF_ESC[[ESC_NEG, ESC_POS, RESERVOIR_MARK]] = True
_IS_LEN_ESC = np.zeros(256, dtype=bool)
_IS_LEN_ESC[LEN_ESC] = True


@dataclass
class RawStreams:
    """Window-segmented raw (pre-entropy) streams of one sequence."""

    length: int
    bytes_: list[np.ndarray]  # raw bytes per stream
    first: list[np.ndarray | None]  # first-byte mask for OFF and LEN
    seg_bytes: list[np.ndarray]  # (W,) raw bytes per window per stream
    sym_counts: list[np.ndarray]  # (W+1,) cumulative checkpoint symbol counts
    start_source: np.ndarray  # (W,) source position where each window resumes


@dataclass
class ModelSet:
    """The six shared Huffman models."""

    off0: HuffmanTable
    off_ext: HuffmanTable
    len0: HuffmanTable
    len_ext: HuffmanTable
    lit: HuffmanTable
    flg: HuffmanTable

    def tables(self) -> list[HuffmanTable]:
        return [self.off0, self.off_ext, self.len0, self.len_ext, self.lit, self.flg]

    def serialize(self) -> bytes:
        return b"".join(t.serialize() for t in self.tables())

    @classmethod
    def deserialize(cls, blob: bytes) -> "ModelSet":
        if len(blob) != 6 * 128:
            raise CorruptArchiveError("model block must be 768 bytes")
        return cls(*(HuffmanTable.deserialize(blob[i * 128 : (i + 1) * 128]) for i in range(6)))


@dataclass
class CodedSequence:
    """Huffman-coded payloads of one sequence plus its checkpoint table."""

    length: int
    payloads: list[bytes]  # 4 stream payloads
    start_source: np.ndarray  # (W,)
    sym_counts: list[np.ndarray]  # 4 x (W+1,) cumulative symbols (records for
    # OFF/LEN, packed bytes for LIT, bytes for FLG)
    byte_offs: list[np.ndarray]  # 4 x (W+1,) cumulative coded byte offsets

    @property
    def n_windows(self) -> int:
        return len(self.start_source)

    def checkpoint_for(self, source_pos: int) -> int:
        """Latest window whose decoding resumes at or before source_pos."""
        return int(np.searchsorted(self.start_source, source_pos, side="right")) - 1


def _records(first: np.ndarray, ext: np.ndarray, escapes: np.ndarray):
    """Raw bytes of a record stream and its first-byte mask: one first
    byte per record, then the 4-byte LE ``ext`` value of each record
    whose first byte ``escapes`` marks.  Returns (bytes, first-byte mask,
    bytes per record)."""
    esc = escapes[first]
    size = 1 + 4 * esc.astype(np.int64)
    at = np.cumsum(size) - size
    out = np.zeros(int(size.sum()), dtype=np.uint8)
    out[at] = first
    le = ext[esc].astype("<u4").view(np.uint8).reshape(-1, 4)
    out[at[esc][:, None] + 1 + np.arange(4)] = le
    is_first = np.zeros(len(out), dtype=bool)
    is_first[at] = True
    return out, is_first, size


def _per_window(win: np.ndarray, weights: np.ndarray | None, W: int) -> np.ndarray:
    return np.bincount(win, weights, minlength=W).astype(np.int64)


def encode_parse(parse: Parse, params: ParseParams) -> RawStreams:
    """Turn a factor tiling into window-segmented raw streams: the array
    inverse of :func:`_factor_columns`.  Reads the columns' kinds,
    positions, pieces and literal stream; starts follow from the pieces."""
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

    # lengths: the nonzero pieces in row order
    vals = pieces[pieces > 0]
    if np.count_nonzero(vals > 0xFFFFFFFF):
        raise ValueError("length exceeds the 4-byte escape form")
    len_first = np.where(vals > 255, LEN_ESC, vals - 1).astype(np.uint8)
    len_b, len_f, len_size = _records(len_first, vals, _IS_LEN_ESC)
    len_win = np.repeat(win, use)

    # offsets: one record per non-literal factor
    nl = np.flatnonzero(~lit)
    k, pos, w_nl = kind[nl], c.position[nl], win[nl]
    is_res, is_match = k == RESERVOIR, k == MATCH
    if np.count_nonzero(pos[is_res] > 0xFFFFFFFF):
        raise ValueError("reservoir offset exceeds the 4-byte form")
    # the predictor is the previous match's delta in the same window, else 0
    delta = (start[nl] - pos)[is_match]
    w_m = w_nl[is_match]
    d = delta.copy()
    d[1:] -= np.where(w_m[1:] == w_m[:-1], delta[:-1], 0)
    if np.count_nonzero((d < _INT32_MIN) | (d > _INT32_MAX)):
        raise ValueError("offset delta exceeds the 4-byte escape form")
    off_first = np.full(len(nl), NRUN_MARK, dtype=np.uint8)
    off_first[is_res] = RESERVOIR_MARK
    off_first[is_match] = np.where(
        d < -OFFSET_BIAS, ESC_NEG, np.where(d > OFFSET_BIAS, ESC_POS, d + OFFSET_BIAS)
    )
    ext = np.where(is_res, pos, 0)
    ext[is_match] = d & 0xFFFFFFFF
    off_b, off_f, off_size = _records(off_first, ext, _IS_OFF_ESC)

    # literals and flags: each window zero-padded to whole bytes, packed once
    lit_use = np.where(lit, pieces[:, 0], use - 1)
    lit_padded, lit_seg = pad_segments(c.lits, _per_window(win, lit_use, W), 3)
    flags = np.where(lit, 0, use).astype(np.uint8)
    flg_padded, flg_seg = pad_segments(flags, _per_window(win, None, W), 4)
    flg = (flg_padded.reshape(-1, 4) << _FLAG_SHIFTS).sum(axis=1, dtype=np.uint8)

    seg_bytes = [
        _per_window(w_nl, off_size, W),
        _per_window(len_win, len_size, W),
        lit_seg // 3,
        flg_seg // 4,
    ]
    records = [_per_window(w_nl, None, W), _per_window(len_win, None, W)]
    # a window resumes at its first factor's start; a window no factor
    # starts in (inside a long factor) resumes where the next factor starts
    first_at = np.searchsorted(win, np.arange(W))
    return RawStreams(
        length=n,
        bytes_=[off_b, len_b, pack_triplets(lit_padded), flg],
        first=[off_f, len_f, None, None],
        seg_bytes=seg_bytes,
        sym_counts=[
            np.concatenate(([0], np.cumsum(v))) for v in records + seg_bytes[2:]
        ],
        start_source=np.append(start, n)[first_at],
    )


def stream_tallies(raw: RawStreams, counts: np.ndarray) -> np.ndarray:
    """Add ``raw``'s byte frequencies to the (6, 256) ``counts`` of the
    shared models."""
    ob, lb = raw.bytes_[OFF], raw.bytes_[LEN]
    of, lf = raw.first[OFF], raw.first[LEN]
    counts[0] += np.bincount(ob[of], minlength=256)
    counts[1] += np.bincount(ob[~of], minlength=256)
    counts[2] += np.bincount(lb[lf], minlength=256)
    counts[3] += np.bincount(lb[~lf], minlength=256)
    counts[4] += np.bincount(raw.bytes_[LIT], minlength=256)
    counts[5] += np.bincount(raw.bytes_[FLG], minlength=256)
    return counts


def build_models(raws: list[RawStreams]) -> ModelSet:
    """One shared model set from every sequence's raw streams (none
    gives six placeholder tables)."""
    counts = np.zeros((6, 256), dtype=np.int64)
    for raw in raws:
        stream_tallies(raw, counts)
    return ModelSet(*(HuffmanTable.from_counts(_placeholder(row)) for row in counts))


def _mixed_lens_codes(bytes_: np.ndarray, first: np.ndarray, t0: HuffmanTable, t1: HuffmanTable):
    lens = np.where(first, t0.lengths[bytes_], t1.lengths[bytes_])
    if not lens.all():
        raise ValueError("stream byte missing from its model")
    codes = np.where(first, t0.codes[bytes_], t1.codes[bytes_])
    return lens, codes


def compress_streams(raw: RawStreams, models: ModelSet) -> CodedSequence:
    """Huffman-code the raw streams, flushing at every checkpoint."""
    payloads: list[bytes] = []
    byte_offs: list[np.ndarray] = []
    plans = [
        _mixed_lens_codes(raw.bytes_[OFF], raw.first[OFF], models.off0, models.off_ext),
        _mixed_lens_codes(raw.bytes_[LEN], raw.first[LEN], models.len0, models.len_ext),
        (models.lit.lengths[raw.bytes_[LIT]], models.lit.codes[raw.bytes_[LIT]]),
        (models.flg.lengths[raw.bytes_[FLG]], models.flg.codes[raw.bytes_[FLG]]),
    ]
    if not plans[2][0].all() or not plans[3][0].all():
        raise ValueError("stream byte missing from its model")
    for s, (lens, codes) in enumerate(plans):
        payload, off = pack_codes(lens, codes, raw.seg_bytes[s])
        payloads.append(payload)
        byte_offs.append(off)
    return CodedSequence(
        length=raw.length,
        payloads=payloads,
        start_source=raw.start_source,
        sym_counts=raw.sym_counts,
        byte_offs=byte_offs,
    )


_PIECE = np.arange(3)

# factor kind by offset first byte (-1: invalid), and an escape's sign
_KIND_BY_FIRST = np.full(256, MATCH, dtype=np.int8)
_KIND_BY_FIRST[[NRUN_MARK, RESERVOIR_MARK, 255]] = NRUN, RESERVOIR, -1
_ESC_SIGN = np.zeros(256, dtype=np.int64)
_ESC_SIGN[[ESC_NEG, ESC_POS]] = -1, 1


def _segment_cumsum(values: np.ndarray, bounds: np.ndarray, seg_of: np.ndarray):
    """Inclusive prefix sums down the rows of ``values``, restarting at
    every segment boundary in ``bounds`` (``seg_of`` is each row's
    segment), plus the segment totals."""
    head = np.zeros((1,) + values.shape[1:], dtype=np.int64)
    cs = np.concatenate((head, values.cumsum(axis=0)))
    base = cs[bounds[:-1]]
    return cs[1:] - base[seg_of], cs[bounds[1:]] - base


def _factor_columns(
    windows, win_start, win_end, interval,
    flags, flag_bounds, o_first, o_ext, off_bounds, len_vals, len_bounds, lits, lit_bounds,
) -> FactorColumns:
    """Factor columns of a batch of windows from their decoded streams
    (``*_bounds`` split each stream's values by window).  Raises
    :class:`CorruptArchiveError` unless the streams agree and the
    factors tile every window.

    A window is usually decoded alone on the random-access path, so this
    keeps to few numpy calls (``count_nonzero`` over ``any``, slices over
    ``diff``)."""
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

    # the writer's lengths are at least 1, so a zero piece marks no piece
    if np.count_nonzero(len_vals == 0):
        raise CorruptArchiveError("zero length record")
    n = len(use)
    at = (use.cumsum() - use)[:, None] + _PIECE
    pieces = len_vals[np.minimum(at, len(len_vals) - 1)]
    pieces[_PIECE >= use[:, None]] = 0
    gaps = use - 1
    advance = pieces.sum(axis=1) + gaps

    kind_nl = _KIND_BY_FIRST[o_first]
    if np.count_nonzero(kind_nl < 0):
        raise CorruptArchiveError("invalid offset first byte")
    if np.count_nonzero(use[nl[kind_nl == NRUN]] != 1):
        raise CorruptArchiveError("N-run with a gapped flag")
    is_match = kind_nl == MATCH
    d = o_first.astype(np.int64) - OFFSET_BIAS
    sign = _ESC_SIGN[o_first]
    esc = sign.nonzero()[0]
    ext = o_ext[esc]
    d[esc] = ext = ext - (ext > _INT32_MAX) * (1 << 32)
    # ESC_NEG must hold a difference below -125, ESC_POS one above +125
    if np.count_nonzero(ext * sign[esc] <= OFFSET_BIAS):
        raise CorruptArchiveError("offset escape out of its range")
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
    start = win_start[win] + within[:, 0] - advance
    if np.count_nonzero(win_start + totals[:, 0] != win_end) or np.count_nonzero(
        start // interval != windows[win]
    ):
        raise CorruptArchiveError("factors do not tile their checkpoint windows")
    if np.count_nonzero(totals[:, 2] > lit_bounds[1:] - lit_bounds[:-1]):
        raise CorruptArchiveError("literal stream exhausted")
    position = np.zeros(n, dtype=np.int64)
    position[nl] = o_ext  # the reservoir offset; 0 for an N-run
    position[mi] = start[mi] - within[mi, 1]
    lit_off = lit_bounds[:-1][win] + within[:, 2] - sums[:, 2]
    return FactorColumns(kind, start, advance, position, pieces, lit_off, lits)


class SequenceDecoder:
    """Window-addressed decoding of one sequence's coded streams.

    Decoding windows yields their factors as :class:`FactorColumns`,
    derived with array operations from the windows' four streams and
    checked for exact tiling.  ``prefetch_all`` returns every factor
    from one batched decode of all windows (the full-decompression
    path) and caches nothing.  ``factors_from`` returns the columns of
    the windows a source range needs, decoding each window alone on
    first access and caching its columns (the random-access path).

    ``last_touched`` holds, per thread, the windows of the calling
    thread's last ``factors_from``; ``touched_payload_bytes`` counts
    their coded bytes.
    """

    def __init__(self, coded: CodedSequence, models: ModelSet, params: ParseParams):
        self.coded = coded
        self.models = models
        self.interval = params.checkpoint_interval
        if coded.n_windows and coded.start_source[0] != 0:
            raise CorruptArchiveError("first checkpoint window does not start at 0")
        self._bufs = [np.frombuffer(p, dtype=np.uint8) for p in coded.payloads]
        self._sym = np.stack(coded.sym_counts)
        self._offs = np.stack(coded.byte_offs)
        # source range of each window's factors: it ends where the next resumes
        self._ends = np.append(coded.start_source[1:], coded.length)
        self._start_list = coded.start_source.tolist()
        self._end_list = self._ends.tolist()
        self._cache: dict[int, FactorColumns] = {}  # window -> its columns
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
        """Factor columns of ``windows`` (ascending) in one batch."""
        m = self.models
        counts = self._sym[:, windows + 1] - self._sym[:, windows]
        starts = self._offs[:, windows] * 8
        # each stream ends at the batch's last window: no window reads past its bytes
        bufs = [b[:end] for b, end in zip(self._bufs, self._offs[:, windows[-1] + 1].tolist())]

        o_first, off_bounds, o_ext = decode_chains(
            bufs[OFF], m.off0, starts[OFF], counts[OFF], (m.off_ext, _IS_OFF_ESC)
        )
        l0, len_bounds, le_ = decode_chains(
            bufs[LEN], m.len0, starts[LEN], counts[LEN], (m.len_ext, _IS_LEN_ESC)
        )
        len_vals = np.where(l0 == LEN_ESC, le_, l0.astype(np.int64) + 1)
        lit_bytes, lit_bounds, _ = decode_chains(bufs[LIT], m.lit, starts[LIT], counts[LIT])
        flg_bytes, flg_bounds, _ = decode_chains(bufs[FLG], m.flg, starts[FLG], counts[FLG])
        lits = unpack_triplets(lit_bytes, len(lit_bytes) * 3)
        flags = (flg_bytes[:, None] >> _FLAG_SHIFTS[None, :]).reshape(-1) & 3
        return _factor_columns(
            windows, self.coded.start_source[windows], self._ends[windows], self.interval,
            flags, flg_bounds * 4, o_first, o_ext, off_bounds, len_vals, len_bounds,
            lits, lit_bounds * 3,
        )

    def _window(self, w: int) -> FactorColumns:
        cols = self._cache.get(w)
        if cols is None:
            cols = self._cache.setdefault(w, self._decode_windows(np.array([w])))
        return cols

    def touched_payload_bytes(self) -> int:
        """Coded bytes of the windows in ``last_touched``."""
        c = self.coded
        return int(
            sum(
                c.byte_offs[s][w + 1] - c.byte_offs[s][w]
                for w in self.last_touched
                for s in range(4)
            )
        )

    def factors_from(self, window: int, until: int) -> tuple[FactorColumns, int]:
        """Factors from checkpoint ``window`` on whose start lies before
        ``until``, so they cover source symbols up to ``until`` (or the
        sequence end).  Returns (columns, source position of the first
        factor)."""
        c = self.coded
        touched: set[int] = set()
        self.last_touched = touched
        if c.n_windows == 0:
            return _empty_columns(), 0
        stop = min(until, c.length)
        parts: list[FactorColumns] = []
        w, pos = window, self._start_list[window]
        while pos < stop:
            if w >= c.n_windows or self._start_list[w] != pos:
                raise CorruptArchiveError("checkpoint windows do not tile the sequence")
            cols = self._window(w)
            if len(cols):
                touched.add(w)
                parts.append(cols)
            # the next factor starts where this window's factors end, in the
            # window holding that position; windows a long factor spans are empty
            pos = self._end_list[w]
            w = max(w + 1, pos // self.interval)
        if not parts:
            return _empty_columns(), self._start_list[window]
        out = FactorColumns.concat(parts)
        n = int(np.searchsorted(out.start, until))
        return out.slice(0, n), self._start_list[window]
