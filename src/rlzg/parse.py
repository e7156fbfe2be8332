"""Non-greedy factorization of a sequence against the extended reference.

Each position either starts an N-run pseudomatch, a (possibly gapped)
match into the reference or reservoir, or contributes to a literal run.
Matches extend contiguously as far as symbols agree, then may skip one
mismatching symbol on both sides (a "gap", the SNP case) up to twice,
keeping a gap only when the following piece reaches the extension
minimum.  A far candidate, one whose delta-coded offset is not cheap
(``CHEAP_OFFSET_BOUND`` or more; every RESERVOIR candidate is far), must
pay for itself: it is dropped unless it covers at least m3 symbols, the
length of the shortest literal run that enters the reservoir.  Inside
novel sequence most far candidates are chance m1-gram hits; taken, each
costs an expensive offset and cuts the literal run into fragments that
bloat the reservoir and its index.  Among the surviving candidates, a
shorter match wins when its offset is cheap and the longer match's is
not, unless the longer one is ahead by more than ``LENGTH_SLACK``
symbols.  These rules are parser policy: no decoder reads them, so the
archive does not store them.  ``GAP_LIMIT`` is a format constant: the
archive stores it and a reader rejects other values.

Literal runs long enough for the reservoir are handed to the sink as
they close, so later sequences (and later positions of this one) can
match them.

Candidates extend along their diagonal (extended-reference position
minus source position): ``_Diagonals`` keeps each diagonal's mismatch
positions, found by vector compares over windows that grow fourfold, so
a match's pieces are read off its next mismatches.  A match ends at a
mismatch, most often a third SNP after the two it skipped as gaps, and
the sequence mostly goes on along the same diagonal.  So the parser
first steps along it: when the match one symbol past the mismatch, read
off the lists, reaches m1, the mismatch becomes a 1-symbol literal and
that match follows, with no hash, lookup or candidate scan.

Where the diagonal breaks, the parser searches the index, hashing only
the grams it probes.  After a factor it hashes the one gram at the next
position; a literal run that goes on has the grams ahead hashed in
``hash_kmers`` windows, and the parser jumps within a window from one
gram whose presence bit is set to the next, since the grams between
have empty lookups.

The search works on plain rows: ``_evaluate`` prices each candidate
once as ``(kind, position, p0, p1, p2, advance, delta_cost)`` and the
parser keeps the chosen row's kind, position and pieces.  A parse is
held as :class:`FactorColumns`, the one factor form the encoder and the
decoder share, built once at the end with the gap symbols gathered from
the source.  :class:`Factor` is only the per-factor view that
``apply_parse`` (the oracle) reads.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import CorruptArchiveError
from .genome import N
from .kmer import common_prefix  # noqa: F401  perfbench's tracer times calls through this name
from .kmer import KmerIndex, gram_hash, hash_kmers

LITERAL, MATCH, NRUN, RESERVOIR = 0, 1, 2, 3

GAP_LIMIT = 2  # gaps per match, fixed by the quaternary flag encoding
CHEAP_OFFSET_BOUND = 64  # a delta difference below this is a cheap offset
LENGTH_SLACK = 28  # symbols a cheap match may fall short of the longest

_INF = float("inf")

# Hashing ahead: a literal run's first grams are hashed one at a time;
# from this length on, in windows as long as the run so far, within
# these bounds (a hash_kmers call costs about as much as 1024 grams).
_HASH_AHEAD_AFTER = 16
_MIN_HASH_WINDOW, _MAX_HASH_WINDOW = 1024, 1 << 16
# Diagonal windows: the symbols of a diagonal's first compare, the most
# that one compare covers, and the windows kept before all are dropped.
_FIRST_DIAGONAL_WINDOW, _MAX_DIAGONAL_WINDOW = 64, 1 << 16
_MAX_DIAGONALS = 1024
# A compare that meets this many mismatches within this many symbols
# has run into unrelated sequence: its window ends there.
_DENSE_MISMATCHES, _DENSE_SPAN = 8, 32


@dataclass
class ParseParams:
    """All tunables of the compression pipeline."""

    m1: int = 13  # minimum first-piece match length (20 for human-scale data)
    m2: int = 4  # minimum gap-extension piece length
    m3: int = 32  # minimum literal-run length for the reservoir, and far-match length
    candidate_cap: int = 128
    checkpoint_interval: int = 8192

    def validate(self) -> None:
        if not self.m1 > self.m2 >= 1:
            raise ValueError("require m1 > m2 >= 1")
        if self.m3 < self.m1:
            raise ValueError("require m3 >= m1")
        for name in ("candidate_cap", "checkpoint_interval"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.m1 > 0xFFFF or self.m2 > 0xFFFF:
            raise ValueError("m1/m2 exceed the archive header field width")
        for name in ("m3", "candidate_cap", "checkpoint_interval"):
            if getattr(self, name) > 0xFFFFFFFF:
                raise ValueError(f"{name} exceeds the archive header field width")


@dataclass
class Factor:
    """One factor of a finished parse, as :meth:`FactorColumns.to_factors`
    builds it (the parser itself makes none).

    ``position`` is the reference position for MATCH, the reservoir
    offset for RESERVOIR.  ``lengths`` holds the piece lengths (a single
    entry for LITERAL runs and NRUN pseudomatches); ``gap_symbols`` the
    source symbol at each single-symbol gap.
    """

    kind: int
    position: int = 0
    lengths: tuple = ()
    gap_symbols: tuple = ()
    symbols: np.ndarray | None = None

    @property
    def advance(self) -> int:
        return int(sum(self.lengths)) + len(self.gap_symbols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Factor):
            return NotImplemented
        if (self.kind, self.position, self.lengths, self.gap_symbols) != (
            other.kind,
            other.position,
            other.lengths,
            other.gap_symbols,
        ):
            return False
        if (self.symbols is None) != (other.symbols is None):
            return False
        return self.symbols is None or np.array_equal(self.symbols, other.symbols)


@dataclass
class FactorColumns:
    """Factors as parallel columns, one row per factor in source order.

    ``kind`` holds LITERAL/MATCH/NRUN/RESERVOIR, ``start`` the source
    position and ``advance`` the source symbols of each factor;
    ``position`` is the reference position (MATCH) or reservoir offset
    (RESERVOIR), else 0.  ``pieces`` holds the piece lengths, zero past
    a factor's last piece (a literal run's or N-run's length is its one
    piece), so a match has one gap fewer than it has pieces;
    ``lit_off`` indexes ``lits`` at a literal run's symbols or a match's
    gap symbols.

    The parser's ``lits`` is the unpadded literal stream: every literal
    run and gap symbol in factor order.  A decoder's ``lits`` is the
    unpacked LIT stream of its windows, so each window's literals end
    with up to two symbols of triplet padding.
    """

    kind: np.ndarray  # (n,) int8
    start: np.ndarray  # (n,) int64
    advance: np.ndarray  # (n,) int64
    position: np.ndarray  # (n,) int64
    pieces: np.ndarray  # (n, 3) int64
    lit_off: np.ndarray  # (n,) int64
    lits: np.ndarray  # uint8 symbols

    def __len__(self) -> int:
        return len(self.kind)

    def slice(self, lo: int, hi: int) -> "FactorColumns":
        """Factors [lo, hi) as views sharing ``lits``."""
        return FactorColumns(
            self.kind[lo:hi],
            self.start[lo:hi],
            self.advance[lo:hi],
            self.position[lo:hi],
            self.pieces[lo:hi],
            self.lit_off[lo:hi],
            self.lits,
        )

    @classmethod
    def concat(cls, parts: list["FactorColumns"]) -> "FactorColumns":
        if len(parts) == 1:
            return parts[0]
        shift = np.cumsum([0] + [len(p.lits) for p in parts[:-1]])
        return cls(
            np.concatenate([p.kind for p in parts]),
            np.concatenate([p.start for p in parts]),
            np.concatenate([p.advance for p in parts]),
            np.concatenate([p.position for p in parts]),
            np.concatenate([p.pieces for p in parts]),
            np.concatenate([p.lit_off + s for p, s in zip(parts, shift.tolist())]),
            np.concatenate([p.lits for p in parts]),
        )

    def to_factors(self) -> list[Factor]:
        """The factors as :class:`Factor` objects (the ``apply_parse``
        oracle, ``iter_factors``, tests and demos)."""
        out = []
        lits = self.lits
        for kind, pos, pieces, lo in zip(
            self.kind.tolist(),
            self.position.tolist(),
            self.pieces.tolist(),
            self.lit_off.tolist(),
        ):
            if kind == LITERAL:
                L = pieces[0]
                out.append(Factor(LITERAL, lengths=(L,), symbols=lits[lo : lo + L]))
            elif kind == NRUN:
                out.append(Factor(NRUN, lengths=(pieces[0],)))
            else:
                k = 3 - pieces.count(0)
                out.append(
                    Factor(
                        kind,
                        position=pos,
                        lengths=tuple(pieces[:k]),
                        gap_symbols=tuple(lits[lo : lo + k - 1].tolist()),
                    )
                )
        return out


def _empty_columns() -> FactorColumns:
    z = np.zeros(0, dtype=np.int64)
    return FactorColumns(
        np.zeros(0, dtype=np.int8), z, z, z, np.zeros((0, 3), dtype=np.int64), z,
        np.zeros(0, dtype=np.uint8),
    )


@dataclass
class Parse:
    columns: FactorColumns
    source_length: int

    @property
    def factors(self) -> list[Factor]:
        return self.columns.to_factors()


class _Diagonals:
    """Mismatch lists along the diagonals of one source.

    A candidate at extended-reference position ``cand`` for source
    position ``pos`` lies on diagonal ``cand - pos``.  A diagonal's
    window ``[lo, hi, mismatches, step]`` covers source positions
    [lo, hi) and lists, ascending, those where the source and the
    buffer along the diagonal differ.  It grows by one vector compare
    at a time, first over ``_FIRST_DIAGONAL_WINDOW`` symbols, then four
    times more each time up to ``_MAX_DIAGONAL_WINDOW``, so the factor
    after a SNP extends from the lists its predecessor filled.  A
    compare that runs past a match into unrelated sequence ends the
    window at its first dense stretch of mismatches, so the lists hold
    few positions that no extension reads.  A diagonal that runs off
    the reference end goes on into the reservoir; each compare reads
    the buffer its candidate lies in, a reservoir compare through an
    array view of ``index.res`` made for it alone (a view kept would
    stop the bytearray from growing).
    """

    def __init__(self, index: KmerIndex, s: np.ndarray):
        self.index = index
        self.s = s
        self.windows: dict[int, list] = {}

    def extend(self, pos: int, cand: int, m2: int) -> tuple:
        """Piece lengths of the match of source ``pos`` at ``cand``:
        contiguous as far as symbols agree, then up to ``GAP_LIMIT``
        times one mismatching symbol skipped on both sides when the
        piece after it reaches ``m2``.  A match stops at the source end
        and at the end of its buffer (the reference, or the reservoir as
        it is now); its gap symbols are not read."""
        index = self.index
        d = cand - pos
        in_ref = cand < index.ref_len
        end = min(len(self.s), (index.ref_len if in_ref else index.ext_len) - d)
        w = self.windows.get(d)
        if w is None or not w[0] <= pos <= w[1]:
            if len(self.windows) >= _MAX_DIAGONALS:
                self.windows.clear()  # mostly windows the parser has left behind
            w = self.windows[d] = [pos, pos, [], _FIRST_DIAGONAL_WINDOW]
        m = self._next_mismatch(w, d, pos, end, in_ref)
        pieces = [m - pos]
        while len(pieces) <= GAP_LIMIT and m < end:
            after = self._next_mismatch(w, d, m + 1, end, in_ref)
            if after - m - 1 < m2:
                break
            pieces.append(after - m - 1)
            m = after
        return tuple(pieces)

    def _next_mismatch(self, w: list, d: int, p: int, end: int, in_ref: bool) -> int:
        """The first mismatch at or after source position ``p`` on
        diagonal ``d`` (window ``w``), or ``end`` when there is none
        before it."""
        mism = w[2]
        i = bisect_left(mism, p)
        while i == len(mism):
            hi = w[1]
            if hi >= end:
                return end
            b = min(hi + w[3], end)
            if in_ref:
                buf, at = self.index.ref, hi + d
            else:
                buf = np.frombuffer(self.index.res, dtype=np.uint8)
                at = hi + d - self.index.ref_len
            found = (self.s[hi:b] != buf[at : at + b - hi]).nonzero()[0]
            if len(found) >= _DENSE_MISMATCHES:
                span = found[_DENSE_MISMATCHES - 1 :] - found[: 1 - _DENSE_MISMATCHES]
                dense = (span < _DENSE_SPAN).nonzero()[0]
                if len(dense):  # the window ends where its first dense stretch does
                    found = found[: dense[0] + _DENSE_MISMATCHES]
                    b = hi + int(found[-1]) + 1
            mism += (found + hi).tolist()
            w[1] = b
            w[3] = min(4 * w[3], _MAX_DIAGONAL_WINDOW)
            i = bisect_left(mism, p, i)
        return mism[i]


def _evaluate(diagonals: _Diagonals, pos, params, prev_delta, positions):
    """Extend every candidate whose first piece reaches m1 into a row
    ``(kind, position, p0, p1, p2, advance, delta_cost)``: MATCH at its
    reference position, or RESERVOIR at its reservoir offset with an
    infinite cost.  A far row (cost ``CHEAP_OFFSET_BOUND`` or more) whose
    advance is below m3 is dropped.  Return (the longest, the longest
    with a cheap offset), None for none; ties break toward the smaller
    delta cost, then the smaller extended-reference position."""
    best = cheap = None
    best_key = cheap_key = None
    ref_len = diagonals.index.ref_len
    for p in positions:
        pieces = diagonals.extend(pos, p, params.m2)
        if pieces[0] < params.m1:
            continue
        advance = sum(pieces) + len(pieces) - 1
        if p < ref_len:
            kind, at, cost = MATCH, p, abs(pos - p - prev_delta)
        else:
            kind, at, cost = RESERVOIR, p - ref_len, _INF
        if cost >= CHEAP_OFFSET_BOUND and advance < params.m3:
            continue  # a far match shorter than a reservoir phrase
        row = (kind, at, *(pieces + (0, 0))[:3], advance, cost)
        key = (-advance, cost, p)
        if best_key is None or key < best_key:
            best, best_key = row, key
        if cost < CHEAP_OFFSET_BOUND and (cheap_key is None or key < cheap_key):
            cheap, cheap_key = row, key
    return best, cheap


def choose_factor(best: tuple | None, alt: tuple | None) -> tuple | None:
    """Arbitrate covered length against offset cost between two
    ``_evaluate`` rows; return one of them.

    The shorter ``alt`` wins when its delta cost is below
    ``CHEAP_OFFSET_BOUND``, the best one's is not, and the length deficit
    is within ``LENGTH_SLACK``; a match with an expensive offset keeps
    its spot only by being longer than that.  Reservoir matches never
    have cheap offsets."""
    if best is None or alt is None or alt is best:
        return best
    if best[6] >= CHEAP_OFFSET_BOUND > alt[6] and best[5] - alt[5] <= LENGTH_SLACK:
        return alt
    return best


def _n_runs(s: np.ndarray, min_len: int) -> dict[int, int]:
    """Start -> length of every maximal N-run of at least ``min_len``,
    ascending."""
    at = np.flatnonzero(s == N)
    if not len(at):
        return {}
    cut = np.flatnonzero(np.diff(at) != 1) + 1
    starts = at[np.concatenate(([0], cut))]
    lengths = at[np.concatenate((cut - 1, [len(at) - 1]))] + 1 - starts
    keep = lengths >= min_len
    return dict(zip(starts[keep].tolist(), lengths[keep].tolist()))


def parse_sequence(
    index: KmerIndex,
    seq: np.ndarray,
    params: ParseParams,
    reservoir_sink=None,
) -> Parse:
    """Factorize ``seq`` left to right against the extended reference.

    ``reservoir_sink(run_symbols, source_start, hashes, n_free)`` is
    invoked for every closing literal run of length >= m3, in source
    order, with the ``hash_kmers`` columns of the run's interior grams;
    it is expected to append the run to the reservoir (and its grams to
    the index) so later positions can match it.

    After a MATCH or RESERVOIR factor ends at a mismatch ``m``, the
    diagonal step tries the same diagonal at ``m + 1``: when the gram
    there is N-free (so no N-run starts at ``m``) and ``_Diagonals``
    extends it to a first piece of at least m1, ``m`` becomes a
    1-symbol literal and that match follows, MATCH or RESERVOIR by
    where it lies, and the step repeats after it.  Otherwise the search
    goes on at ``m`` through the index.

    Grams are hashed only where the search goes.  The probe after a
    factor hashes its one gram with ``gram_hash``; once a literal run
    is ``_HASH_AHEAD_AFTER`` symbols long, the grams ahead are hashed in
    a ``hash_kmers`` window as long as the run so far (at least
    ``_MIN_HASH_WINDOW``), and the parser jumps from one gram whose
    presence bit is set to the next, or to an N-run start: the grams it
    skips would have empty lookups, so they are literals.  A sink call
    sets presence bits, so the window's hits are then found again.
    Each literal gram's hash and N-free flag are kept as they are made,
    for the sink.
    """
    s = np.asarray(seq, dtype=np.uint8)
    n = len(s)
    k = params.m1
    sb = s.tobytes()
    interval = params.checkpoint_interval
    ref_len = index.ref_len

    last_gram = n - k
    qhash = np.empty(max(last_gram + 1, 0), dtype=np.uint32)
    qfree = np.empty(max(last_gram + 1, 0), dtype=bool)
    n_run_at = _n_runs(s, params.m1)
    n_run_starts = list(n_run_at) + [n]
    next_run = 0  # index of the first N-run start at or after pos
    diagonals = _Diagonals(index, s)

    # (kind, start, position, three pieces) of each factor as it is chosen
    rows: list[tuple] = []

    pos = 0
    lit_start = 0
    last_match_delta = 0
    last_match_window = -1
    # the window of hashed grams ends at ``win_hi``; ``hits`` lists the
    # grams ahead in it that are N-free with their presence bit set
    win_hi = 0
    hits: list[int] = []
    stale = False  # a sink call set presence bits since ``hits`` was made

    def close_literal(upto: int) -> None:
        nonlocal lit_start, stale
        if upto > lit_start:
            L = upto - lit_start
            rows.append((LITERAL, lit_start, 0, L, 0, 0))
            if reservoir_sink is not None and L >= params.m3:
                grams = slice(lit_start, upto - k + 1)
                reservoir_sink(s[lit_start:upto], lit_start, qhash[grams], qfree[grams])
                stale = True
        lit_start = upto

    while pos < n:
        while n_run_starts[next_run] < pos:
            next_run += 1
        run_at = n_run_starts[next_run]
        if pos == run_at:
            rl = n_run_at[pos]
            close_literal(pos)
            rows.append((NRUN, pos, 0, rl, 0, 0))
            pos += rl
            lit_start = pos
            continue
        if pos > last_gram:
            break  # no gram and no N-run starts here: the rest is literal

        if pos < win_hi:
            if stale:
                ahead = slice(pos, win_hi)
                hits = (
                    np.flatnonzero(index.may_contain(qhash[ahead]) & qfree[ahead]) + pos
                ).tolist()
                stale = False
            i = bisect_left(hits, pos)
            if i == len(hits):
                pos = min(win_hi, run_at)
                continue
            if hits[i] > pos:
                if hits[i] > run_at:  # a hit's gram is N-free: never == run_at
                    pos = run_at
                    continue
                pos = hits[i]
            h = qhash.item(pos)
        elif pos - lit_start < _HASH_AHEAD_AFTER:
            gram = sb[pos : pos + k]
            h = qhash[pos] = gram_hash(gram)
            qfree[pos] = free = N not in gram
            if not free:
                pos += 1
                continue
        else:
            size = min(max(pos - lit_start, _MIN_HASH_WINDOW), _MAX_HASH_WINDOW)
            win_hi = min(pos + size, last_gram + 1)
            qhash[pos:win_hi], qfree[pos:win_hi] = hash_kmers(s[pos : win_hi + k - 1], k)
            stale = True
            continue

        chosen = None
        positions = index.lookup(h, sb[pos : pos + k])
        if positions:
            pred = last_match_delta if pos // interval == last_match_window else 0
            chosen = choose_factor(*_evaluate(diagonals, pos, params, pred, positions))

        if chosen is not None:
            close_literal(pos)
            kind, at, pieces, advance = chosen[0], chosen[1], chosen[2:5], chosen[5]
            d = at + (ref_len if kind == RESERVOIR else 0) - pos
            while True:
                rows.append((kind, pos, at) + pieces)
                if kind == MATCH:
                    last_match_delta = -d
                    last_match_window = pos // interval
                pos += advance
                # the diagonal step: past the mismatch at ``pos``, the
                # next match on the same diagonal, read off its lists.  An
                # N-run starting at ``pos`` puts N in the gram after it; a
                # diagonal past its buffer's end extends to no first piece.
                nxt = pos + 1
                if nxt > last_gram or N in sb[nxt : nxt + k]:
                    break
                step = diagonals.extend(nxt, nxt + d, params.m2)
                if step[0] < k:
                    break
                rows.append((LITERAL, pos, 0, 1, 0, 0))
                pos = nxt
                if pos + d < ref_len:
                    kind, at = MATCH, pos + d
                else:
                    kind, at = RESERVOIR, pos + d - ref_len
                pieces, advance = (step + (0, 0))[:3], sum(step) + len(step) - 1
            lit_start = pos
            continue

        pos += 1

    close_literal(n)
    return Parse(_parse_columns(s, rows), n)


def _parse_columns(s: np.ndarray, rows: list[tuple]) -> FactorColumns:
    """Columns of the factors tiling source ``s``; ``lits`` gathers the
    literal-run and gap positions, in source (so factor) order."""
    table = np.array(rows, dtype=np.int64).reshape(-1, 6)
    kind, start, piece = table[:, 0].astype(np.int8), table[:, 1], table[:, 3:]
    gaps = np.count_nonzero(piece, axis=1) - 1
    advance = piece.sum(axis=1) + gaps
    is_lit = kind == LITERAL
    lit_use = np.where(is_lit, piece[:, 0], gaps)
    take = np.repeat(is_lit, advance)
    gap1 = start + piece[:, 0]
    take[gap1[piece[:, 1] > 0]] = True
    take[(gap1 + 1 + piece[:, 1])[piece[:, 2] > 0]] = True
    return FactorColumns(
        kind, start, advance, table[:, 2], piece, np.cumsum(lit_use) - lit_use, s[take]
    )


def validate_parse(parse: Parse, params: ParseParams) -> None:
    """Check factor geometry, the literal stream and exact tiling of the
    columns (their start, advance and literal offsets follow from the
    pieces and are not read); raises ValueError."""
    c = parse.columns
    kind, pieces = c.kind, c.pieces
    first, ext = pieces[:, 0], pieces[:, 1:]
    lit, nrun = kind == LITERAL, kind == NRUN
    matchlike = ~(lit | nrun)
    if np.count_nonzero(lit & ((first < 1) | ext.any(axis=1))):
        raise ValueError("malformed literal run")
    if np.count_nonzero(nrun & (first < params.m1)):
        raise ValueError("N-run shorter than minimum match length")
    if np.count_nonzero(nrun & ext.any(axis=1)):
        raise ValueError("N-run cannot carry gaps")
    if np.count_nonzero(matchlike & (pieces[:, 1] == 0) & (pieces[:, 2] != 0)):
        raise ValueError("bad piece count")
    if np.count_nonzero(matchlike & (first < params.m1)):
        raise ValueError("first piece below minimum match length")
    if np.count_nonzero(matchlike[:, None] & (ext != 0) & (ext < params.m2)):
        raise ValueError("extension piece below minimum")
    if np.count_nonzero(matchlike & (c.position < 0)):
        raise ValueError("negative position")
    gaps = np.count_nonzero(pieces, axis=1) - 1
    if int(first[lit].sum() + gaps.sum()) != len(c.lits):
        raise ValueError("literal length mismatch")
    covered = int(pieces.sum() + gaps.sum())
    if covered != parse.source_length:
        raise ValueError(
            f"factors cover {covered} symbols of a {parse.source_length}-symbol source"
        )


def apply_factor(out: np.ndarray, c: int, f: Factor, reference, reservoir) -> int:
    """Write one factor's symbols into ``out`` at cursor ``c``; returns
    the new cursor.  Raises :class:`CorruptArchiveError` when the factor
    points out of range."""
    if f.kind == LITERAL:
        L = f.lengths[0]
        out[c : c + L] = f.symbols
        return c + L
    if f.kind == NRUN:
        L = f.lengths[0]
        out[c : c + L] = N
        return c + L
    src = reference if f.kind == MATCH else reservoir
    if src is None:
        raise CorruptArchiveError("factor references a missing buffer")
    rp = f.position
    for i, L in enumerate(f.lengths):
        if rp < 0 or rp + L > len(src):
            raise CorruptArchiveError("factor points outside its buffer")
        out[c : c + L] = src[rp : rp + L]
        c += L
        rp += L
        if i < len(f.gap_symbols):
            out[c] = f.gap_symbols[i]
            c += 1
            rp += 1
    return c


def apply_parse(parse: Parse, reference, reservoir=None) -> np.ndarray:
    """Reconstruct the source from its factors (the semantic oracle).

    ``reference`` and ``reservoir`` are symbol arrays; raises
    :class:`CorruptArchiveError` when a factor points out of range.
    """
    out = np.empty(parse.source_length, dtype=np.uint8)
    c = 0
    for f in parse.factors:
        c = apply_factor(out, c, f, reference, reservoir)
    return out
