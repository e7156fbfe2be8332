"""Non-greedy factorization of a sequence against the extended reference.

Each position either starts an N-run pseudomatch, a (possibly gapped)
match into the reference or reservoir, or contributes to a literal run.
Matches extend contiguously as far as symbols agree, then may skip one
mismatching symbol on both sides (a "gap", the SNP case) up to twice,
keeping a gap only when the following piece reaches the extension
minimum.  Among the surviving candidates, a shorter match wins when its
delta-coded offset fits the one-byte form and the longer match's does
not, unless the longer one is ahead by more than the length slack.

Literal runs long enough for the reservoir are handed to the sink as
they close, so later sequences (and later positions of this one) can
match them.

A parse is held as :class:`FactorColumns`, the one factor form the
encoder and the decoder share: the parser appends each chosen factor's
kind, start, position and pieces to a list and builds the columns once
at the end.  :class:`Factor` is the candidate token of the search and
the per-factor view that ``apply_parse`` (the oracle) reads.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CorruptArchiveError
from .genome import N
from .kmer import KmerIndex, common_prefix, hash_kmers

LITERAL, MATCH, NRUN, RESERVOIR = 0, 1, 2, 3

GAP_LIMIT = 2  # gaps per match, fixed by the quaternary flag encoding

_INF = float("inf")


@dataclass
class ParseParams:
    """All tunables of the compression pipeline."""

    m1: int = 13  # minimum first-piece match length (20 for human-scale data)
    m2: int = 4  # minimum gap-extension piece length
    m3: int = 32  # minimum literal-run length for the reservoir
    cheap_offset_bound: int = 64
    length_slack: int = 28
    candidate_cap: int = 128
    checkpoint_interval: int = 8192

    def validate(self) -> None:
        if not self.m1 > self.m2 >= 1:
            raise ValueError("require m1 > m2 >= 1")
        if self.m3 < self.m1:
            raise ValueError("require m3 >= m1")
        for name in ("cheap_offset_bound", "length_slack", "candidate_cap", "checkpoint_interval"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.m1 > 0xFFFF or self.m2 > 0xFFFF:
            raise ValueError("m1/m2 exceed the archive header field width")
        for name in ("m3", "cheap_offset_bound", "length_slack", "candidate_cap", "checkpoint_interval"):
            if getattr(self, name) > 0xFFFFFFFF:
                raise ValueError(f"{name} exceeds the archive header field width")


@dataclass
class Factor:
    """One parse token.

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


def _extend(index: KmerIndex, sb: bytes, pos: int, cand: int, n: int, params: ParseParams):
    """Grow a verified k-gram hit into contiguous pieces plus gaps."""
    buf, boff, room = index.extension_buffer(cand)
    pieces = []
    gaps = []
    sp, bp = pos, 0
    L = common_prefix(buf, boff, sb, sp, min(n - sp, room))
    pieces.append(L)
    sp += L
    bp += L
    while len(gaps) < GAP_LIMIT:
        if sp >= n or bp >= room:
            break  # ran off an end, no mismatch to skip
        gap_sym = sb[sp]
        sp2, bp2 = sp + 1, bp + 1
        L = common_prefix(buf, boff + bp2, sb, sp2, min(n - sp2, room - bp2))
        if L < params.m2:
            break
        gaps.append(gap_sym)
        pieces.append(L)
        sp, bp = sp2 + L, bp2 + L
    return tuple(pieces), tuple(gaps)


def _delta_cost(f: Factor, pos: int, prev_delta: int):
    if f.kind == RESERVOIR:
        return _INF
    return abs((pos - f.position) - prev_delta)


def _evaluate(index, sb, pos, n, params, prev_delta, positions):
    """Extend every candidate into a MATCH factor, or a RESERVOIR factor
    at its reservoir offset; return (the longest, the longest with a
    cheap offset).  Ties break toward the smaller delta cost, then the
    smaller extended-reference position."""
    best = cheap = None
    best_key = cheap_key = None
    ref_len = index.ref_len
    for p in positions:
        pieces, gaps = _extend(index, sb, pos, p, n, params)
        if pieces[0] < params.m1:
            continue
        if p < ref_len:
            f = Factor(MATCH, p, pieces, gaps)
        else:
            f = Factor(RESERVOIR, p - ref_len, pieces, gaps)
        absd = _delta_cost(f, pos, prev_delta)
        key = (-f.advance, absd, p)
        if best_key is None or key < best_key:
            best, best_key = f, key
        if absd < params.cheap_offset_bound and (cheap_key is None or key < cheap_key):
            cheap, cheap_key = f, key
    return best, cheap


def choose_factor(
    best: Factor | None,
    alt: Factor | None,
    prev_delta: int,
    pos: int,
    params: ParseParams,
) -> Factor | None:
    """Arbitrate covered length against offset cost.

    The shorter ``alt`` wins when its delta fits the one-byte offset
    form, the best one's does not, and the length deficit is within the
    slack; a match with an expensive offset keeps its spot only by being
    longer than that.  Reservoir matches never have cheap offsets."""
    if best is None or alt is None or alt is best:
        return best
    d_best = _delta_cost(best, pos, prev_delta)
    d_alt = _delta_cost(alt, pos, prev_delta)
    bound = params.cheap_offset_bound
    if d_best >= bound and d_alt < bound and best.advance - alt.advance <= params.length_slack:
        return alt
    return best


def _n_runs(s: np.ndarray, min_len: int) -> dict[int, int]:
    """Start -> length of every maximal N-run of at least ``min_len``."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], (s == N).view(np.int8), [0]))))
    starts, lengths = edges[0::2], edges[1::2] - edges[0::2]
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
    """
    s = np.asarray(seq, dtype=np.uint8)
    n = len(s)
    k = params.m1
    sb = s.tobytes()
    interval = params.checkpoint_interval

    qhash, qfree = hash_kmers(s, k)
    n_run_at = _n_runs(s, params.m1)
    last_gram = len(qhash) - 1

    # (kind, start, position, three pieces) of each factor as it is chosen
    rows: list[tuple] = []

    pos = 0
    lit_start = 0
    last_match_delta = 0
    last_match_window = -1

    def close_literal(upto: int) -> None:
        nonlocal lit_start
        if upto > lit_start:
            L = upto - lit_start
            rows.append((LITERAL, lit_start, 0, L, 0, 0))
            if reservoir_sink is not None and L >= params.m3:
                grams = slice(lit_start, upto - k + 1)
                reservoir_sink(s[lit_start:upto], lit_start, qhash[grams], qfree[grams])
        lit_start = upto

    while pos < n:
        rl = n_run_at.get(pos)
        if rl is not None:
            close_literal(pos)
            rows.append((NRUN, pos, 0, rl, 0, 0))
            pos += rl
            lit_start = pos
            continue

        chosen = None
        if pos <= last_gram and qfree.item(pos):
            positions = index.lookup(qhash.item(pos), sb[pos : pos + k])
            if positions:
                pred = last_match_delta if pos // interval == last_match_window else 0
                best, cheap = _evaluate(index, sb, pos, n, params, pred, positions)
                chosen = choose_factor(best, cheap, pred, pos, params)

        if chosen is not None:
            close_literal(pos)
            rows.append((chosen.kind, pos, chosen.position) + (chosen.lengths + (0, 0))[:3])
            if chosen.kind == MATCH:
                last_match_delta = pos - chosen.position
                last_match_window = pos // interval
            pos += chosen.advance
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
