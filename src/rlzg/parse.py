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

    @property
    def gap_count(self) -> int:
        return len(self.gap_symbols)

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
class Parse:
    factors: list[Factor]
    source_length: int


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


def _n_run_lengths(s: np.ndarray) -> np.ndarray:
    """Array holding, at each N-run start, the maximal run length."""
    out = np.zeros(len(s), dtype=np.int64)
    isn = s == N
    if isn.any():
        starts = np.flatnonzero(isn & np.concatenate(([True], ~isn[:-1])))
        ends = np.flatnonzero(isn & np.concatenate((~isn[1:], [True]))) + 1
        out[starts] = ends - starts
    return out


def parse_sequence(
    index: KmerIndex,
    seq: np.ndarray,
    params: ParseParams,
    reservoir_sink=None,
) -> Parse:
    """Factorize ``seq`` left to right against the extended reference.

    ``reservoir_sink(run_symbols, source_start)`` is invoked for every
    closing literal run of length >= m3, in source order; it is expected
    to append the run to the reservoir (and its grams to the index) so
    later positions can match it.
    """
    s = np.asarray(seq, dtype=np.uint8)
    n = len(s)
    factors: list[Factor] = []
    if n == 0:
        return Parse(factors, 0)
    k = params.m1
    sb = s.tobytes()
    interval = params.checkpoint_interval

    qhash, qfree = hash_kmers(s, k)
    run_len_at = _n_run_lengths(s)
    last_gram = len(qhash) - 1

    pos = 0
    lit_start = 0
    last_match_delta = 0
    last_match_window = -1

    def close_literal(upto: int) -> None:
        nonlocal lit_start
        if upto > lit_start:
            run = s[lit_start:upto]
            factors.append(Factor(LITERAL, lengths=(len(run),), symbols=run))
            if reservoir_sink is not None and len(run) >= params.m3:
                reservoir_sink(run, lit_start)
        lit_start = upto

    while pos < n:
        rl = int(run_len_at[pos])
        if rl >= params.m1:
            close_literal(pos)
            factors.append(Factor(NRUN, lengths=(rl,)))
            pos += rl
            lit_start = pos
            continue

        chosen = None
        if pos <= last_gram and qfree[pos]:
            positions = index.lookup(int(qhash[pos]), sb[pos : pos + k])
            if positions:
                pred = last_match_delta if pos // interval == last_match_window else 0
                best, cheap = _evaluate(index, sb, pos, n, params, pred, positions)
                chosen = choose_factor(best, cheap, pred, pos, params)

        if chosen is not None:
            close_literal(pos)
            factors.append(chosen)
            if chosen.kind == MATCH:
                last_match_delta = pos - chosen.position
                last_match_window = pos // interval
            pos += chosen.advance
            lit_start = pos
            continue

        pos += 1

    close_literal(n)
    return Parse(factors, n)


def validate_parse(parse: Parse, params: ParseParams) -> None:
    """Check factor geometry and exact tiling; raises ValueError."""
    covered = 0
    for f in parse.factors:
        if f.kind == LITERAL:
            if len(f.lengths) != 1 or f.lengths[0] < 1 or f.symbols is None:
                raise ValueError("malformed literal run")
            if len(f.symbols) != f.lengths[0]:
                raise ValueError("literal length mismatch")
        elif f.kind == NRUN:
            if len(f.lengths) != 1 or f.lengths[0] < params.m1:
                raise ValueError("N-run shorter than minimum match length")
            if f.gap_symbols:
                raise ValueError("N-run cannot carry gaps")
        else:
            if not 1 <= len(f.lengths) <= GAP_LIMIT + 1:
                raise ValueError("bad piece count")
            if len(f.gap_symbols) != len(f.lengths) - 1:
                raise ValueError("gap symbol count must be pieces - 1")
            if f.lengths[0] < params.m1:
                raise ValueError("first piece below minimum match length")
            if any(L < params.m2 for L in f.lengths[1:]):
                raise ValueError("extension piece below minimum")
            if f.position < 0:
                raise ValueError("negative position")
        covered += f.advance
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
