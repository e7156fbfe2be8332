"""Parses written as lists of :class:`Factor` objects, for tests that
build factors by hand: ``parse_of`` turns a list into the columns
``parse_sequence`` would return for it, and ``random_member`` draws a
list mixing every factor shape."""
import numpy as np

from rlzg.parse import LITERAL, MATCH, NRUN, RESERVOIR, Factor, FactorColumns, Parse


def parse_of(factors: list[Factor], source_length: int) -> Parse:
    """The parse of ``factors`` over a ``source_length``-symbol source.
    Its literal stream holds each literal run's symbols and each match's
    gap symbols in factor order, as the parser's does."""
    n = len(factors)
    pieces = np.zeros((n, 3), dtype=np.int64)
    for i, f in enumerate(factors):
        pieces[i, : len(f.lengths)] = f.lengths
    advance = np.array([f.advance for f in factors], dtype=np.int64)
    lits = [
        np.asarray(f.symbols if f.kind == LITERAL else f.gap_symbols, dtype=np.uint8)
        for f in factors
    ]
    lit_use = np.array([len(s) for s in lits], dtype=np.int64)
    columns = FactorColumns(
        np.array([f.kind for f in factors], dtype=np.int8),
        np.cumsum(advance) - advance,
        advance,
        np.array([f.position for f in factors], dtype=np.int64),
        pieces,
        np.cumsum(lit_use) - lit_use,
        np.concatenate(lits) if lits else np.zeros(0, dtype=np.uint8),
    )
    return Parse(columns, source_length)


def random_member(rng, ref, res_len, params, n_factors):
    """A parse mixing every factor shape; ``res_len`` is the group
    reservoir length before it, and it may match its own earlier runs."""
    factors = []
    pred = 0
    pos = 0
    for _ in range(n_factors):
        r = rng.random()
        if r < 0.25:
            L = int(rng.choice([1, 5, params.m3, 40, 300, 700]))
            f = Factor(LITERAL, lengths=(L,), symbols=rng.integers(0, 5, L).astype(np.uint8))
            if L >= params.m3:
                res_len += L
        elif r < 0.33:
            f = Factor(NRUN, lengths=(int(rng.choice([params.m1, 90, 1000])),))
        else:
            k = int(rng.integers(1, 4))
            pieces = [int(rng.choice([params.m1, 60, 256, 1200]))]
            pieces += [int(rng.choice([params.m2, 30, 300])) for _ in range(k - 1)]
            gaps = tuple(int(v) for v in rng.integers(0, 5, k - 1))
            span = sum(pieces) + k - 1
            if r < 0.45 and res_len >= span:
                f = Factor(RESERVOIR, int(rng.integers(0, res_len - span + 1)), tuple(pieces), gaps)
            else:
                if rng.random() < 0.5:  # near the previous delta: a direct or small class
                    at = pos - pred + int(rng.integers(-100, 101))
                else:  # far away: a far-offset class
                    at = int(rng.integers(0, len(ref) - span + 1))
                at = min(max(at, 0), len(ref) - span)
                f = Factor(MATCH, at, tuple(pieces), gaps)
                pred = pos - at
        factors.append(f)
        pos += f.advance
    return parse_of(factors, pos)
