"""Seeded synthetic genome collections for the benchmark workloads.

The generator is kept here, apart from ``rlzg.synthetic``, so that a
change to the program cannot change the benchmark's inputs.  It applies
the same mutation classes (SNPs, short indels, N-runs, novel segments
from a shared pool), but every per-member parameter that
``make_collection`` draws at random (SNP rate, indel count, number of
novel segments, N-run count and length) is taken at evenly spaced
quantiles of that same distribution and handed to the members in a
seeded order.  Positions and symbols stay random.  A workload therefore
has the same make-up under every seed, and the seed only moves where
the mutations fall; with plain random draws the relative bits per base
of ``mixed`` spread by 31 % (quartile distance over median) across ten
seeds, wider than any bound the benchmark could keep.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

N = 4
ALPHABET = np.frombuffer(b"ACGTN", dtype=np.uint8)
LINE_WIDTH = 70

WORKLOADS = ("mixed", "low_snp", "shared_novel")


@dataclass
class Corpus:
    """Sequences in collection order; the first one is the reference."""

    names: list[str]
    arrays: list[np.ndarray]

    @property
    def bases(self) -> int:
        return sum(len(a) for a in self.arrays)

    @property
    def member_bases(self) -> int:
        return sum(len(a) for a in self.arrays[1:])


def _strata(rng: np.random.Generator, n: int, ppf) -> list:
    """``ppf`` at the n quantile midpoints, in a seeded order."""
    vals = [ppf((j + 0.5) / n) for j in range(n)]
    return [vals[j] for j in rng.permutation(n)]


def _log_uniform(lo: float, hi: float):
    return lambda u: float(np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo))))


def _uniform_int(lo: int, hi: int):
    """Inverse CDF of the integers lo..hi inclusive."""
    return lambda u: lo + min(int(u * (hi - lo + 1)), hi - lo)


def _zero_or(p_zero: float, lo: int, hi: int):
    """0 with probability p_zero, else uniform over lo..hi."""
    rest = _uniform_int(lo, hi)
    return lambda u: 0 if u < p_zero else rest((u - p_zero) / (1 - p_zero))


def _random_bases(rng, n: int) -> np.ndarray:
    return rng.integers(0, 4, n).astype(np.uint8)


def _snps(rng, data: np.ndarray, rate: float) -> np.ndarray:
    m = int(len(data) * rate)
    out = data.copy()
    if m:
        at = rng.choice(len(out), m, replace=False)
        out[at] = (out[at] + rng.integers(1, 4, m)) % 4
    return out


def _indels(rng, data: np.ndarray, count: int, max_size: int = 100) -> np.ndarray:
    for _ in range(count):
        cut = int(rng.integers(max_size, len(data) - max_size))
        size = int(rng.integers(1, max_size + 1))
        if rng.random() < 0.5:
            data = np.concatenate((data[:cut], _random_bases(rng, size), data[cut:]))
        else:
            data = np.concatenate((data[:cut], data[cut + size :]))
    return data


def _insert(rng, data: np.ndarray, segments: list[np.ndarray]) -> np.ndarray:
    if not segments:
        return data
    cuts = np.sort(rng.integers(0, len(data), len(segments)))
    parts = []
    prev = 0
    for cut, seg in zip(cuts.tolist(), segments):
        parts += [data[prev:cut], seg]
        prev = cut
    parts.append(data[prev:])
    return np.concatenate(parts)


def _n_runs(rng, data: np.ndarray, lengths: list[int]) -> np.ndarray:
    out = data.copy()
    for run in lengths:
        at = int(rng.integers(0, len(out) - run))
        out[at : at + run] = N
    return out


def _collection(
    rng,
    ref_len: int,
    n_derived: int,
    snp_range: tuple[float, float],
    max_indels: int,
    max_n_run: int,
    novel_pool: int,
    novel_len: tuple[int, int],
) -> Corpus:
    """make_collection's mutation load with stratified member parameters."""
    ref = _random_bases(rng, ref_len)
    pool_lens = _strata(rng, novel_pool, _uniform_int(*novel_len))
    pool = [_random_bases(rng, n) for n in pool_lens]
    rates = _strata(rng, n_derived, _log_uniform(*snp_range))
    indels = _strata(rng, n_derived, _uniform_int(0, max_indels))
    picks = _strata(rng, n_derived, _zero_or(0.2, 1, novel_pool))
    runs = _strata(rng, n_derived, _zero_or(0.5, 1, 2))
    n_cap = min(max_n_run, ref_len // 8)
    run_lens = iter(_strata(rng, sum(runs), _uniform_int(1, n_cap - 1)))
    names, arrays = ["ref"], [ref]
    for d in range(n_derived):
        data = _snps(rng, ref, rates[d])
        data = _indels(rng, data, indels[d])
        chosen = rng.choice(novel_pool, picks[d], replace=False).tolist()
        data = _insert(rng, data, [pool[j] for j in chosen])
        data = _n_runs(rng, data, [next(run_lens) for _ in range(runs[d])])
        names.append(f"seq{d}")
        arrays.append(data)
    return Corpus(names, arrays)


def make_corpus(workload: str, seed: int, scale: float = 1.0) -> Corpus:
    """The named workload's collection; ``scale`` shrinks every length
    (reference, novel segments, N-runs) for the quick test mode."""
    rng = np.random.default_rng(seed)

    def size(n: int) -> int:
        return max(int(n * scale), 1)

    if workload == "mixed":
        # make_collection(rng, ref_len=2_000_000, n_derived=6) defaults
        return _collection(
            rng, size(2_000_000), 6, (0.001, 0.02), 4, size(50_000), 3, (32, size(2000))
        )
    if workload == "low_snp":
        ref = _random_bases(rng, size(2_000_000))
        arrays = [ref] + [_snps(rng, ref, 0.001) for _ in range(6)]
        return Corpus(["ref"] + [f"seq{d}" for d in range(6)], arrays)
    if workload == "shared_novel":
        return _collection(
            rng,
            size(1_000_000),
            8,
            (0.001, 0.005),
            4,
            size(50_000),
            40,
            (size(2000), size(20000)),
        )
    raise ValueError(f"unknown workload {workload!r}")


def render_fasta(name: str, data: np.ndarray) -> bytes:
    """One FASTA record, LINE_WIDTH letters per line."""
    letters = ALPHABET[data]
    n = len(letters)
    full = n - n % LINE_WIDTH
    body = np.empty(full + full // LINE_WIDTH, dtype=np.uint8)
    grid = body.reshape(-1, LINE_WIDTH + 1)
    grid[:, :LINE_WIDTH] = letters[:full].reshape(-1, LINE_WIDTH)
    grid[:, LINE_WIDTH] = ord("\n")
    tail = letters[full:].tobytes()
    return b">" + name.encode() + b"\n" + body.tobytes() + (tail + b"\n" if tail else b"")
