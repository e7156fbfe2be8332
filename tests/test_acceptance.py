"""Acceptance suite: one test per criterion, printed as a pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines and throughput report.
"""
import itertools
import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from rlzg import Archive, Collection, Sequence, compress, decompress
from rlzg.genome import N, parse_fasta
from rlzg.kmer import KmerIndex, hash_kmers
from rlzg.parse import LITERAL, NRUN, RESERVOIR, ParseParams, parse_sequence
from rlzg.streams import FLG, LEN, NRUN_CLASS, OFF, RES_CLASS, encode_parse
from rlzg.parse import Factor, MATCH
from rlzg.synthetic import apply_snps, make_collection, random_reference

from factor_lists import parse_of

PARAMS = ParseParams()


def lookup_gram(index: KmerIndex, gram: np.ndarray) -> list[int]:
    """Positions the index returns for one k-gram, looked up by its hash
    and raw symbols as the parser does."""
    (h,), _ = hash_kmers(gram, index.k)
    return index.lookup(int(h), gram.tobytes())


def report(criterion: str, detail: str = "") -> None:
    print(f"\nACCEPTANCE {criterion}: PASS {detail}".rstrip())


class Corpus:
    """Criterion-1 corpus, shared with criterion 2."""

    def __init__(self):
        rng = np.random.default_rng(2024)
        self.elapsed = 0.0
        self.n_collections = 100
        self.total_symbols = 0
        self.kept: list[tuple[Collection, Archive]] = []
        self.failures = 0
        t0 = time.perf_counter()
        for i in range(self.n_collections):
            if i == 0:
                ref_len = 65_536  # pin both ends of the stated range
            elif i == 1:
                ref_len = 1_000_000
            else:
                ref_len = int(np.exp(rng.uniform(np.log(65_536), np.log(1_000_000))))
            coll = make_collection(
                rng,
                ref_len=ref_len,
                n_derived=int(rng.integers(3, 9)),
                snp_range=(0.001, 0.02),
                max_indels=4,
                max_n_run=50_000,
            )
            self.total_symbols += sum(len(s.data) for s in coll.sequences)
            arc = Archive.from_bytes(compress(coll, PARAMS).to_bytes())
            back = decompress(arc)
            if back != coll:
                self.failures += 1
            if i % 10 == 0:
                self.kept.append((coll, arc))
        self.elapsed = time.perf_counter() - t0


@pytest.fixture(scope="session")
def corpus():
    return Corpus()


def test_c1_lossless_roundtrip(corpus):
    assert corpus.failures == 0
    assert len(corpus.kept) == 10
    assert corpus.elapsed < 120, f"criterion 1 took {corpus.elapsed:.1f}s (budget 120s)"
    report(
        "C1 lossless round-trip",
        f"({corpus.n_collections} collections, {corpus.total_symbols / 1e6:.0f} MB, "
        f"{corpus.elapsed:.1f}s)",
    )


def test_c2_random_access_consistency(corpus):
    rng = np.random.default_rng(77)
    t0 = time.perf_counter()
    n_checked = 0
    reservoir_checked = 0
    for coll, arc in corpus.kept:
        full = {s.name: s.data for s in coll.sequences}
        names = [s.name for s in coll.sequences]
        done = 0
        # ranges constructed to land inside reservoir matches first
        spans = []
        for s in coll.sequences[1:]:
            for pos, f in arc.iter_factors(s.name):
                if f.kind == RESERVOIR:
                    spans.append((s.name, pos, pos + f.advance))
        for name, lo, hi in spans[:4]:
            pad = (hi - lo) // 4
            for a, b in ((lo, hi), (lo + pad, hi - pad)):
                if a >= b:
                    continue
                got = arc.extract(name, a, b)
                assert np.array_equal(got, full[name][a:b]), (name, a, b)
                reservoir_checked += 1
                done += 1
        while done < 1000:
            name = names[int(rng.integers(0, len(names)))]
            n = len(full[name])
            lo = int(rng.integers(0, n + 1))
            hi = int(rng.integers(lo, min(n, lo + 5000) + 1))
            got = arc.extract(name, lo, hi)
            assert np.array_equal(got, full[name][lo:hi]), (name, lo, hi)
            done += 1
        n_checked += done
    elapsed = time.perf_counter() - t0
    assert n_checked >= 10_000
    assert reservoir_checked >= 20, f"only {reservoir_checked} reservoir-covered ranges"
    assert elapsed < 60, f"criterion 2 took {elapsed:.1f}s (budget 60s)"
    report(
        "C2 random-access consistency",
        f"({n_checked} ranges, {reservoir_checked} inside reservoir matches, {elapsed:.1f}s)",
    )


def test_c3_identical_copy_degenerate(corpus):
    rng = np.random.default_rng(30)
    ref = random_reference(rng, 1_000_000)
    coll = Collection([Sequence("ref", ref), Sequence("copy", ref.copy())])
    arc = Archive.from_bytes(compress(coll, PARAMS).to_bytes())
    factors = [f for _, f in arc.iter_factors("copy")]
    assert len(factors) == 1
    payload = sum(len(p) for p in arc.entries[1].coded.payloads)
    assert payload < 64
    assert decompress(arc) == coll
    report("C3 identical-copy degenerate case", f"(1 factor, {payload} payload bytes)")


def _isolated_snp_copy(rng, ref, m, params):
    """Reference copy with m isolated substitutions: pairwise separation
    beyond m1+m2, away from the ends, and no mutated gram accidentally
    present in the reference (the premise of the economy bound)."""
    n = len(ref)
    gap = params.m1 + params.m2
    margin = 3 * gap
    positions = np.linspace(margin, n - margin, m).astype(np.int64)
    assert (np.diff(positions) > gap).all()
    index = KmerIndex(ref, params.m1)
    seq = ref.copy()
    seq[positions] = (seq[positions] + 1) % 4
    for p in positions.tolist():
        for bump in range(3):
            clean = True
            lo = max(p - params.m1 + 1, 0)
            for g in range(lo, min(p + 1, n - params.m1 + 1)):
                if lookup_gram(index, seq[g : g + params.m1]):
                    clean = False
                    break
            if clean:
                break
            seq[p] = (seq[p] + 1) % 4
            if seq[p] == ref[p]:
                seq[p] = (seq[p] + 1) % 4
        else:
            raise AssertionError(f"could not isolate the substitution at {p}")
    return seq, positions


@pytest.mark.parametrize("m", [10, 100, 1000])
def test_c4_snp_economy(m):
    rng = np.random.default_rng(40 + m)
    ref = random_reference(rng, 100_000)
    seq, _ = _isolated_snp_copy(rng, ref, m, PARAMS)
    index = KmerIndex(ref, PARAMS.m1)
    parse = parse_sequence(index, seq, PARAMS)
    offset_bearing = sum(1 for f in parse.factors if f.kind != LITERAL)
    loose_symbols = sum(
        len(f.gap_symbols) + (f.lengths[0] if f.kind == LITERAL else 0)
        for f in parse.factors
    )
    assert offset_bearing <= -(-m // 2) + 1
    assert loose_symbols == m
    report(f"C4 SNP economy m={m}", f"({offset_bearing} offset factors, {loose_symbols} loose symbols)")


class RatioFixture:
    def __init__(self):
        rng = np.random.default_rng(50)
        ref = random_reference(rng, 1_000_000)
        seqs = [Sequence("ref", ref)]
        for i in range(10):
            seqs.append(Sequence(f"copy{i}", apply_snps(rng, ref, 0.001)))
        self.collection = Collection(seqs)
        t0 = time.perf_counter()
        self.archive = compress(self.collection, PARAMS)
        self.data = self.archive.to_bytes()
        self.compress_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        self.decompressed = decompress(Archive.from_bytes(self.data))
        self.decompress_s = time.perf_counter() - t0


@pytest.fixture(scope="session")
def ratio_fixture():
    return RatioFixture()


def test_c5_ratio_at_desk_scale(ratio_fixture):
    fx = ratio_fixture
    assert fx.decompressed == fx.collection
    st = fx.archive.stats()
    copies_symbols = 10 * 1_000_000
    bpb_relative = 8 * st["relative_bytes"] / copies_symbols
    assert bpb_relative <= 0.08, f"relative part {bpb_relative:.4f} bpb"
    assert st["total_bytes"] <= 1.10 * st["reference_bytes"] + st["relative_bytes"]
    assert fx.compress_s + fx.decompress_s < 30
    report(
        "C5 ratio at desk scale",
        f"(relative {bpb_relative:.4f} bpb, overall {st['bpb_overall']:.4f} bpb)",
    )


def test_c6_nrun_and_reference_blocks():
    rng = np.random.default_rng(60)
    # all-N reference compresses to the block index only
    ref_n = np.full(1_000_000, N, dtype=np.uint8)
    coll = Collection([Sequence("ref", ref_n), Sequence("d", random_reference(rng, 20_000))])
    arc = Archive.from_bytes(compress(coll, PARAMS).to_bytes())
    assert len(arc.entries[0].refblocks.payload) == 0
    assert decompress(arc) == coll

    # one NRun factor per maximal run
    ref = random_reference(rng, 300_000)
    derived = ref.copy()
    derived[50_000:90_000] = N  # 40 kN run
    derived[200_000:200_020] = N  # second, short maximal run (>= m1)
    coll = Collection([Sequence("ref", ref), Sequence("d", derived)])
    arc = Archive.from_bytes(compress(coll, PARAMS).to_bytes())
    nruns = [(pos, f) for pos, f in arc.iter_factors("d") if f.kind == NRUN]
    assert len(nruns) == 2
    assert nruns[0][0] == 50_000 and nruns[0][1].lengths == (40_000,)
    assert nruns[1][0] == 200_000 and nruns[1][1].lengths == (20,)
    assert decompress(arc) == coll
    report("C6 N-run and reference-block behavior", "(index-only all-N payload; 1 NRun per maximal run)")


YEAST_DIR = os.environ.get("RLZG_YEAST_DIR", "")


@pytest.mark.skipif(
    not YEAST_DIR or not Path(YEAST_DIR).is_dir(),
    reason="optional large-scale check; set RLZG_YEAST_DIR to a directory of "
    "S. cerevisiae FASTA genomes to enable",
)
def test_c7_optional_yeast_collection():
    paths = sorted(
        itertools.chain.from_iterable(
            Path(YEAST_DIR).glob(pat) for pat in ("*.fa", "*.fasta", "*.fna")
        )
    )
    assert len(paths) >= 2, "need at least two genomes"
    seqs = []
    for p in paths:
        records = parse_fasta(p.read_bytes())
        data = np.concatenate([r.data for r in records])
        seqs.append(Sequence(p.stem, data))
    coll = Collection(seqs)
    from rlzg import select_reference

    coll.reference_index = select_reference(coll)
    arc = compress(coll, PARAMS)
    arc.to_bytes()
    st = arc.stats()
    assert st["bpb_overall"] <= 0.15, f"overall ratio {st['bpb_overall']:.4f} bpb"
    report("C7 yeast collection ratio", f"({st['bpb_overall']:.4f} bpb overall)")


def test_c8_throughput_sanity(ratio_fixture):
    fx = ratio_fixture
    symbols = sum(len(s.data) for s in fx.collection.sequences)
    comp = symbols / 1e6 / fx.compress_s
    dec = symbols / 1e6 / fx.decompress_s
    line = f"(compress {comp:.1f} MB/s, decompress {dec:.1f} MB/s)"
    if comp < 10:
        warnings.warn(f"compression below 10 MB/s: {comp:.1f}")
    if dec < 40:
        warnings.warn(f"decompression below 40 MB/s: {dec:.1f}")
    report("C8 throughput sanity (soft)", line)


# -- criterion 9 pieces (kept flat so each oracle failure is attributable) --


def brute_force_optimal_bits(freqs):
    n = len(freqs)
    if n == 1:
        return freqs[0]
    best = None
    for lens in itertools.product(range(1, n + 1), repeat=n):
        if sum(2 ** (n - l) for l in lens) != 2**n:
            continue
        cost = sum(f * l for f, l in zip(freqs, lens))
        if best is None or cost < best:
            best = cost
    return best


def test_c9_huffman_roundtrip_and_optimality():
    from rlzg.huffman import HuffmanTable, decode_chains, pack_codes

    rng = np.random.default_rng(90)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        freqs = rng.integers(1, 60, n).tolist()
        counts = np.zeros(256, dtype=np.int64)
        counts[:n] = freqs
        table = HuffmanTable.from_counts(counts)
        data = np.repeat(np.arange(n, dtype=np.uint8), freqs)
        assert int(table.lengths[data].sum()) == brute_force_optimal_bits(freqs)
        payload, _ = pack_codes(table.lengths[data], table.codes[data], [len(data)])
        buf = np.frombuffer(payload, dtype=np.uint8)
        assert np.array_equal(decode_chains(buf, table, [0], [len(data)])[0], data)
    report("C9a Huffman micro-oracles", "(optimal vs brute force, round-trip)")


def test_c9_forced_byte_layouts():
    def match(position, lengths, gaps=()):
        return Factor(MATCH, position=position, lengths=tuple(lengths), gap_symbols=tuple(gaps))

    def records(raw, stream):
        return list(zip(raw.symbols[stream].tolist(), raw.extra[stream].tolist()))

    raw = encode_parse(parse_of([match(0, (400,))], 400), PARAMS)
    assert records(raw, OFF) == [(0, 0)]  # delta difference 0, a direct symbol

    # d = +200 zigzags to 400: class 74 (bit length 9, mantissa 0b10) from 384
    raw = encode_parse(parse_of([match(0, (300,)), match(100, (300,))], 600), PARAMS)
    assert records(raw, OFF) == [(0, 0), (74, 16)]

    lit_run = Factor(LITERAL, lengths=(20,), symbols=np.zeros(20, dtype=np.uint8))
    factors = [
        lit_run,
        match(0, (20,)),
        match(0, (20, 20), gaps=(1,)),
        match(0, (20, 20, 20), gaps=(1, 2)),
    ]
    raw = encode_parse(parse_of(factors, sum(f.advance for f in factors)), PARAMS)
    assert raw.symbols[FLG].tolist() == [228]

    # an N-run is one offset symbol; length 40 codes 39, class 32 from 32
    raw = encode_parse(parse_of([Factor(NRUN, lengths=(40,))], 40), PARAMS)
    assert records(raw, OFF) == [(NRUN_CLASS, 0)]
    assert records(raw, LEN) == [(32, 7)]

    # reservoir offset 77: class 12 of the reservoir range (bit length 7) from 64
    raw = encode_parse(
        parse_of([Factor(RESERVOIR, position=77, lengths=(33,), gap_symbols=())], 33), PARAMS
    )
    assert records(raw, OFF) == [(RES_CLASS + 12, 13)]
    report("C9b forced stream byte layouts", "(offset/length/flag)")


def test_c9_match_index_vs_naive_scan():
    rng = np.random.default_rng(91)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(8, 120))
        ref = rng.integers(0, 5, n).astype(np.uint8)
        k = int(rng.integers(4, 8))
        idx = KmerIndex(ref, k, candidate_cap=10_000)
        if rng.random() < 0.6 and n >= k:
            p = int(rng.integers(0, n - k + 1))
            query = ref[p : p + k].copy()
        else:
            query = rng.integers(0, 4, k).astype(np.uint8)
        naive = [
            p
            for p in range(n - k + 1)
            if not (ref[p : p + k] == N).any() and np.array_equal(ref[p : p + k], query)
        ]
        assert lookup_gram(idx, query) == naive
        checked += 1
    assert checked == 1000
    report("C9c match index soundness/completeness", "(1000 fixtures vs naive scan)")
