import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest

from rlzg.genome import N, encode_symbols
from rlzg.kmer import KmerIndex, common_prefix, gram_hash, hash_kmers, mix_hash, n_free_grams


def find(idx, query):
    """Positions the index returns for one k-gram, looked up by its hash
    and raw symbols as the parser does."""
    query = np.asarray(query, dtype=np.uint8)
    (h,), _ = hash_kmers(query, idx.k)
    return idx.lookup(int(h), query.tobytes())


def n_indexed(idx):
    """Entries the index holds: the lookups of every distinct k-gram of
    the extended reference, those with N included."""
    ext = np.concatenate([idx.ref, np.frombuffer(bytes(idx.res), dtype=np.uint8)])
    hashes, _ = hash_kmers(ext, idx.k)
    raw = ext.tobytes()
    grams = {raw[j : j + idx.k]: h for j, h in enumerate(hashes.tolist())}
    return sum(len(idx.lookup(h, gram)) for gram, h in grams.items())


def test_repeated_gram_positions():
    idx = KmerIndex(encode_symbols("ACACACAC"), 4)
    assert find(idx, encode_symbols("ACAC")) == [0, 2, 4]
    assert find(idx, encode_symbols("CACA")) == [1, 3]


def test_grams_overlapping_n_are_skipped():
    idx = KmerIndex(encode_symbols("ACGNACGT"), 4)
    assert n_indexed(idx) == 1
    assert find(idx, encode_symbols("ACGT")) == [4]
    assert find(idx, encode_symbols("ACGN")) == []


def test_reference_shorter_than_k():
    idx = KmerIndex(encode_symbols("ACG"), 4)
    assert n_indexed(idx) == 0
    assert find(idx, encode_symbols("ACGT")) == []


def test_k_below_four_rejected():
    with pytest.raises(ValueError):
        KmerIndex(encode_symbols("ACGT"), 3)


def test_absent_gram():
    idx = KmerIndex(encode_symbols("ACACACAC"), 4)
    assert find(idx, encode_symbols("TTTT")) == []


def test_query_with_n_returns_empty():
    idx = KmerIndex(encode_symbols("ANANANAN"), 4)
    assert find(idx, encode_symbols("ANAN")) == []


def test_index_size_equals_n_free_gram_count():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(0, 400))
        ref = rng.integers(0, 5, n).astype(np.uint8)
        k = int(rng.integers(4, 9))
        idx = KmerIndex(ref, k)
        expect = sum(
            1 for p in range(max(n - k + 1, 0)) if not (ref[p : p + k] == N).any()
        )
        assert n_indexed(idx) == expect


def add_phrase(idx, phrase):
    """Append a reservoir phrase with its gram columns, as the parser's
    sink does."""
    idx.extend_with_reservoir(phrase, *hash_kmers(phrase, idx.k))


def naive_map(segments, k):
    """Gram -> positions over the extended reference, scanned position by
    position; grams holding N or straddling two segments (reference,
    phrases) are skipped."""
    out = {}
    base = 0
    for seg in segments:
        raw = seg.tobytes()
        for p in range(len(seg) - k + 1):
            if N not in seg[p : p + k]:
                out.setdefault(raw[p : p + k], []).append(base + p)
        base += len(seg)
    return out


def test_soundness_and_completeness_vs_naive_scan():
    rng = np.random.default_rng(9)
    for trial in range(60):
        n = int(rng.integers(10, 300))
        ref = rng.integers(0, 5, n).astype(np.uint8)
        k = int(rng.integers(4, 8))
        cap = int(rng.choice([1, 3, 1000]))
        idx = KmerIndex(ref, k, candidate_cap=cap)
        segments = [ref]
        n_phrases = int(rng.integers(2, 5))
        for j in range(n_phrases + 1):
            if j:
                phrase = rng.integers(0, 4, int(rng.integers(k, 60))).astype(np.uint8)
                if j == 1:
                    phrase[int(rng.integers(0, len(phrase)))] = N
                add_phrase(idx, phrase)
                segments.append(phrase)
            want = naive_map(segments, k)
            ext = np.concatenate(segments)
            grams = {ext[p : p + k].tobytes() for p in range(len(ext) - k + 1)}
            for gram in grams:
                query = np.frombuffer(gram, dtype=np.uint8)
                assert find(idx, query) == want.get(gram, [])[:cap], (trial, j)
            absent = 0
            for _ in range(100_000):  # random grams until 200 absent ones
                query = rng.integers(0, 4, k).astype(np.uint8)
                assert find(idx, query) == want.get(query.tobytes(), [])[:cap]
                absent += query.tobytes() not in want
                if absent == 200:
                    break
            assert absent == 200


def test_reference_less_index_grows_its_presence_table():
    """Without a reference the table starts at its 8,192-bit minimum;
    reservoir grams must grow it, not saturate it."""
    rng = np.random.default_rng(16)
    k = 13
    idx = KmerIndex(np.zeros(0, dtype=np.uint8), k)
    segments = []
    for _ in range(200):
        phrase = rng.integers(0, 4, 250).astype(np.uint8)
        add_phrase(idx, phrase)
        segments.append(phrase)
    bits = np.unpackbits(np.frombuffer(bytes(idx._res_present), dtype=np.uint8))
    assert len(bits) > 8192 and bits.mean() < 0.25
    want = naive_map(segments, k)
    for gram, positions in want.items():
        assert find(idx, np.frombuffer(gram, dtype=np.uint8)) == positions[: idx.candidate_cap]
    for _ in range(2000):
        query = rng.integers(0, 4, k).astype(np.uint8)
        assert find(idx, query) == want.get(query.tobytes(), [])


def motif_phrase(rng, motifs):
    """A reservoir phrase of random stretches and copies of ``motifs``,
    so its grams recur across phrases; one phrase in ten holds an N."""
    parts = []
    for _ in range(int(rng.integers(1, 4))):
        parts.append(rng.integers(0, 4, int(rng.integers(0, 40))).astype(np.uint8))
        parts.append(motifs[int(rng.integers(0, len(motifs)))])
    phrase = np.concatenate(parts)
    if rng.random() < 0.1:
        phrase[int(rng.integers(0, len(phrase)))] = N
    return phrase


def assert_lookups_match_naive_scan(idx, segments, rng):
    """Every gram of the extended reference, and random absent ones,
    looks up the naive scan's positions, truncated at the cap."""
    want = naive_map(segments, idx.k)
    cap = idx.candidate_cap
    for gram, positions in want.items():
        assert find(idx, np.frombuffer(gram, dtype=np.uint8)) == positions[:cap]
    for _ in range(300):
        query = rng.integers(0, 4, idx.k).astype(np.uint8)
        assert find(idx, query) == want.get(query.tobytes(), [])[:cap]
    return want


def assert_runs_logarithmic(idx):
    """The runs cover consecutive reservoir stretches, oldest first, each
    sorted and more than twice as long as the next."""
    starts = list(idx.res_buckets)
    runs = list(idx.res_buckets.values())
    ends = starts[1:] + [len(idx.res)]
    for start, end, run in zip(starts, ends, runs):
        offsets = run.view("<u4")[::2]
        assert (run[1:] > run[:-1]).all()
        assert start <= offsets.min() and offsets.max() < end
    assert all(len(a) > 2 * len(b) for a, b in zip(runs, runs[1:]))


@pytest.mark.parametrize("cap", [1, 3, 128])
def test_lookup_across_runs_matches_naive_scan(cap):
    """Over 200 phrases whose grams recur, a bucket spans several runs
    and the reference; lookups keep the naive scan's order and cap."""
    rng = np.random.default_rng(19 + cap)
    k = 8
    motifs = [rng.integers(0, 4, 30).astype(np.uint8) for _ in range(6)]
    ref = np.concatenate([rng.integers(0, 4, 500).astype(np.uint8)] + motifs[:3])
    idx = KmerIndex(ref, k, candidate_cap=cap)
    segments = [ref]
    spans = 0  # the most runs one bucket spans
    for n in range(1, 241):
        phrase = motif_phrase(rng, motifs)
        add_phrase(idx, phrase)
        segments.append(phrase)
        if n % 40 == 0:
            want = assert_lookups_match_naive_scan(idx, segments, rng)
            assert_runs_logarithmic(idx)
            starts = list(idx.res_buckets)
            for positions in want.values():
                runs = {bisect_right(starts, p - idx.ref_len) for p in positions if p >= idx.ref_len}
                spans = max(spans, len(runs))
    assert spans >= 3


@pytest.mark.parametrize("cap", [1, 3, 128])
def test_reference_less_lookups_match_naive_scan_as_the_table_grows(cap):
    """Without a reference, the reservoir table grows fourfold at least
    twice; lookups match the naive scan after every growth."""
    rng = np.random.default_rng(29 + cap)
    k = 13
    motifs = [rng.integers(0, 4, 200).astype(np.uint8) for _ in range(8)]
    idx = KmerIndex(np.zeros(0, dtype=np.uint8), k, candidate_cap=cap)
    segments = []
    sizes = [len(idx._res_present)]
    for _ in range(200):
        phrase = motif_phrase(rng, motifs)
        add_phrase(idx, phrase)
        segments.append(phrase)
        if len(idx._res_present) != sizes[-1]:
            sizes.append(len(idx._res_present))
            assert_lookups_match_naive_scan(idx, segments, rng)
    assert_lookups_match_naive_scan(idx, segments, rng)
    assert_runs_logarithmic(idx)
    assert len(sizes) >= 3 and all(b == 4 * a for a, b in zip(sizes, sizes[1:]))


def test_capped_bucket_keeps_ascending_order():
    rng = np.random.default_rng(15)
    k, cap = 13, 128
    motif = rng.integers(0, 4, 50).astype(np.uint8)
    parts = []
    for _ in range(300):
        parts += [rng.integers(0, 4, int(rng.integers(0, 40))).astype(np.uint8), motif]
    ref = np.concatenate(parts)
    idx = KmerIndex(ref, k, candidate_cap=cap)
    want = naive_map([ref], k)
    for j in (0, 17, 50 - k):
        gram = motif[j : j + k]
        assert len(want[gram.tobytes()]) > cap
        assert find(idx, gram) == want[gram.tobytes()][:cap]


def test_candidate_cap_limits_and_keeps_order():
    idx = KmerIndex(np.zeros(100, dtype=np.uint8), 4, candidate_cap=10)
    got = find(idx, np.zeros(4, dtype=np.uint8))
    assert got == list(range(10))


def test_extend_with_reservoir_counts():
    rng = np.random.default_rng(10)
    idx = KmerIndex(rng.integers(0, 4, 50).astype(np.uint8), 13)
    before = n_indexed(idx)
    add_phrase(idx, rng.integers(0, 4, 40).astype(np.uint8))
    assert n_indexed(idx) - before == 40 - 13 + 1


def test_reservoir_phrase_with_central_n():
    idx = KmerIndex(np.zeros(0, dtype=np.uint8), 13)
    phrase = np.ones(32, dtype=np.uint8)
    phrase[16] = N
    add_phrase(idx, phrase)
    expect = sum(
        1 for p in range(32 - 13 + 1) if not (phrase[p : p + 13] == N).any()
    )
    assert n_indexed(idx) == expect


def test_reservoir_only_gram_found():
    rng = np.random.default_rng(11)
    ref = rng.integers(0, 2, 60).astype(np.uint8)  # A/C only
    idx = KmerIndex(ref, 13)
    add_phrase(idx, np.full(40, 3, dtype=np.uint8))  # T-run, absent from reference
    got = find(idx, np.full(13, 3, dtype=np.uint8))
    assert got and all(p >= idx.ref_len for p in got)
    assert got[0] == idx.ref_len


def test_reservoir_gram_columns_mismatch_rejected():
    idx = KmerIndex(encode_symbols("ACGT"), 4)
    phrase = np.zeros(40, dtype=np.uint8)
    with pytest.raises(ValueError):  # gram columns of another phrase
        idx.extend_with_reservoir(phrase, *hash_kmers(phrase[:-1], 4))
    assert idx.ext_len == 4 and not idx.res_buckets


def test_crafted_hash_collision_is_filtered():
    # birthday-search two distinct 13-grams with equal 32-bit hash
    rng = np.random.default_rng(12)
    k = 13
    grams = rng.integers(0, 4, (500_000, k)).astype(np.uint8)
    packed = np.zeros(len(grams), dtype=np.uint64)
    for j in range(k):
        packed = packed * np.uint64(5) + grams[:, j]
    hashes = mix_hash(packed)
    order = np.argsort(hashes, kind="stable")
    hs = hashes[order]
    dup = np.flatnonzero(hs[1:] == hs[:-1])
    a = b = None
    for d in dup:
        g1, g2 = grams[order[d]], grams[order[d + 1]]
        if not np.array_equal(g1, g2):
            a, b = g1, g2
            break
    assert a is not None, "no collision found; enlarge the search"
    idx = KmerIndex(a, k)
    assert find(idx, a) == [0]
    assert find(idx, b) == []  # collides in hash, filtered by symbols
    add_phrase(idx, b)
    assert find(idx, a) == [0]
    assert find(idx, b) == [k]
    idx = KmerIndex(np.zeros(0, dtype=np.uint8), k)
    add_phrase(idx, a)
    assert find(idx, a) == [0]
    assert find(idx, b) == []


def test_common_prefix():
    assert common_prefix(b"abcdef", 0, b"abcxef", 0, 6) == 3
    assert common_prefix(b"abc", 0, b"abc", 0, 3) == 3
    assert common_prefix(b"abc", 0, b"xbc", 0, 3) == 0
    assert common_prefix(b"", 0, b"", 0, 0) == 0
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(1, 2000))
        a = rng.integers(0, 4, n).astype(np.uint8)
        b = a.copy()
        cut = int(rng.integers(0, n + 1))
        if cut < n:
            b[cut] = (b[cut] + 1) % 4
        ab, bb = a.tobytes(), b.tobytes()
        assert common_prefix(ab, 0, bb, 0, n) == cut


def test_hash_kmers_marks_n_grams():
    s = encode_symbols("ACGTNACGT")
    _, n_free = hash_kmers(s, 4)
    assert n_free.tolist() == [True, False, False, False, False, True]


def test_n_free_grams_matches_window_scan():
    rng = np.random.default_rng(17)
    for _ in range(500):
        n = int(rng.integers(0, 80))
        k = int(rng.integers(1, 40))
        s = rng.integers(0, 4, n).astype(np.uint8)
        s[rng.random(n) < rng.random()] = N
        want = [not (s[p : p + k] == N).any() for p in range(max(n - k + 1, 0))]
        assert n_free_grams(s, k).tolist() == want, (n, k)


def test_index_build_peak_memory():
    """Building over 1 Mbase stays within 28 transient bytes per base."""
    ref = np.random.default_rng(18).integers(0, 4, 1_000_000).astype(np.uint8)
    tracemalloc.start()
    try:
        KmerIndex(ref, 13)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 28 * len(ref)


def test_reservoir_index_memory_per_gram():
    """About 2 M reservoir grams, appended in 2-20 kbase phrases to the
    index of a 1 Mbase reference, keep at most 24 bytes each and peak
    at 32, the phrase symbols in ``res`` counted."""
    rng = np.random.default_rng(19)
    k = 13
    idx = KmerIndex(rng.integers(0, 4, 1_000_000).astype(np.uint8), k)
    grams = 0
    tracemalloc.start()
    try:
        while grams < 2_000_000:
            phrase = rng.integers(0, 4, int(rng.integers(2000, 20_001)), dtype=np.uint8)
            add_phrase(idx, phrase)
            grams += len(phrase) - k + 1
        del phrase
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(run) for run in idx.res_buckets.values()) == grams
    assert kept <= 24 * grams and peak <= 32 * grams


def test_doubling_pack_matches_plain_horner():
    rng = np.random.default_rng(14)
    for _ in range(300):
        n = int(rng.integers(1, 200))
        k = int(rng.integers(1, min(n, 40) + 1))
        s = rng.integers(0, 5, n).astype(np.uint8)
        m = n - k + 1
        horner = np.zeros(m, dtype=np.uint64)
        for j in range(k):
            horner *= np.uint64(5)
            horner += s[j : j + m]
        got, _ = hash_kmers(s, k)
        assert np.array_equal(got, mix_hash(horner)), (n, k)


@pytest.mark.parametrize("k", [4, 13, 14, 27, 28, 40])
def test_gram_hash_equals_hash_kmers(k):
    # 5**13 < 2**32 < 5**14: k = 13 is the last width packed in 32 bits;
    # 5**27 < 2**64 < 5**28: k = 28 and 40 reduce mod 2**64
    rng = np.random.default_rng(15 + k)
    for p_n in (0.0, 0.1):
        s = rng.integers(0, 4, 600).astype(np.uint8)
        s[rng.random(600) < p_n] = N
        hashes, _ = hash_kmers(s, k)
        raw = s.tobytes()
        assert [gram_hash(raw[j : j + k]) for j in range(len(hashes))] == hashes.tolist()


def test_may_contain_is_the_lookup_presence_test():
    rng = np.random.default_rng(16)
    ref = rng.integers(0, 4, 3000).astype(np.uint8)
    idx = KmerIndex(ref, 8)
    add_phrase(idx, rng.integers(0, 4, 200).astype(np.uint8))
    for part in (idx.ref, np.frombuffer(bytes(idx.res), dtype=np.uint8)):
        hashes, n_free = hash_kmers(part, idx.k)
        assert idx.may_contain(hashes[n_free]).all()  # every indexed gram
    queries = rng.integers(0, 4, (4000, idx.k)).astype(np.uint8)
    qh = np.array([gram_hash(q.tobytes()) for q in queries], dtype=np.uint32)
    maybe = idx.may_contain(qh)
    assert 0 < maybe.sum() < len(qh)
    for q, h, m in zip(queries, qh.tolist(), maybe.tolist()):
        if not m:
            assert idx.lookup(h, q.tobytes()) == []
