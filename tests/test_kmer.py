import numpy as np
import pytest

from rlzg.genome import N, encode_symbols
from rlzg.kmer import KmerIndex, common_prefix, hash_kmers, mix_hash


def naive_positions(ref: np.ndarray, k: int, query: np.ndarray) -> list[int]:
    out = []
    for p in range(len(ref) - k + 1):
        gram = ref[p : p + k]
        if (gram == N).any():
            continue
        if np.array_equal(gram, query):
            out.append(p)
    return out


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


def test_soundness_and_completeness_vs_naive_scan():
    rng = np.random.default_rng(9)
    for _ in range(300):
        n = int(rng.integers(10, 300))
        ref = rng.integers(0, 5, n).astype(np.uint8)
        k = int(rng.integers(4, 8))
        idx = KmerIndex(ref, k, candidate_cap=1000)
        for _ in range(5):
            if rng.random() < 0.5 and n >= k:
                p = int(rng.integers(0, n - k + 1))
                query = ref[p : p + k].copy()
            else:
                query = rng.integers(0, 4, k).astype(np.uint8)
            want = naive_positions(ref, k, query)
            assert find(idx, query) == want


def test_candidate_cap_limits_and_keeps_order():
    idx = KmerIndex(np.zeros(100, dtype=np.uint8), 4, candidate_cap=10)
    got = find(idx, np.zeros(4, dtype=np.uint8))
    assert got == list(range(10))


def test_extend_with_reservoir_counts():
    rng = np.random.default_rng(10)
    idx = KmerIndex(rng.integers(0, 4, 50).astype(np.uint8), 13)
    before = n_indexed(idx)
    phrase = rng.integers(0, 4, 40).astype(np.uint8)
    idx.extend_with_reservoir(phrase, idx.ext_len)
    assert n_indexed(idx) - before == 40 - 13 + 1


def test_reservoir_phrase_with_central_n():
    idx = KmerIndex(np.zeros(0, dtype=np.uint8), 13)
    phrase = np.ones(32, dtype=np.uint8)
    phrase[16] = N
    idx.extend_with_reservoir(phrase, 0)
    expect = sum(
        1 for p in range(32 - 13 + 1) if not (phrase[p : p + 13] == N).any()
    )
    assert n_indexed(idx) == expect


def test_reservoir_only_gram_found():
    rng = np.random.default_rng(11)
    ref = rng.integers(0, 2, 60).astype(np.uint8)  # A/C only
    idx = KmerIndex(ref, 13)
    phrase = np.full(40, 3, dtype=np.uint8)  # T-run, absent from reference
    idx.extend_with_reservoir(phrase, idx.ext_len)
    got = find(idx, np.full(13, 3, dtype=np.uint8))
    assert got and all(p >= idx.ref_len for p in got)
    assert got[0] == idx.ref_len


def test_reservoir_offset_mismatch_rejected():
    idx = KmerIndex(encode_symbols("ACGT"), 4)
    with pytest.raises(ValueError):
        idx.extend_with_reservoir(np.zeros(40, dtype=np.uint8), 99)


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
