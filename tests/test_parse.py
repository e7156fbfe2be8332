import numpy as np
import pytest

from rlzg.genome import N, encode_symbols
from rlzg.kmer import KmerIndex, hash_kmers
from rlzg.parse import (
    GAP_LIMIT,
    LITERAL,
    MATCH,
    NRUN,
    RESERVOIR,
    Factor,
    ParseParams,
    _evaluate,
    apply_parse,
    choose_factor,
    parse_sequence,
    validate_parse,
)
from rlzg.refstore import ReservoirProvenance, append_reservoir_phrase


def make_params(**kw):
    p = ParseParams(**kw)
    p.validate()
    return p


def longest_at(idx, seq, pos, params, prev_delta=0):
    """The longest factor ``_evaluate`` makes of the candidates for the
    gram at ``pos``, looked up as ``parse_sequence`` does; None when the
    gram holds N or no candidate reaches m1."""
    seq = np.asarray(seq, dtype=np.uint8)
    hashes, n_free = hash_kmers(seq, params.m1)
    if pos >= len(hashes) or not n_free[pos]:
        return None
    sb = seq.tobytes()
    positions = idx.lookup(int(hashes[pos]), sb[pos : pos + params.m1])
    best, _ = _evaluate(idx, sb, pos, len(seq), params, prev_delta, positions)
    return best


def brute_force_extend(ref, seq, pos, ref_pos, params):
    """Oracle: extend one candidate exactly as the parser promises."""
    pieces, gaps = [], []
    sp, rp = pos, ref_pos
    n, m = len(seq), len(ref)

    def prefix(sp, rp):
        L = 0
        while sp + L < n and rp + L < m and seq[sp + L] == ref[rp + L]:
            L += 1
        return L

    L = prefix(sp, rp)
    pieces.append(L)
    sp, rp = sp + L, rp + L
    while len(gaps) < GAP_LIMIT:
        if sp >= n or rp >= m:
            break
        L = prefix(sp + 1, rp + 1)
        if L < params.m2:
            break
        gaps.append(int(seq[sp]))
        pieces.append(L)
        sp, rp = sp + 1 + L, rp + 1 + L
    return tuple(pieces), tuple(gaps)


def brute_force_best(ref, seq, pos, params, prev_delta=0):
    """Oracle: try every reference position whose gram matches."""
    k = params.m1
    best = None
    best_key = None
    gram = seq[pos : pos + k]
    if (gram == N).any():
        return None
    for rp in range(len(ref) - k + 1):
        if (ref[rp : rp + k] == N).any():
            continue
        if not np.array_equal(ref[rp : rp + k], gram):
            continue
        pieces, gaps = brute_force_extend(ref, seq, pos, rp, params)
        cover = sum(pieces) + len(gaps)
        key = (-cover, abs((pos - rp) - prev_delta), rp)
        if best_key is None or key < best_key:
            best_key, best = key, (rp, pieces, gaps)
    return best


def test_single_substitution_becomes_gap():
    rng = np.random.default_rng(20)
    params = make_params(m1=4, m2=2, m3=32)
    ref = rng.integers(0, 4, 20).astype(np.uint8)
    seq = ref.copy()
    seq[10] = (seq[10] + 1) % 4
    idx = KmerIndex(ref, params.m1)
    got = longest_at(idx, seq, 0, params)
    want = brute_force_best(ref, seq, 0, params)
    assert got.position == want[0]
    assert (got.lengths, got.gap_symbols) == (want[1], want[2])
    # the oracle itself should see (10, 9) with the substituted symbol
    assert want[1] == (10, 9) and want[2] == (int(seq[10]),)


def test_absent_gram_returns_none():
    params = make_params(m1=4, m2=2)
    ref = encode_symbols("AAAACCCC")
    idx = KmerIndex(ref, 4)
    assert longest_at(idx, encode_symbols("GTGTGTGT"), 0, params) is None


def test_tie_break_on_repetitive_reference():
    params = make_params(m1=4, m2=2)
    ref = np.zeros(8, dtype=np.uint8)  # AAAAAAAA
    idx = KmerIndex(ref, 4)
    seq = np.zeros(8, dtype=np.uint8)
    got = longest_at(idx, seq, 0, params)
    # candidates 0..4; position 0 covers all 8 and minimizes |pos - ref_pos|
    assert got.position == 0 and got.lengths == (8,)


def test_tie_break_prefers_cheaper_delta():
    # two copies of one segment: both candidates cover all 40 symbols, so
    # only the delta cost against a nonzero previous delta separates them
    rng = np.random.default_rng(31)
    params = make_params()
    ref = rng.integers(0, 4, 1000).astype(np.uint8)
    ref[600:640] = ref[100:140]
    idx = KmerIndex(ref, params.m1)
    seq = ref[100:140].copy()
    for prev_delta, want in ((-600, 600), (-100, 100), (-560, 600)):
        got = longest_at(idx, seq, 0, params, prev_delta)
        assert got.lengths == (40,)
        assert got.position == want
        assert brute_force_best(ref, seq, 0, params, prev_delta)[0] == want


def test_longest_match_against_oracle_fuzz():
    rng = np.random.default_rng(21)
    params = make_params(m1=5, m2=2)
    for _ in range(150):
        ref = rng.integers(0, 4, int(rng.integers(10, 120))).astype(np.uint8)
        if rng.random() < 0.3:
            ref[rng.integers(0, len(ref))] = N
        # derive a query from the reference so candidates actually exist
        seq = ref.copy()
        for _ in range(int(rng.integers(0, 4))):
            seq[rng.integers(0, len(seq))] = rng.integers(0, 5)
        pos = int(rng.integers(0, max(len(seq) - params.m1, 1)))
        idx = KmerIndex(ref, params.m1)
        got = longest_at(idx, seq, pos, params)
        want = brute_force_best(ref, seq, pos, params)
        if want is None:
            assert got is None
        else:
            assert got.advance == sum(want[1]) + len(want[2])
            assert (got.position, got.lengths, got.gap_symbols) == want


def _cand(position, cover):
    return Factor(MATCH, position, (cover,))


def test_choose_factor_prefers_cheap_offset_within_slack():
    # previous delta 300; best len 60 at distance 2000 -> |d| = 1700;
    # alt len 40 at distance 345 -> |d| = 45; 60-40 <= 28 -> prefer alt
    pos = 5000
    best = _cand(pos - 2000, 60)
    alt = _cand(pos - 345, 40)
    assert choose_factor(best, alt, 300, pos) is alt


def test_choose_factor_slack_exceeded():
    pos = 5000
    best = _cand(pos - 2000, 60)
    alt = _cand(pos - 345, 20)  # 60 - 20 > 28: keep the long match
    assert choose_factor(best, alt, 300, pos) is best


def test_choose_factor_twin_rule():
    pos = 5000
    best = _cand(pos - 2000, 80)  # expensive but longer by > 28
    alt = _cand(pos - 345, 40)
    assert choose_factor(best, alt, 300, pos) is best


def test_choose_factor_keeps_cheap_best():
    pos = 100
    best = _cand(60, 50)  # |d| = 40 < 64 already cheap
    alt = _cand(50, 45)
    assert choose_factor(best, alt, 0, pos) is best


def test_choose_factor_bounds_are_exact():
    # previous delta 300: |d| = 63 is cheap and 64 is not; a length
    # deficit of 28 is within the slack and 29 is not
    pos = 5000
    best = _cand(pos - 2000, 68)
    cheap = _cand(pos - 363, 40)
    assert choose_factor(best, cheap, 300, pos) is cheap
    assert choose_factor(best, _cand(pos - 364, 40), 300, pos) is best
    assert choose_factor(best, _cand(pos - 363, 39), 300, pos) is best
    assert choose_factor(_cand(pos - 364, 68), cheap, 300, pos) is cheap


def test_identical_sequence_single_factor():
    rng = np.random.default_rng(22)
    params = make_params()
    ref = rng.integers(0, 4, 4000).astype(np.uint8)
    idx = KmerIndex(ref, params.m1)
    parse = parse_sequence(idx, ref.copy(), params)
    assert len(parse.factors) == 1
    f = parse.factors[0]
    assert f.kind == MATCH and f.position == 0 and f.lengths == (4000,)
    assert np.array_equal(apply_parse(parse, ref), ref)


def test_all_n_sequence_single_nrun():
    rng = np.random.default_rng(23)
    params = make_params()
    ref = rng.integers(0, 4, 200).astype(np.uint8)
    idx = KmerIndex(ref, params.m1)
    seq = np.full(40, N, dtype=np.uint8)
    parse = parse_sequence(idx, seq, params)
    assert [f.kind for f in parse.factors] == [NRUN]
    assert parse.factors[0].lengths == (40,)
    assert np.array_equal(apply_parse(parse, ref), seq)


def test_short_n_run_stays_literal():
    rng = np.random.default_rng(24)
    params = make_params()
    ref = rng.integers(0, 4, 500).astype(np.uint8)
    idx = KmerIndex(ref, params.m1)
    seq = ref.copy()
    seq[100:105] = N  # run of 5 < m1
    parse = parse_sequence(idx, seq, params)
    assert NRUN not in [f.kind for f in parse.factors]
    assert np.array_equal(apply_parse(parse, ref), seq)


class SinkRecorder:
    def __init__(self, index, seq_index=0):
        self.index = index
        self.prov = ReservoirProvenance()
        self.seq_index = seq_index
        self.calls = []

    def __call__(self, run, source_pos, hashes, n_free):
        self.calls.append((self.seq_index, source_pos, len(run)))
        want_hashes, want_free = hash_kmers(run, self.index.k)
        assert np.array_equal(hashes, want_hashes) and np.array_equal(n_free, want_free)
        offset = append_reservoir_phrase(
            self.prov, (self.seq_index, source_pos, len(run)), 32
        )
        self.index.extend_with_reservoir(run, self.index.ref_len + offset, hashes, n_free)


def test_novel_segment_enters_reservoir_and_later_sequence_matches_it():
    rng = np.random.default_rng(25)
    params = make_params()
    ref = rng.integers(0, 4, 2000).astype(np.uint8)
    novel = rng.integers(0, 4, 64).astype(np.uint8)
    # make sure the novel segment shares no m1-gram with the reference
    novel[::7] = 3
    idx = KmerIndex(ref, params.m1)
    while longest_at(idx, novel, 0, params) is not None:
        novel = rng.integers(0, 4, 64).astype(np.uint8)

    seq_a = np.concatenate([ref[:900], novel, ref[900:]])
    sink = SinkRecorder(idx)
    parse_a = parse_sequence(idx, seq_a, params, sink)
    assert sink.calls, "novel run should have entered the reservoir"
    assert np.array_equal(
        apply_parse(parse_a, ref, np.frombuffer(bytes(idx.res), dtype=np.uint8)), seq_a
    )

    seq_b = np.concatenate([ref[1200:1900], novel, ref[100:800]])
    sink.seq_index = 1
    parse_b = parse_sequence(idx, seq_b, params, sink)
    kinds = [f.kind for f in parse_b.factors]
    assert RESERVOIR in kinds
    res_factor = parse_b.factors[kinds.index(RESERVOIR)]
    assert res_factor.position == 0  # first phrase in the reservoir
    assert np.array_equal(
        apply_parse(parse_b, ref, np.frombuffer(bytes(idx.res), dtype=np.uint8)), seq_b
    )


def test_runs_shorter_than_m3_never_enter_reservoir():
    rng = np.random.default_rng(26)
    params = make_params()
    ref = rng.integers(0, 4, 1000).astype(np.uint8)
    idx = KmerIndex(ref, params.m1)
    novel = rng.integers(0, 4, 20).astype(np.uint8)  # < m3
    seq = np.concatenate([ref[:400], novel, ref[400:]])
    sink = SinkRecorder(idx)
    parse = parse_sequence(idx, seq, params, sink)
    short_runs = [
        f for f in parse.factors if f.kind == LITERAL and f.lengths[0] < params.m3
    ]
    assert all(c[2] >= params.m3 for c in sink.calls)
    assert short_runs or not sink.calls


def test_trailing_literal_run_enters_reservoir():
    rng = np.random.default_rng(27)
    params = make_params()
    ref = rng.integers(0, 2, 600).astype(np.uint8)
    idx = KmerIndex(ref, params.m1)
    tail = np.full(50, 3, dtype=np.uint8)  # T-run, absent from A/C reference
    seq = np.concatenate([ref[:300], tail])
    sink = SinkRecorder(idx)
    parse_sequence(idx, seq, params, sink)
    assert sink.calls and sink.calls[-1][2] >= 50


def test_tiling_and_geometry_fuzz():
    rng = np.random.default_rng(28)
    params = make_params()
    for _ in range(40):
        n = int(rng.integers(200, 4000))
        ref = rng.integers(0, 4, n).astype(np.uint8)
        seq = mutate(rng, ref)
        idx = KmerIndex(ref, params.m1)
        sink = SinkRecorder(idx)
        parse = parse_sequence(idx, seq, params, sink)
        validate_parse(parse, params)
        res = np.frombuffer(bytes(idx.res), dtype=np.uint8)
        assert np.array_equal(apply_parse(parse, ref, res), seq)


def mutate(rng, ref):
    seq = ref.copy()
    # SNPs
    m = int(len(seq) * rng.uniform(0, 0.03))
    if m:
        at = rng.choice(len(seq), m, replace=False)
        seq[at] = (seq[at] + rng.integers(1, 4, m)) % 4
    parts = [seq]
    # one indel
    if rng.random() < 0.5 and len(seq) > 100:
        cut = int(rng.integers(0, len(seq) - 50))
        if rng.random() < 0.5:
            parts = [seq[:cut], rng.integers(0, 5, int(rng.integers(1, 80))).astype(np.uint8), seq[cut:]]
        else:
            parts = [seq[:cut], seq[cut + int(rng.integers(1, 50)) :]]
    out = np.concatenate(parts)
    # N-run
    if rng.random() < 0.4 and len(out) > 60:
        at = int(rng.integers(0, len(out) - 50))
        out[at : at + int(rng.integers(1, 50))] = N
    return out


def test_snp_economy_small():
    rng = np.random.default_rng(29)
    params = make_params()
    n, m = 20000, 12
    ref = rng.integers(0, 4, n).astype(np.uint8)
    gap = params.m1 + params.m2
    positions = np.linspace(3 * gap, n - 3 * gap, m).astype(int)
    assert (np.diff(positions) > gap).all()
    seq = ref.copy()
    seq[positions] = (seq[positions] + 1) % 4
    idx = KmerIndex(ref, params.m1)
    parse = parse_sequence(idx, seq, params)
    offset_bearing = [f for f in parse.factors if f.kind != LITERAL]
    assert len(offset_bearing) <= -(-m // 2) + 1
    loose = sum(
        len(f.gap_symbols) + (f.lengths[0] if f.kind == LITERAL else 0)
        for f in parse.factors
    )
    assert loose == m
    assert np.array_equal(apply_parse(parse, ref), seq)


def test_empty_parse_and_literal_only():
    params = make_params()
    idx = KmerIndex(np.zeros(0, dtype=np.uint8), params.m1)
    parse = parse_sequence(idx, np.zeros(0, dtype=np.uint8), params)
    assert parse.factors == [] and parse.source_length == 0
    assert len(apply_parse(parse, np.zeros(0, dtype=np.uint8))) == 0

    seq = encode_symbols("ACGT")
    parse = parse_sequence(idx, seq, params)
    assert [f.kind for f in parse.factors] == [LITERAL]
    assert np.array_equal(apply_parse(parse, None), seq)


def test_params_validation():
    with pytest.raises(ValueError):
        make_params(m1=4, m2=4)
    with pytest.raises(ValueError):
        make_params(m3=10)


def test_gap_bound_never_exceeded():
    rng = np.random.default_rng(30)
    params = make_params(m1=6, m2=2, m3=32)
    for _ in range(30):
        ref = rng.integers(0, 4, 800).astype(np.uint8)
        seq = mutate(rng, ref)
        idx = KmerIndex(ref, params.m1)
        parse = parse_sequence(idx, seq, params)
        for f in parse.factors:
            assert len(f.gap_symbols) <= 2
            if f.kind in (MATCH, RESERVOIR):
                assert f.lengths[0] >= params.m1
                assert all(L >= params.m2 for L in f.lengths[1:])
