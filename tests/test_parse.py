import numpy as np
import pytest

import rlzg.parse
from rlzg.genome import N, encode_symbols
from rlzg.kmer import KmerIndex, common_prefix, hash_kmers
from rlzg.parse import (
    GAP_LIMIT,
    LITERAL,
    MATCH,
    NRUN,
    RESERVOIR,
    Parse,
    ParseParams,
    _Diagonals,
    _evaluate,
    _n_runs,
    _parse_columns,
    apply_parse,
    choose_factor,
    parse_sequence,
    validate_parse,
)
from rlzg.refstore import append_reservoir_phrase
from rlzg.synthetic import (
    apply_indels,
    apply_n_runs,
    apply_snps,
    insert_segments,
    random_reference,
)


def make_params(**kw):
    p = ParseParams(**kw)
    p.validate()
    return p


def longest_at(idx, seq, pos, params, prev_delta=0):
    """The longest row ``_evaluate`` makes of the candidates for the
    gram at ``pos``, looked up as ``parse_sequence`` does; None when the
    gram holds N or no candidate reaches m1."""
    seq = np.asarray(seq, dtype=np.uint8)
    hashes, n_free = hash_kmers(seq, params.m1)
    if pos >= len(hashes) or not n_free[pos]:
        return None
    sb = seq.tobytes()
    positions = idx.lookup(int(hashes[pos]), sb[pos : pos + params.m1])
    best, _ = _evaluate(_Diagonals(idx, seq), pos, params, prev_delta, positions)
    return best


def row_pieces(row):
    """The piece lengths of an ``_evaluate`` row, without the zeros past
    its last piece."""
    return tuple(L for L in row[2:5] if L)


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
    assert (got[0], got[1], row_pieces(got)) == (MATCH, want[0], want[1])
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
    assert got[1] == 0 and row_pieces(got) == (8,)


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
        assert row_pieces(got) == (40,)
        assert got[1] == want
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
            assert got[5] == sum(want[1]) + len(want[2])
            assert (got[1], row_pieces(got)) == want[:2]


def _cand(position, cover, pos, prev_delta):
    """An ``_evaluate`` row of a one-piece MATCH at ``position`` for
    source ``pos``, priced against ``prev_delta``."""
    return (MATCH, position, cover, 0, 0, cover, abs(pos - position - prev_delta))


def test_choose_factor_prefers_cheap_offset_within_slack():
    # previous delta 300; best len 60 at distance 2000 -> |d| = 1700;
    # alt len 40 at distance 345 -> |d| = 45; 60-40 <= 28 -> prefer alt
    pos = 5000
    best = _cand(pos - 2000, 60, pos, 300)
    alt = _cand(pos - 345, 40, pos, 300)
    assert choose_factor(best, alt) is alt


def test_choose_factor_slack_exceeded():
    pos = 5000
    best = _cand(pos - 2000, 60, pos, 300)
    alt = _cand(pos - 345, 20, pos, 300)  # 60 - 20 > 28: keep the long match
    assert choose_factor(best, alt) is best


def test_choose_factor_twin_rule():
    pos = 5000
    best = _cand(pos - 2000, 80, pos, 300)  # expensive but longer by > 28
    alt = _cand(pos - 345, 40, pos, 300)
    assert choose_factor(best, alt) is best


def test_choose_factor_keeps_cheap_best():
    pos = 100
    best = _cand(60, 50, pos, 0)  # |d| = 40 < 64 already cheap
    alt = _cand(50, 45, pos, 0)
    assert choose_factor(best, alt) is best


def test_choose_factor_bounds_are_exact():
    # previous delta 300: |d| = 63 is cheap and 64 is not; a length
    # deficit of 28 is within the slack and 29 is not
    pos = 5000
    best = _cand(pos - 2000, 68, pos, 300)
    cheap = _cand(pos - 363, 40, pos, 300)
    assert choose_factor(best, cheap) is cheap
    assert choose_factor(best, _cand(pos - 364, 40, pos, 300)) is best
    assert choose_factor(best, _cand(pos - 363, 39, pos, 300)) is best
    assert choose_factor(_cand(pos - 364, 68, pos, 300), cheap) is cheap


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
    def __init__(self, index, seq_index=0, m3=32):
        self.index = index
        self.rows = []
        self.seq_index = seq_index
        self.m3 = m3
        self.calls = []

    def __call__(self, run, source_pos, hashes, n_free):
        self.calls.append((self.seq_index, source_pos, len(run)))
        want_hashes, want_free = hash_kmers(run, self.index.k)
        assert np.array_equal(hashes, want_hashes) and np.array_equal(n_free, want_free)
        append_reservoir_phrase(self.rows, (self.seq_index, source_pos, len(run)), self.m3)
        self.index.extend_with_reservoir(run, hashes, n_free)


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


def scalar_extend(index, sb, pos, cand, n, m2):
    """Oracle for the diagonal windows: one candidate extended by scalar
    ``common_prefix`` calls.  Reference matches stop at the reference
    end, reservoir matches at the reservoir's current end."""
    if cand < index.ref_len:
        buf, boff = index.ref_bytes, cand
    else:
        buf, boff = index.res, cand - index.ref_len
    room = len(buf) - boff
    pieces = []
    sp, bp = pos, 0
    L = common_prefix(buf, boff, sb, sp, min(n - sp, room))
    pieces.append(L)
    sp += L
    bp += L
    while len(pieces) <= GAP_LIMIT:
        if sp >= n or bp >= room:
            break
        L = common_prefix(buf, boff + bp + 1, sb, sp + 1, min(n - sp - 1, room - bp - 1))
        if L < m2:
            break
        pieces.append(L)
        sp, bp = sp + 1 + L, bp + 1 + L
    return tuple(pieces)


def scalar_parse(index, seq, params, reservoir_sink=None) -> Parse:
    """Oracle for parse_sequence: the parse loop that hashes every gram
    of the source up front, looks up every position it visits, extends
    every candidate with ``scalar_extend`` and prices it in a row of its
    own making for ``choose_factor``.  After a match it first tries the
    same diagonal one symbol past the mismatch: when the gram there is
    N-free and its ``scalar_extend`` first piece reaches m1, the
    mismatch is a 1-symbol literal and that match follows, with no
    lookup."""
    s = np.asarray(seq, dtype=np.uint8)
    n, k, sb = len(s), params.m1, s.tobytes()
    qhash, qfree = hash_kmers(s, k)
    edges = np.flatnonzero(np.diff(np.concatenate(([0], (s == N).view(np.int8), [0]))))
    n_run_at = {a: b - a for a, b in zip(edges[0::2].tolist(), edges[1::2].tolist()) if b - a >= k}
    rows = []
    pos = lit_start = 0
    last_match_delta, last_match_window = 0, -1

    def close_literal(upto):
        nonlocal lit_start
        if upto > lit_start:
            rows.append((LITERAL, lit_start, 0, upto - lit_start, 0, 0))
            if reservoir_sink is not None and upto - lit_start >= params.m3:
                grams = slice(lit_start, upto - k + 1)
                reservoir_sink(s[lit_start:upto], lit_start, qhash[grams], qfree[grams])
        lit_start = upto

    while pos < n:
        if pos in n_run_at:
            close_literal(pos)
            rows.append((NRUN, pos, 0, n_run_at[pos], 0, 0))
            pos += n_run_at[pos]
            lit_start = pos
            continue
        chosen = None
        if pos < len(qhash) and qfree[pos]:
            positions = index.lookup(int(qhash[pos]), sb[pos : pos + k])
            pred = last_match_delta if pos // params.checkpoint_interval == last_match_window else 0
            best = cheap = best_key = cheap_key = None
            for p in positions:
                pieces = scalar_extend(index, sb, pos, p, n, params.m2)
                cover = sum(pieces) + len(pieces) - 1
                if p < index.ref_len:
                    kind, at, absd = MATCH, p, abs(pos - p - pred)
                else:
                    kind, at, absd = RESERVOIR, p - index.ref_len, float("inf")
                if absd >= 64 and cover < params.m3:
                    continue  # far and shorter than m3: passed up
                row = (kind, at) + (pieces + (0, 0))[:3] + (cover, absd)
                key = (-cover, absd, p)
                if best_key is None or key < best_key:
                    best, best_key = row, key
                if absd < 64 and (cheap_key is None or key < cheap_key):
                    cheap, cheap_key = row, key
            chosen = choose_factor(best, cheap)
        if chosen is None:
            pos += 1
            continue
        close_literal(pos)
        diagonal = chosen[1] + (index.ref_len if chosen[0] == RESERVOIR else 0) - pos
        while chosen is not None:
            rows.append((chosen[0], pos) + chosen[1:5])
            if chosen[0] == MATCH:
                last_match_delta = pos - chosen[1]
                last_match_window = pos // params.checkpoint_interval
            pos += chosen[5]
            # past the mismatch, the same diagonal is tried before any lookup
            chosen, nxt = None, pos + 1
            cand = nxt + diagonal
            if pos not in n_run_at and nxt < len(qhash) and qfree[nxt] and cand < index.ext_len:
                pieces = scalar_extend(index, sb, nxt, cand, n, params.m2)
                if pieces[0] >= k:
                    rows.append((LITERAL, pos, 0, 1, 0, 0))
                    pos = nxt
                    if cand < index.ref_len:
                        kind, at = MATCH, cand
                    else:
                        kind, at = RESERVOIR, cand - index.ref_len
                    cover = sum(pieces) + len(pieces) - 1
                    chosen = (kind, at) + (pieces + (0, 0))[:3] + (cover,)
        lit_start = pos
    close_literal(n)
    return Parse(_parse_columns(s, rows), n)


def diagonal_steps(c, ref_len):
    """Mask of the factors the diagonal step takes: matches that follow a
    1-symbol literal after a match on the same diagonal."""
    matchlike = (c.kind == MATCH) | (c.kind == RESERVOIR)
    diagonal = c.position + np.where(c.kind == RESERVOIR, ref_len, 0) - c.start
    out = np.zeros(len(c), dtype=bool)
    out[2:] = (
        matchlike[2:]
        & matchlike[:-2]
        & (c.kind[1:-1] == LITERAL)
        & (c.advance[1:-1] == 1)
        & (diagonal[2:] == diagonal[:-2])
    )
    return out


def differential_collection(rng):
    """A reference with tandem repeats and N stretches, and members with
    SNPs, indels, N-runs and novel segments, long ones included, drawn
    from a pool they share."""
    ref = random_reference(rng, int(rng.integers(3000, 20000)))
    for _ in range(3):
        at, unit = int(rng.integers(0, len(ref) - 600)), int(rng.integers(1, 8))
        ref[at : at + 600] = np.tile(ref[at : at + unit], -(-600 // unit))[:600]
    ref = apply_n_runs(rng, ref, int(rng.integers(0, 3)), 60)
    pool = [random_reference(rng, int(L)) for L in rng.choice([20, 40, 90, 700, 3000], 5)]
    novel = random_reference(rng, 1500)
    forced = [
        # an N-run amid novel symbols, where the parser skips ahead
        np.concatenate([novel[:300], np.full(30, N, dtype=np.uint8), novel[300:700]]),
        # a phrase that enters the reservoir and recurs in the same
        # hashed window, after the match that closed its run
        np.concatenate([novel, ref[100:300], novel]),
    ]
    members = []
    for i in range(3):
        m = apply_snps(rng, ref, float(rng.choice([0.0, 0.001, 0.01, 0.04])))
        m = apply_indels(rng, m, int(rng.integers(0, 6)))
        segments = [pool[j] for j in rng.integers(0, len(pool), 3)]
        m = insert_segments(rng, m, segments + (forced if i == 0 else []))
        members.append(apply_n_runs(rng, m, int(rng.integers(0, 4)), 80))
    return ref, members


@pytest.mark.parametrize("seed", range(8))
def test_parse_matches_scalar_parse(seed):
    rng = np.random.default_rng(500 + seed)
    ref, members = differential_collection(rng)
    m1 = int(rng.choice([8, 13, 20]))
    params = make_params(
        m1=m1,
        m2=int(rng.integers(2, 6)),
        m3=m1 + int(rng.choice([0, 19, 60])),
        candidate_cap=int(rng.choice([2, 4, 128])),
        checkpoint_interval=int(rng.choice([64, 8192])),
    )
    sides = []
    for parse_fn in (parse_sequence, scalar_parse):
        idx = KmerIndex(ref, params.m1, params.candidate_cap)
        sink = SinkRecorder(idx, m3=params.m3)
        parses = []
        for i, m in enumerate(members):
            sink.seq_index = i
            parses.append(parse_fn(idx, m, params, sink))
        sides.append((parses, sink.calls, idx))
    (got, got_calls, idx), (want, want_calls, _) = sides
    assert got_calls == want_calls
    for g, w, m in zip(got, want, members):
        for name in ("kind", "start", "advance", "position", "pieces", "lit_off", "lits"):
            assert np.array_equal(getattr(g.columns, name), getattr(w.columns, name)), name
        res = np.frombuffer(bytes(idx.res), dtype=np.uint8)
        assert np.array_equal(apply_parse(g, ref, res), m)
    kinds = np.concatenate([g.columns.kind for g in got])
    assert {LITERAL, MATCH} <= set(kinds.tolist())
    # hashed search, not only the diagonal step, chooses matches in each member
    for g in got:
        searched = (g.columns.kind == MATCH) & ~diagonal_steps(g.columns, len(ref))
        assert np.count_nonzero(searched) >= 2


def test_differential_collections_reach_every_case():
    """The differential's collections produce reservoir matches, N-runs,
    capped lookups and literal runs long enough for hashed windows that
    double."""
    kinds, capped, longest = set(), 0, 0
    for seed in range(8):
        rng = np.random.default_rng(500 + seed)
        ref, members = differential_collection(rng)
        params = make_params(candidate_cap=2)
        idx = KmerIndex(ref, params.m1, params.candidate_cap)
        sizes = []
        lookup = idx.lookup

        def counted(h, gram):
            out = lookup(h, gram)
            sizes.append(len(out))
            return out

        idx.lookup = counted
        sink = SinkRecorder(idx)
        for i, m in enumerate(members):
            sink.seq_index = i
            c = parse_sequence(idx, m, params, sink).columns
            kinds |= set(c.kind.tolist())
            longest = max([longest] + c.pieces[c.kind == LITERAL, 0].tolist())
        capped += sizes.count(params.candidate_cap)
    assert kinds == {LITERAL, MATCH, NRUN, RESERVOIR}
    assert capped and longest > 2 * rlzg.parse._MIN_HASH_WINDOW


def test_n_runs_are_maximal_runs():
    rng = np.random.default_rng(42)
    for _ in range(200):
        s = rng.integers(0, 4, int(rng.integers(0, 80))).astype(np.uint8)
        s[rng.random(len(s)) < rng.random()] = N
        min_len = int(rng.integers(1, 6))
        want, run = {}, None
        for i, c in enumerate(s.tolist() + [0]):
            if c == N and run is None:
                run = i
            elif c != N and run is not None:
                if i - run >= min_len:
                    want[run] = i - run
                run = None
        assert _n_runs(s, min_len) == want


def test_extension_across_window_refills_matches_oracle():
    rng = np.random.default_rng(43)
    params = make_params()
    ref = random_reference(rng, 150_000)
    seq = ref.copy()
    for at in (66_000, 140_000, 140_010, 140_500):
        seq[at] = (seq[at] + 1) % 4
    seq[145_000:145_040] = random_reference(rng, 40)
    idx = KmerIndex(ref, params.m1)
    diagonals = _Diagonals(idx, seq)
    pos = 0
    while pos < len(seq):
        # the parser's order: one factor after another along the diagonal
        want = brute_force_extend(ref, seq, pos, pos, params)[0]
        got = diagonals.extend(pos, pos, params.m2)
        assert got == want, pos
        pos += sum(got) + len(got)
    first = brute_force_extend(ref, seq, 0, 0, params)[0]
    assert first == (66_000, 140_000 - 66_001, 9)  # two pieces past 64 Ki
    assert len(diagonals.windows) == 1


def test_extension_on_random_diagonals_matches_oracle():
    rng = np.random.default_rng(44)
    params = make_params(m1=6, m2=2)
    ref = random_reference(rng, 3000)
    ref[1000:1400] = np.tile(ref[1000:1003], 134)[:400]
    seq = apply_snps(rng, ref, 0.02)
    idx = KmerIndex(ref, params.m1)
    diagonals = _Diagonals(idx, seq)
    for pos in sorted(rng.integers(0, len(seq), 300).tolist()):
        for d in (0, 1, -3, 2):
            if 0 <= pos + d < len(ref):
                want = brute_force_extend(ref, seq, pos, pos + d, params)[0]
                assert diagonals.extend(pos, pos + d, params.m2) == want


def test_reservoir_diagonal_filled_before_the_reservoir_grew():
    rng = np.random.default_rng(45)
    params = make_params()
    idx = KmerIndex(random_reference(rng, 1000), params.m1)
    first, second = random_reference(rng, 300), random_reference(rng, 400)
    seq = np.concatenate([first, second, random_reference(rng, 100)])
    seq[450] = (seq[450] + 1) % 4
    idx.extend_with_reservoir(first, *hash_kmers(first, params.m1))
    diagonals = _Diagonals(idx, seq)
    res = np.frombuffer(bytes(idx.res), dtype=np.uint8)
    # the reservoir ends where ``first`` does: so does the match
    got = diagonals.extend(0, idx.ref_len, params.m2)
    assert got == brute_force_extend(res, seq, 0, 0, params)[0] == (300,)
    idx.extend_with_reservoir(second, *hash_kmers(second, params.m1))
    res = np.frombuffer(bytes(idx.res), dtype=np.uint8)
    got = diagonals.extend(100, idx.ref_len + 100, params.m2)
    assert got == brute_force_extend(res, seq, 100, 100, params)[0] == (350, 249)


def test_parse_hashes_only_what_it_probes(monkeypatch):
    """A member close to its reference is parsed with hashed windows
    covering under a tenth of it: no whole-member hashing."""
    rng = np.random.default_rng(46)
    params = make_params()
    ref = random_reference(rng, 200_000)
    seq = apply_snps(rng, ref, 0.001)
    idx = KmerIndex(ref, params.m1)
    hashed = []
    real = rlzg.parse.hash_kmers

    def counting(symbols, k):
        out = real(symbols, k)
        hashed.append(len(out[0]))
        return out

    monkeypatch.setattr(rlzg.parse, "hash_kmers", counting)
    parse = parse_sequence(idx, seq, params)
    assert np.array_equal(apply_parse(parse, ref), seq)
    assert sum(hashed) < 0.1 * len(seq)


def with_snps(ref, *at):
    seq = ref.copy()
    seq[list(at)] = (seq[list(at)] + 1) % 4
    return seq


def looked_up(idx):
    """The grams ``idx.lookup`` is asked for from now on, in order."""
    grams, lookup = [], idx.lookup

    def recording(h, gram):
        grams.append(gram)
        return lookup(h, gram)

    idx.lookup = recording
    return grams


def test_diagonal_step_passes_up_a_far_match_at_the_mismatch():
    """The SNP-spanning gram at the mismatch has a long far copy; the
    parse still goes on along its diagonal past the SNP."""
    rng = np.random.default_rng(47)
    params = make_params()
    ref = random_reference(rng, 3000)
    seq = with_snps(ref[:1000], 100, 200, 300)
    ref[2000:2060] = seq[300:360]
    idx = KmerIndex(ref, params.m1)
    far = longest_at(idx, seq, 300, params)
    assert far[:2] == (MATCH, 2000) and far[5] >= 60
    grams = looked_up(idx)
    c = parse_sequence(idx, seq, params).columns
    assert grams == [seq[: params.m1].tobytes()]  # the step looks nothing up
    assert c.kind.tolist() == [MATCH, LITERAL, MATCH]
    assert c.start.tolist() == [0, 300, 301]
    assert c.position.tolist() == [0, 0, 301]
    assert c.pieces[0].tolist() == [100, 99, 99] and c.pieces[1, 0] == 1
    assert diagonal_steps(c, len(ref)).tolist() == [False, False, True]
    assert np.array_equal(apply_parse(Parse(c, len(seq)), ref), seq)


def test_diagonal_step_stops_at_n():
    """No step when an N-run starts at the mismatch or the gram past it
    holds N, even where the reference has the same N along the diagonal."""
    rng = np.random.default_rng(48)
    params = make_params()
    ref = random_reference(rng, 1000)
    ref[301:331] = N
    seq = with_snps(ref, 100, 200)
    seq[300] = N  # an N-run of 31 starts at the third mismatch
    idx = KmerIndex(ref, params.m1)
    c = parse_sequence(idx, seq, params).columns
    assert c.kind.tolist() == [MATCH, NRUN, MATCH]
    assert c.start.tolist() == [0, 300, 331] and c.position[2] == 331

    ref = random_reference(rng, 1000)
    ref[305] = N
    seq = with_snps(ref, 100, 200, 300)
    idx = KmerIndex(ref, params.m1)
    c = parse_sequence(idx, seq, params).columns
    # hashed search resumes at the first N-free gram, past the N
    assert c.kind.tolist() == [MATCH, LITERAL, MATCH]
    assert c.start.tolist() == [0, 300, 306] and c.position[2] == 306
    assert np.array_equal(apply_parse(Parse(c, len(seq)), ref), seq)


def test_indel_breaks_the_diagonal_and_hashed_search_finds_the_shift():
    rng = np.random.default_rng(49)
    params = make_params()
    ref = random_reference(rng, 2000)
    seq = np.concatenate([with_snps(ref[:300], 100, 200), ref[310:1000]])  # 10 deleted
    idx = KmerIndex(ref, params.m1)
    c = parse_sequence(idx, seq, params).columns
    assert c.kind.tolist() == [MATCH, MATCH]
    assert (c.position - c.start).tolist() == [0, 10]
    assert not diagonal_steps(c, len(ref)).any()
    assert np.array_equal(apply_parse(Parse(c, len(seq)), ref), seq)


def test_reservoir_match_steps_along_its_reservoir_diagonal():
    rng = np.random.default_rng(50)
    params = make_params()
    ref = random_reference(rng, 2000)
    novel = random_reference(rng, 400)
    idx = KmerIndex(ref, params.m1)
    assert all(longest_at(idx, novel, p, params) is None for p in range(0, 388, 20))
    sink = SinkRecorder(idx)
    parse_sequence(idx, np.concatenate([ref[:500], novel, ref[500:1000]]), params, sink)
    assert sink.calls == [(0, 500, 400)]
    sink.seq_index = 1
    seq = np.concatenate([ref[1000:1200], with_snps(novel, 100, 200, 300), ref[1200:1400]])
    grams = looked_up(idx)
    c = parse_sequence(idx, seq, params, sink).columns
    assert not {seq[p : p + params.m1].tobytes() for p in (500, 501)} & set(grams)
    assert c.kind.tolist()[:4] == [MATCH, RESERVOIR, LITERAL, RESERVOIR]
    assert c.start.tolist()[2:4] == [500, 501]
    assert (c.position - c.start)[[1, 3]].tolist() == [-200, -200]
    assert diagonal_steps(c, len(ref)).tolist()[3]
    res = np.frombuffer(bytes(idx.res), dtype=np.uint8)
    assert np.array_equal(apply_parse(Parse(c, len(seq)), ref, res), seq)


def copy_in_novel(rng, ref, buf, at, length):
    """``ref[:1000]``, 400 novel symbols, ``ref[1000:2000]``, with
    ``buf[at : at + length]`` copied into the novel ones at source 1200.
    The symbols around each copy differ from those its match reads next,
    so a match of the copy covers it exactly (no gap either)."""
    seq = np.concatenate([ref[:1000], random_reference(rng, 400), ref[1000:2000]])
    seq[1200 : 1200 + length] = buf[at : at + length]
    flanks = (
        (1000, ref[1000]), (1001, ref[1001]), (1399, ref[999]),
        (1199, buf[at - 1]), (1200 + length, buf[at + length]),
        (1201 + length, buf[at + length + 1]),
    )
    for p, sym in flanks:
        if seq[p] == sym:
            seq[p] = (sym + 1) % 4
    return seq


@pytest.mark.parametrize("length", [16, 31, 32, 40])
def test_far_copy_shorter_than_m3_stays_literal(length):
    """A far copy inside a novel segment is a match only from m3 (32)
    symbols on; shorter, its offset would cost more than it saves."""
    rng = np.random.default_rng(51)
    params = make_params()
    ref = random_reference(rng, 5000)
    seq = copy_in_novel(rng, ref, ref, 4000, length)
    idx = KmerIndex(ref, params.m1)
    c = parse_sequence(idx, seq, params).columns
    assert np.array_equal(apply_parse(Parse(c, len(seq)), ref), seq)
    if length < params.m3:
        assert longest_at(idx, seq, 1200, params) is None
        assert c.kind.tolist() == [MATCH, LITERAL, MATCH]
        assert c.start.tolist() == [0, 1000, 1400]
    else:
        assert c.kind.tolist() == [MATCH, LITERAL, MATCH, LITERAL, MATCH]
        assert c.start.tolist() == [0, 1000, 1200, 1200 + length, 1400]
        assert c.position[2] == 4000 and c.advance[2] == length


@pytest.mark.parametrize("length", [13, 31])
def test_near_match_shorter_than_m3_is_taken(length):
    """A match of m1..m3 symbols whose offset is cheap (a delta within
    the bound of the previous match's) is still taken."""
    rng = np.random.default_rng(52)
    params = make_params()
    ref = random_reference(rng, 5000)
    seq = copy_in_novel(rng, ref, ref, 1200 - 40, length)
    idx = KmerIndex(ref, params.m1)
    c = parse_sequence(idx, seq, params).columns
    assert c.kind.tolist() == [MATCH, LITERAL, MATCH, LITERAL, MATCH]
    assert c.start.tolist() == [0, 1000, 1200, 1200 + length, 1400]
    assert c.position[2] == 1160 and c.advance[2] == length
    assert np.array_equal(apply_parse(Parse(c, len(seq)), ref), seq)


@pytest.mark.parametrize("length", [20, 32])
def test_reservoir_hit_shorter_than_m3_is_passed_up(length):
    """Every reservoir offset is far: a reservoir hit is a match only
    from m3 symbols on."""
    rng = np.random.default_rng(53)
    params = make_params()
    ref = random_reference(rng, 5000)
    idx = KmerIndex(ref, params.m1)
    phrase = random_reference(rng, 300)
    idx.extend_with_reservoir(phrase, *hash_kmers(phrase, params.m1))
    seq = copy_in_novel(rng, ref, phrase, 100, length)
    c = parse_sequence(idx, seq, params).columns
    res = np.frombuffer(bytes(idx.res), dtype=np.uint8)
    assert np.array_equal(apply_parse(Parse(c, len(seq)), ref, res), seq)
    if length < params.m3:
        assert longest_at(idx, seq, 1200, params) is None
        assert c.kind.tolist() == [MATCH, LITERAL, MATCH]
    else:
        assert c.kind.tolist() == [MATCH, LITERAL, RESERVOIR, LITERAL, MATCH]
        assert c.position[2] == 100 and c.advance[2] == length
