import numpy as np
import pytest

from rlzg.errors import CorruptArchiveError
from rlzg.genome import N
from rlzg.kmer import KmerIndex
from rlzg.parse import (
    LITERAL,
    MATCH,
    NRUN,
    RESERVOIR,
    Factor,
    ParseParams,
    apply_parse,
    parse_sequence,
)
from rlzg.packing import pack_triplets
from rlzg.streams import (
    FLG,
    LEN,
    LIT,
    N_MODELS,
    NRUN_CLASS,
    OFF,
    RES_CLASS,
    ModelSet,
    RawStreams,
    SequenceDecoder,
    build_models,
    compress_streams,
    encode_parse,
)

from factor_lists import parse_of, random_member


def params(**kw):
    p = ParseParams(**kw)
    p.validate()
    return p


def lit(symbols):
    arr = np.asarray(symbols, dtype=np.uint8)
    return Factor(LITERAL, lengths=(len(arr),), symbols=arr)


def match(position, lengths, gaps=()):
    return Factor(MATCH, position=position, lengths=tuple(lengths), gap_symbols=tuple(gaps))


def decode_from(coded, models, p, window, until):
    """Factor objects a fresh decoder returns from checkpoint ``window``
    until coverage reaches ``until``, plus the source position where that
    window resumes, which is the first factor's start."""
    cols, windows = SequenceDecoder(coded, models, p).factors_from(window, until)
    start = int(coded.start_source[window]) if coded.n_windows else 0
    assert windows == sorted(set(windows))
    assert len(cols) == 0 or (windows[0] == window and cols.start[0] == start)
    return cols.to_factors(), start


def roundtrip_factors(parse, p=None):
    p = p or params()
    raw = encode_parse(parse, p)
    models = build_models([raw])
    coded = compress_streams(raw, models)
    cols = SequenceDecoder(coded, models, p).prefetch_all()
    assert len(cols) == 0 or cols.start[0] == 0
    return cols.to_factors(), coded, models


def class_of(u: int, direct_bits: int, mantissa_bits: int) -> tuple[int, int, int]:
    """Scalar oracle of the class code: (symbol, extra bit count, extra
    bits) of an unsigned value."""
    if u < 1 << direct_bits:
        return u, 0, 0
    e = u.bit_length()
    nb = e - 1 - mantissa_bits
    mantissa = (u >> nb) - (1 << mantissa_bits)
    return (1 << direct_bits) + ((e - direct_bits - 1) << mantissa_bits) + mantissa, nb, u & ((1 << nb) - 1)


def length_class(v: int):
    return class_of(v - 1, 5, 2)


def delta_class(d: int):
    return class_of(2 * d if d >= 0 else -2 * d - 1, 6, 2)


def reservoir_class(r: int):
    sym, nb, extra = class_of(r, 1, 1)
    return RES_CLASS + sym, nb, extra


def test_offset_byte_for_zero_delta():
    # the factor starts at 0 against reference position 0: delta 0
    parse = parse_of([match(0, (400,))], 400)
    raw = encode_parse(parse, params())
    assert raw.symbols[OFF].tolist() == [0]
    assert raw.extra[OFF].tolist() == [0]


def test_offset_escape_positive():
    # first match sets delta 0; the second's d = +200 zigzags to 400, past
    # the direct symbols, into the class of bit length 9 and mantissa
    # 0b10: 384 + 6 extra bits
    p = params()
    f1 = match(0, (300,))
    f2 = match(100, (300,))  # starts at 300; delta 200; d = 200 - 0 = 200
    raw = encode_parse(parse_of([f1, f2], 600), p)
    assert raw.symbols[OFF].tolist() == [0, 64 + 2 * 4 + 2]
    assert raw.extra[OFF].tolist() == [0, 400 - 384]


def test_offset_escape_negative():
    # d = -200 leaves the direct symbols for the same class as +200
    p = params()
    f1 = match(0, (300,))
    f2 = match(500, (300,))  # delta -200, d = -200, zigzag 399
    raw = encode_parse(parse_of([f1, f2], 600), p)
    assert raw.symbols[OFF].tolist() == [0, 64 + 2 * 4 + 2]
    assert raw.extra[OFF].tolist() == [0, 399 - 384]


def test_flag_packing_order():
    p = params()
    factors = [
        lit(np.zeros(20, dtype=np.uint8)),
        match(0, (20,)),
        match(0, (20, 20), gaps=(1,)),
        match(0, (20, 20, 20), gaps=(1, 2)),
    ]
    total = sum(f.advance for f in factors)
    raw = encode_parse(parse_of(factors, total), p)
    assert raw.symbols[FLG].tolist() == [0 | 1 * 4 | 2 * 16 | 3 * 64]
    assert raw.symbols[FLG].tolist() == [228]


def test_nrun_marker_and_reservoir_record():
    p = params()
    factors = [
        Factor(NRUN, lengths=(40,)),
        Factor(RESERVOIR, position=77, lengths=(33,), gap_symbols=()),
    ]
    raw = encode_parse(parse_of(factors, 73), p)
    # reservoir offset 77: bit length 7, mantissa 0 -> 64 + 5 extra bits
    assert raw.symbols[OFF].tolist() == [NRUN_CLASS, RES_CLASS + 2 + 5 * 2]
    assert raw.extra[OFF].tolist() == [0, 77 - 64]
    # lengths less one: N-run 40 -> 39 and piece 33 -> 32, both in the
    # first class (32 + 3 extra bits)
    assert raw.symbols[LEN].tolist() == [32, 32]
    assert raw.extra[LEN].tolist() == [7, 0]


def test_length_escape():
    p = params()
    raw = encode_parse(parse_of([match(0, (1000,))], 1000), p)
    # 999 is past the direct symbols: bit length 10, mantissa 0b11 -> 896 + 7 extra bits
    assert raw.symbols[LEN].tolist() == [32 + 4 * 4 + 3]
    assert raw.extra[LEN].tolist() == [999 - 896]
    assert length_class(1000) == (51, 7, 103)


def test_stream_arity_invariant():
    rng = np.random.default_rng(40)
    p = params()
    factors = [
        lit(rng.integers(0, 5, 10)),
        match(5, (20,)),
        match(9, (20, 6), gaps=(2,)),
        Factor(NRUN, lengths=(15,)),
        Factor(RESERVOIR, position=0, lengths=(40, 4, 5), gap_symbols=(1, 3)),
        lit(rng.integers(0, 5, 300)),
    ]
    total = sum(f.advance for f in factors)
    raw = encode_parse(parse_of(factors, total), p)
    n_flags = int(raw.sym_counts[FLG][-1]) * 4  # packed; >= factor count
    assert len(factors) <= n_flags < len(factors) + 4
    assert int(raw.sym_counts[OFF][-1]) == 4  # matches + nrun + reservoir
    assert int(raw.sym_counts[LEN][-1]) == 1 + 1 + 2 + 1 + 3 + 1
    n_lit_syms = 10 + 1 + 2 + 300  # run symbols + gap symbols, packed per window
    assert int(raw.sym_counts[LIT][-1]) == -(-n_lit_syms // 3)


def test_factor_level_roundtrip_handmade():
    rng = np.random.default_rng(41)
    factors = [
        lit(rng.integers(0, 5, 7)),
        match(123, (25, 8), gaps=(3,)),
        Factor(NRUN, lengths=(300,)),
        match(90, (14,)),
        Factor(RESERVOIR, position=12, lengths=(20, 5), gap_symbols=(0,)),
        lit(rng.integers(0, 5, 40)),
    ]
    total = sum(f.advance for f in factors)
    parse = parse_of(factors, total)
    got, _, _ = roundtrip_factors(parse)
    assert got == factors


def test_roundtrip_with_checkpoints_and_predictor_reset():
    # factors crossing several 8192 windows; predictor must reset per window
    factors = []
    pos = 0
    rng = np.random.default_rng(42)
    for i in range(40):
        L = int(rng.integers(400, 900))
        factors.append(match(max(pos - int(rng.integers(-50, 50)), 0), (L,)))
        pos += L
    parse = parse_of(factors, pos)
    got, coded, models = roundtrip_factors(parse)
    assert got == factors
    assert coded.n_windows == -(-pos // 8192)
    # byte offsets strictly non-decreasing
    for s in range(4):
        assert (np.diff(coded.byte_offs[s]) >= 0).all()


def test_long_factor_spanning_windows():
    p = params()
    big = match(0, (50_000,))
    tail = match(123, (300,))
    parse = parse_of([big, tail], 50_300)
    raw = encode_parse(parse, p)
    # windows 1..6 have no factor starts; their resume position is 50_000
    assert raw.start_source.tolist() == [0] + [50_000] * 6
    got, coded, models = roundtrip_factors(parse)
    assert got == [big, tail]
    # decode from a checkpoint inside the big factor
    w = coded.checkpoint_for(20_000)
    factors, start = decode_from(coded, models, p, w, 20_100)
    assert start == 0 and factors[0] == big


def test_decode_window_mid_sequence():
    rng = np.random.default_rng(43)
    p = params()
    factors = []
    pos = 0
    while pos < 40_000:
        L = int(rng.integers(30, 200))
        if rng.random() < 0.2:
            factors.append(lit(rng.integers(0, 5, L)))
        else:
            factors.append(match(int(rng.integers(0, 5000)), (L,)))
        pos += L
    parse = parse_of(factors, pos)
    raw = encode_parse(parse, p)
    models = build_models([raw])
    coded = compress_streams(raw, models)

    cols = SequenceDecoder(coded, models, p).prefetch_all()
    all_factors = cols.to_factors()
    assert all_factors == factors

    # windowed decode agrees with the full decode
    for target in (0, 100, 8192, 20_000, pos - 1):
        w = coded.checkpoint_for(target)
        got, start = decode_from(coded, models, p, w, target + 1)
        covered = start
        for f in got[:-1]:
            covered += f.advance
        assert covered <= target < covered + got[-1].advance
        # factors align with a suffix of the full list
        idx = all_factors.index(got[0])
        assert all_factors[idx : idx + len(got)] == got


def test_until_equal_to_checkpoint_yields_empty():
    parse = parse_of([match(0, (10_000,))], 10_000)
    p = params()
    raw = encode_parse(parse, p)
    models = build_models([raw])
    coded = compress_streams(raw, models)
    factors, start = decode_from(coded, models, p, 0, 0)
    assert factors == [] and start == 0


def test_reencoding_decoded_factors_is_byte_identical():
    rng = np.random.default_rng(44)
    p = params()
    ref = rng.integers(0, 4, 30_000).astype(np.uint8)
    seq = ref.copy()
    at = rng.choice(len(seq), 60, replace=False)
    seq[at] = (seq[at] + 1) % 4
    idx = KmerIndex(ref, p.m1)
    parse = parse_sequence(idx, seq, p)
    raw = encode_parse(parse, p)
    models = build_models([raw])
    coded = compress_streams(raw, models)
    cols = SequenceDecoder(coded, models, p).prefetch_all()
    factors = cols.to_factors()
    raw2 = encode_parse(parse_of(factors, parse.source_length), p)
    for s in range(4):
        assert np.array_equal(raw.symbols[s], raw2.symbols[s])
        assert np.array_equal(raw.extra[s], raw2.extra[s])
    coded2 = compress_streams(raw2, models)
    assert coded.payloads == coded2.payloads


def test_build_models_degenerate_all_zero_delta():
    parse = parse_of([match(0, (100,)), match(100, (100,))], 200)
    raw = encode_parse(parse, params())
    models = build_models([raw])
    assert models.tables[OFF].lengths[0] == 1  # the one offset symbol, delta difference 0


def test_models_invariant_under_count_scaling():
    rng = np.random.default_rng(45)
    factors = [match(int(rng.integers(0, 500)), (int(rng.integers(20, 400)),)) for _ in range(30)]
    total = sum(f.advance for f in factors)
    raw = encode_parse(parse_of(factors, total), params())
    m1 = build_models([raw])
    m2 = build_models([raw, raw])  # doubled tallies, same tables
    for a, b in zip(m1.tables, m2.tables):
        assert a == b


def test_total_coded_bits_match_model_lengths():
    rng = np.random.default_rng(46)
    p = params()
    factors = []
    pos = 0
    for _ in range(200):
        L = int(rng.integers(14, 500))
        if rng.random() < 0.3:
            factors.append(lit(rng.integers(0, 5, L)))
        else:
            factors.append(match(int(rng.integers(0, 3000)), (L,)))
        pos += L
    raw = encode_parse(parse_of(factors, pos), p)
    models = build_models([raw])
    coded = compress_streams(raw, models)
    tallies = [np.bincount(syms, minlength=256) for syms in raw.symbols]
    expect_bits = int(
        sum((t.lengths.astype(np.int64) * tallies[i]).sum() for i, t in enumerate(models.tables))
    )
    expect_bits += sum(int(models.tables[s].extra_bits[raw.symbols[s]].sum()) for s in (OFF, LEN))
    # padding adds < 8 bits per stream per window
    padded_bits = sum(len(pl) * 8 for pl in coded.payloads)
    slack = 8 * 4 * (coded.n_windows + 1)
    assert expect_bits <= padded_bits <= expect_bits + slack


def test_model_set_serialization_roundtrip():
    parse = parse_of([match(0, (100,))], 100)
    raw = encode_parse(parse, params())
    models = build_models([raw])
    blob = models.serialize()
    assert len(blob) == N_MODELS * 128 == 512
    back = ModelSet.deserialize(blob)
    for a, b in zip(models.tables, back.tables):
        assert a == b
    with pytest.raises(CorruptArchiveError):
        ModelSet.deserialize(blob[:-1])


def test_corrupt_payload_detected():
    parse = parse_of([match(0, (50,)), lit(np.arange(40) % 5)], 90)
    p = params()
    raw = encode_parse(parse, p)
    models = build_models([raw])
    coded = compress_streams(raw, models)
    bad = [bytearray(x) for x in coded.payloads]
    if bad[FLG]:
        bad[FLG] = bad[FLG][:0]  # drop the flag payload entirely
    coded.payloads = [bytes(x) for x in bad]
    with pytest.raises(CorruptArchiveError):
        decode_from(coded, models, p, 0, 90)


def test_empty_parse_empty_streams():
    raw = encode_parse(parse_of([], 0), params())
    assert all(len(b) == 0 for b in raw.symbols)
    assert len(raw.start_source) == 0
    models = build_models([raw])
    coded = compress_streams(raw, models)
    assert all(p == b"" for p in coded.payloads)
    factors, start = decode_from(coded, models, params(), 0, 0)
    assert factors == [] and start == 0


def test_parser_to_codec_pipeline_roundtrip():
    rng = np.random.default_rng(47)
    p = params()
    ref = rng.integers(0, 4, 20_000).astype(np.uint8)
    seq = ref.copy()
    seq[1000:1040] = N
    at = rng.choice(len(seq), 100, replace=False)
    seq[at] = (seq[at] + 1) % 4
    idx = KmerIndex(ref, p.m1)
    parse = parse_sequence(idx, seq, p)
    factors, coded, models = roundtrip_factors(parse, p)
    assert factors == parse.factors
    back = apply_parse(parse_of(factors, parse.source_length), ref)
    assert np.array_equal(back, seq)


_BIG = 1 << 32


@pytest.mark.parametrize(
    "factors, source_length, message",
    [
        ([Factor(LITERAL, lengths=(0,), symbols=np.zeros(0, np.uint8))], 0, "malformed literal run"),
        ([Factor(NRUN, lengths=(12,))], 12, "N-run shorter than minimum match length"),
        ([Factor(NRUN, lengths=(40, 5), gap_symbols=(1,))], 46, "N-run"),
        ([match(0, (12,))], 12, "first piece below minimum match length"),
        ([match(0, (20, 3), gaps=(1,))], 24, "extension piece below minimum"),
        ([match(-1, (20,))], 20, "negative position"),
        ([match(0, (20,))], 25, "factors cover 20 symbols of a 25-symbol source"),
        ([Factor(LITERAL, lengths=(5,), symbols=np.zeros(4, np.uint8))], 5, "literal length mismatch"),
        ([match(0, (_BIG + 1,))], _BIG + 1, "length exceeds the class code"),
        ([Factor(RESERVOIR, _BIG, (20,))], 20, "reservoir offset exceeds the class code"),
        ([match((1 << 31) + 1, (20,))], 20, "offset delta exceeds the class code"),
        ([Factor(NRUN, lengths=(1 << 31,)), match(0, (20,))], (1 << 31) + 20, "offset delta"),
    ],
    ids=[
        "empty-literal", "short-nrun", "nrun-gap", "short-first-piece", "short-extension",
        "negative-position", "untiled-source", "literal-stream-length", "long-length",
        "far-reservoir-offset", "offset-delta-past-int32", "offset-delta-past-int32-positive",
    ],
)
def test_encoder_rejects_malformed_parse(factors, source_length, message):
    with pytest.raises(ValueError, match=message):
        encode_parse(parse_of(factors, source_length), params())


# one window of 2**32 - 1 symbols, so a factor can be as long as the code allows
_WIDE = dict(checkpoint_interval=(1 << 32) - 1)


def _lead_in(n: int) -> list:
    """Factors covering ``n`` source symbols without reading a buffer."""
    if n == 0:
        return []
    return [lit(np.zeros(n, np.uint8))] if n < 13 else [Factor(NRUN, lengths=(n,))]


@pytest.mark.parametrize(
    "length",
    [1, 32, 33] + [v for e in range(6, 33) for v in ((1 << e) - 1, 1 << e)],
)
def test_length_class_edges_roundtrip(length):
    """The direct values end at 32 and the classes start at 33; every
    class boundary 2**e - 1 | 2**e round-trips, up to the largest
    length the code holds, 2**32."""
    factors = _lead_in(length)
    got, _, models = roundtrip_factors(parse_of(factors, length), params(**_WIDE))
    assert got == factors
    sym, nb, extra = length_class(length)
    raw = encode_parse(parse_of(factors, length), params(**_WIDE))
    assert (raw.symbols[LEN].tolist(), raw.extra[LEN].tolist()) == ([sym], [extra])
    assert models.tables[LEN].extra_bits[sym] == nb


@pytest.mark.parametrize(
    "d",
    [0, 31, -32, 32, -33, (1 << 31) - 1, -(1 << 31)],
    ids=["zero", "last-direct", "last-direct-negative", "first-class", "first-class-negative",
         "int32-max", "int32-min"],
)
def test_offset_class_edges_roundtrip(d):
    """Delta differences zigzag to 0..63 direct (d in [-32, 31]), then
    classes, up to the int32 extremes.  The first match of a window has
    the predictor 0, so its difference is its (source - reference) delta."""
    factors = _lead_in(max(d, 0)) + [match(max(-d, 0), (20,))]
    n = max(d, 0) + 20
    got, _, _ = roundtrip_factors(parse_of(factors, n), params(**_WIDE))
    assert got == factors
    raw = encode_parse(parse_of(factors, n), params(**_WIDE))
    sym, _, extra = delta_class(d)
    assert (raw.symbols[OFF].tolist()[-1], raw.extra[OFF].tolist()[-1]) == (sym, extra)


@pytest.mark.parametrize("offset", [0, 1, 2, (1 << 32) - 1])
def test_reservoir_offset_class_edges_roundtrip(offset):
    factors = [Factor(RESERVOIR, position=offset, lengths=(20,))]
    got, _, _ = roundtrip_factors(parse_of(factors, 20))
    assert got == factors
    raw = encode_parse(parse_of(factors, 20), params())
    sym, _, extra = reservoir_class(offset)
    assert (raw.symbols[OFF].tolist(), raw.extra[OFF].tolist()) == ([sym], [extra])


def scalar_encode(factors, n, p):
    """Oracle for encode_parse: walks the factors one at a time, coding
    each record with the scalar class code and closing each window as it
    is left."""
    interval = p.checkpoint_interval
    n_windows = -(-n // interval)
    syms, extras = ([], []), ([], [])
    lit_packed, flg_packed = [], []
    start_source = [0] if n_windows else []
    cum = [[0] for _ in range(4)]
    win_flags, win_lits = [], []
    marks = [0, 0]

    def finalize_window():
        lit = np.concatenate(win_lits) if win_lits else np.zeros(0, dtype=np.uint8)
        packed = pack_triplets(lit)
        quad = np.zeros(-(-len(win_flags) // 4) * 4, dtype=np.uint8)
        quad[: len(win_flags)] = win_flags
        quad = quad.reshape(-1, 4)
        flg = (quad[:, 0] | quad[:, 1] << 2 | quad[:, 2] << 4 | quad[:, 3] << 6).astype(np.uint8)
        lit_packed.append(packed)
        flg_packed.append(flg)
        counts = [len(syms[0]) - marks[0], len(syms[1]) - marks[1], len(packed), len(flg)]
        for s, count in enumerate(counts):
            cum[s].append(cum[s][-1] + count)
        marks[:] = len(syms[0]), len(syms[1])
        win_flags.clear()
        win_lits.clear()

    def emit(stream, coded):
        sym, _, extra = coded
        syms[stream].append(sym)
        extras[stream].append(extra)

    pos = cur_w = pred = 0
    last_match_w = -1
    for f in factors:
        w = pos // interval
        while cur_w < w:
            finalize_window()
            start_source.append(pos)
            cur_w += 1
        if f.kind == LITERAL:
            win_flags.append(0)
            emit(LEN, length_class(f.lengths[0]))
            win_lits.append(f.symbols)
        else:
            win_flags.append(len(f.lengths))
            if f.kind == NRUN:
                emit(OFF, (NRUN_CLASS, 0, 0))
            elif f.kind == RESERVOIR:
                emit(OFF, reservoir_class(f.position))
            else:
                delta = pos - f.position
                emit(OFF, delta_class(delta - (pred if w == last_match_w else 0)))
                pred, last_match_w = delta, w
            for L in f.lengths:
                emit(LEN, length_class(L))
            win_lits.append(np.asarray(f.gap_symbols, dtype=np.uint8))
        pos += f.advance
    while cur_w < n_windows:
        finalize_window()
        cur_w += 1
        if cur_w < n_windows:
            start_source.append(n)

    def cat(parts):
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.uint8)

    return RawStreams(
        length=n,
        symbols=[np.array(syms[0], np.uint8), np.array(syms[1], np.uint8),
                 cat(lit_packed), cat(flg_packed)],
        extra=[np.array(extras[0], np.int64), np.array(extras[1], np.int64), None, None],
        sym_counts=np.asarray(cum, dtype=np.int64),
        start_source=np.asarray(start_source, dtype=np.int64),
    )


def assert_same_streams(got, want):
    assert got.length == want.length
    for s in range(4):
        assert np.array_equal(got.symbols[s], want.symbols[s])
        assert np.array_equal(got.extra[s], want.extra[s])
    assert got.sym_counts.dtype == np.int64
    assert np.array_equal(got.sym_counts, want.sym_counts)
    assert np.array_equal(got.start_source, want.start_source)


@pytest.mark.parametrize("interval", [8192, 96])
def test_encode_parse_matches_scalar_encoder(interval):
    rng = np.random.default_rng(150 + interval)
    p = params(checkpoint_interval=interval)
    ref = rng.integers(0, 4, 20_000).astype(np.uint8)
    seen_off, seen_flags, len_classes, empty_windows, spanning = set(), set(), 0, 0, 0
    res_len = 0
    for trial in range(30):
        parse = random_member(rng, ref, res_len, p, int(rng.integers(0, 150)))
        factors = parse.factors
        res_len += sum(f.lengths[0] for f in factors if f.kind == LITERAL and f.lengths[0] >= p.m3)
        got = encode_parse(parse, p)
        assert_same_streams(got, scalar_encode(factors, parse.source_length, p))
        seen_off |= set(got.symbols[OFF].tolist())
        seen_flags |= {len(f.gap_symbols) for f in factors if f.kind in (MATCH, RESERVOIR)}
        len_classes += int((got.symbols[LEN] >= 32).sum())
        empty_windows += int((np.diff(got.sym_counts[FLG]) == 0).sum())
        ends = np.cumsum([f.advance for f in factors], dtype=np.int64)
        spanning += int(((ends - 1) // interval != np.append(0, ends[:-1]) // interval).sum())
    # direct and class match offsets, N-runs and reservoir offsets
    seen = np.array(sorted(seen_off))
    assert (seen < 64).any() and ((seen >= 64) & (seen < NRUN_CLASS)).any()
    assert NRUN_CLASS in seen_off and (seen >= RES_CLASS).any()
    assert seen_flags == {0, 1, 2}
    assert len_classes and spanning
    if interval < 1000:
        assert empty_windows
