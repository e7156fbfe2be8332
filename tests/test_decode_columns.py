"""The columnar decoder against the apply_parse oracle, on archives built
from hand-made parses, plus the corruption it must reject."""
import numpy as np
import pytest

from rlzg import Archive, Collection, CorruptArchiveError, Sequence
from rlzg.archive import Group, _write_archive
from rlzg.huffman import HuffmanTable
from rlzg.parse import LITERAL, MATCH, NRUN, RESERVOIR, Factor, ParseParams, apply_parse
from rlzg.refstore import append_reservoir_phrase, encode_reference, pack_reference
from rlzg.streams import (
    FLG,
    LEN,
    NRUN_CLASS,
    OFF,
    SequenceDecoder,
    build_models,
    compress_streams,
    encode_parse,
)

from factor_lists import parse_of, random_member


def build_archive(refs, members, params, granularity="whole"):
    """An archive from reference arrays and (group, parse) members, with
    the reservoir provenance compress would record, written by the
    writer compress uses.  The writer reads only the names and lengths
    of the members, so their data are placeholders."""
    seqs = [Sequence(f"ref{g}", ref, f"r{g}", "ref") for g, ref in enumerate(refs)]
    groups = [Group(g) for g in range(len(refs))]
    provs = [[] for _ in refs]
    raws = []
    for g, parse in members:
        i = len(seqs)
        seqs.append(Sequence(f"m{i}", np.zeros(parse.source_length, np.uint8), f"m{i}", "m"))
        groups[g].members.append(i)
        pos = 0
        for f in parse.factors:
            if f.kind == LITERAL and f.lengths[0] >= params.m3:
                append_reservoir_phrase(provs[g], (i, pos, f.lengths[0]), params.m3)
            pos += f.advance
        raws.append(encode_parse(parse, params))
    models = build_models(raws)
    ref_table = HuffmanTable.from_counts(np.ones(256, dtype=np.int64))
    units = [encode_reference(pack_reference(ref), ref_table) for ref in refs]
    units += [compress_streams(raw, models) for raw in raws]
    coll = Collection(seqs, 0, granularity)
    return Archive.from_bytes(_write_archive(params, coll, groups, ref_table, models, units, provs))


def oracle(refs, members, params):
    """Each member's symbols by apply_parse, against its group's final
    reservoir (a valid parse reads only what stood before it)."""
    reservoirs = [[] for _ in refs]
    for g, parse in members:
        reservoirs[g] += [
            f.symbols for f in parse.factors if f.kind == LITERAL and f.lengths[0] >= params.m3
        ]
    res = [np.concatenate(r) if r else np.zeros(0, np.uint8) for r in reservoirs]
    return [apply_parse(parse, refs[g], res[g]) for g, parse in members]


@pytest.mark.parametrize("interval", [8192, 96])
@pytest.mark.parametrize("granularity", ["whole", "record"])
def test_decode_matches_apply_parse_oracle(interval, granularity):
    rng = np.random.default_rng(130 + interval)
    params = ParseParams(checkpoint_interval=interval)
    params.validate()
    n_groups = 2 if granularity == "record" else 1
    refs = [rng.integers(0, 4, 20_000).astype(np.uint8) for _ in range(n_groups)]
    members = []
    res_len = [0] * n_groups
    own_phrase_matches = 0
    for j in range(5):
        g = j % n_groups
        parse = random_member(rng, refs[g], res_len[g], params, 120)
        own_phrase_matches += sum(
            f.kind == RESERVOIR and f.position + f.advance > res_len[g] for f in parse.factors
        )
        res_len[g] += sum(
            f.lengths[0] for f in parse.factors if f.kind == LITERAL and f.lengths[0] >= params.m3
        )
        members.append((g, parse))
    factors = [f for _, p in members for f in p.factors]
    assert {f.kind for f in factors} == {LITERAL, MATCH, NRUN, RESERVOIR}
    assert {len(f.lengths) for f in factors if f.kind == MATCH} == {1, 2, 3}
    assert max(max(f.lengths) for f in factors) > 255
    assert own_phrase_matches
    off = np.concatenate([encode_parse(p, params).symbols[OFF] for _, p in members])
    # match offsets in classes past the direct ones, of both signs (odd zigzag values)
    in_class = off[(off >= 64) & (off < NRUN_CLASS)]
    assert len(np.unique(in_class % 2)) == 2
    arc = build_archive(refs, members, params, granularity)
    if interval < 1000:  # a factor longer than a window leaves empty windows
        coded = arc.entries[n_groups].coded
        # an empty window resumes where the next one does (or at the end)
        starts = coded.start_source
        assert (starts == np.append(starts[1:], coded.length)).any()

    want = oracle(refs, members, params)
    for threads in (1, 2):
        got = arc.decompress(threads=threads).sequences[n_groups:]
        for seq, expect in zip(got, want):
            assert np.array_equal(seq.data, expect)
    for (_, parse), seq, expect in zip(members, got, want):
        assert [f for _, f in arc.iter_factors(seq.name)] == parse.factors
        for _ in range(40):
            lo = int(rng.integers(0, len(expect)))
            hi = int(rng.integers(lo, min(len(expect), lo + 2500) + 1))
            assert np.array_equal(arc.extract(seq.name, lo, hi), expect[lo:hi])


def params_small():
    p = ParseParams()
    p.validate()
    return p


def test_reservoir_match_past_current_reservoir_rejected():
    rng = np.random.default_rng(140)
    p = params_small()
    ref = rng.integers(0, 4, 2000).astype(np.uint8)
    run = rng.integers(0, 4, 64).astype(np.uint8)
    # the match reads the member's own run, which only comes after it
    parse = parse_of(
        [
            Factor(RESERVOIR, 0, (20,)),
            Factor(LITERAL, lengths=(64,), symbols=run),
        ],
        84,
    )
    arc = build_archive([ref], [(0, parse)], p)
    with pytest.raises(CorruptArchiveError, match="reservoir"):
        arc.decompress()


def test_match_past_reference_end_rejected():
    rng = np.random.default_rng(141)
    p = params_small()
    ref = rng.integers(0, 4, 2000).astype(np.uint8)
    parse = parse_of([Factor(MATCH, 1990, (20,))], 20)
    arc = build_archive([ref], [(0, parse)], p)
    with pytest.raises(CorruptArchiveError, match="reference"):
        arc.decompress()
    with pytest.raises(CorruptArchiveError, match="reference"):
        arc.extract("m1", 0, 20)


def _two_matches():
    return parse_of([Factor(MATCH, 0, (300,)), Factor(MATCH, 100, (300,))], 600)


def _nrun_then_literal():
    run = Factor(LITERAL, lengths=(5,), symbols=np.zeros(5, np.uint8))
    return parse_of([Factor(NRUN, lengths=(40,)), run], 45)


def _set(stream, values):
    """Replace the symbols of ``stream``; an offset or length record's
    extra bits become 0."""
    def tamper(raw):
        raw.symbols[stream] = np.array(values, dtype=np.uint8)
        if raw.extra[stream] is not None:
            raw.extra[stream] = np.zeros(len(values), dtype=np.int64)
    return tamper


@pytest.mark.parametrize(
    "parse, tamper, what",
    [
        # flags 3, 1 need four length records where the window has two
        (_two_matches, _set(FLG, [3 | 1 << 2]), "length records"),
        # a literal flag where the offset stream holds a match record
        (_two_matches, _set(FLG, [0 | 1 << 2]), "offset records"),
        # symbols past the classes, which the models code all the same
        pytest.param(_two_matches, _set(OFF, [0, 255]), "offset class past the class table",
                     id="_two_matches-offset-class-past-table"),
        pytest.param(_two_matches, _set(LEN, [200, 0]), "length class past the class table",
                     id="_two_matches-length-class-past-table"),
        # one N-run flagged with a gap, taking both length records
        (_nrun_then_literal, _set(FLG, [2]), "N-run with a gapped flag"),
    ],
)
def test_tampered_streams_rejected(parse, tamper, what):
    p = params_small()
    parse = parse()
    raw = encode_parse(parse, p)
    tamper(raw)
    models = build_models([raw])
    coded = compress_streams(raw, models)
    with pytest.raises(CorruptArchiveError, match=what):
        SequenceDecoder(coded, models, p).factors_from(0, parse.source_length)
