"""The benchmark's hooks into rlzg still hold.

``perfbench/tracer.py`` wraps rlzg functions by the module attribute
names through which rlzg calls them, and ``perfbench/layers.py`` counts
factors from the parses the tracer keeps.  The suite collects
``perfbench/`` too (``testpaths`` in ``pyproject.toml``), whose traced
small-scale runs check the figures a run reports; this test checks the
hooks themselves on a collection that reaches every factor kind: each
wrapped name is called and each one is put back.  The test reads
``perfbench/`` and changes nothing in it.
"""
import sys
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

from rlzg import Collection, Sequence, archive, parse, streams  # noqa: E402
from rlzg.genome import N  # noqa: E402
from rlzg.kmer import KmerIndex, gram_hash, n_free_grams  # noqa: E402
from rlzg.parse import LITERAL, MATCH, NRUN, RESERVOIR, ParseParams  # noqa: E402
from rlzg.synthetic import apply_snps, random_reference  # noqa: E402


def _collection() -> Collection:
    """A reference and two members holding every factor kind: SNPs make
    gapped matches, an N-run, and a novel segment the second member
    matches in the reservoir."""
    rng = np.random.default_rng(160)
    ref = random_reference(rng, 30_000)
    novel = random_reference(rng, 400)
    a = apply_snps(rng, ref, 0.004)
    a[5000:5100] = N
    a = np.concatenate((a[:12_000], novel, a[12_000:]))
    b = np.concatenate((apply_snps(rng, ref[:20_000], 0.004), novel))
    return Collection([Sequence("ref", ref), Sequence("a", a), Sequence("b", b)], 0)


def _hooks():
    points = [(owner, attr) for owner, attr, *_ in tracer.SPAN_POINTS]
    return points + [(owner, attr) for owner, attr, _ in tracer.TALLY_POINTS]


def test_tracer_wraps_compress_and_restores_every_hook():
    before = {(id(owner), attr): owner.__dict__[attr] for owner, attr in _hooks()}
    coll = _collection()
    t = tracer.Tracer()
    t.install()
    try:
        # through the module attribute, as the benchmark calls it
        data = archive.compress(coll).to_bytes()
    finally:
        t.uninstall()
    for owner, attr in _hooks():
        assert owner.__dict__[attr] is before[(id(owner), attr)], attr

    spans = t.spans()
    names = set(spans.by_name(0, len(spans.dur)))
    want = {
        "archive.compress", "kmer.build", "parse.parse_sequence", "parse.choose_factor",
        "streams.encode_parse", "streams.build_models", "streams.compress_streams",
        "refstore.encode_reference", "refstore.packed_block_counts",
        "packing.pack_triplets", "huffman.pack_codes", "archive.to_bytes",
    }
    assert want <= names

    parses = list(t.kept["parse.parse_sequence"])
    assert len(parses) == 2
    kind = np.concatenate([p.columns.kind for p in parses])
    gaps = sum(int(np.count_nonzero(p.columns.pieces[:, 1:])) for p in parses)
    folded = layers.fold_kept(t)
    assert folded["parse.factors_literal"] == np.count_nonzero(kind == LITERAL)
    assert folded["parse.factors_match"] == np.count_nonzero(kind == MATCH)
    assert folded["parse.factors_nrun"] == np.count_nonzero(kind == NRUN)
    assert folded["parse.factors_reservoir"] == np.count_nonzero(kind == RESERVOIR)
    assert folded["parse.gaps"] == gaps
    assert min(folded[k] for k in folded if k.startswith("parse.")) > 0
    assert not t.kept["parse.parse_sequence"]  # let go once folded

    back = archive.Archive.from_bytes(data).decompress()
    for got, expect in zip(back.sequences, coll.sequences):
        assert np.array_equal(got.data, expect.data)


def test_tracer_and_recorder_wrap_decode_and_restore_every_hook():
    coll = _collection()
    data = archive.compress(coll).to_bytes()
    before = {(id(owner), attr): owner.__dict__[attr] for owner, attr in _hooks()}
    t = tracer.Tracer()
    t.install()
    try:
        back = archive.Archive.from_bytes(data).decompress()
        reader = archive.Archive.from_bytes(data)
        # "b" ends in the reservoir phrase "a" put there
        got = [reader.extract(s.name, 0, len(s.data)) for s in coll.sequences]
        _, reported = reader.extract_report("a", 4000, 13_000)
    finally:
        t.uninstall()
    for owner, attr in _hooks():
        assert owner.__dict__[attr] is before[(id(owner), attr)], attr
    for seq, expect in zip(back.sequences, coll.sequences):
        assert np.array_equal(seq.data, expect.data)
    for sym, expect in zip(got, coll.sequences):
        assert np.array_equal(sym, expect.data)
    assert reported > 0

    spans = t.spans()
    names = set(spans.by_name(0, len(spans.dur)))
    want = {
        "archive.from_bytes", "archive.decompress", "archive.extract", "archive.ref_range",
        "streams.prefetch_all", "streams.decode_windows", "streams.factors_from",
        "refstore.decode_reference_range", "refstore.resolve_reservoir_range",
        "huffman.decode_chains",
    }
    assert want <= names

    # the extract-byte recorder patches two more names and puts them back
    range_bytes = archive.range_payload_bytes
    touched = streams.SequenceDecoder.touched_payload_bytes
    recorder = run.Recorder(archive, streams)
    recorder.install()
    try:
        out, reported = reader.extract_report("a", 4000, 13_000)
        distinct = recorder.take()
    finally:
        recorder.uninstall()
    assert archive.range_payload_bytes is range_bytes
    assert streams.SequenceDecoder.touched_payload_bytes is touched
    assert np.array_equal(out, coll.sequences[1].data[4000:13_000])
    assert 0 < distinct <= reported


def test_override_counts_choose_factor_picking_alt_on_evaluate_rows():
    """``parse.overrides`` sums the value the tracer records for each
    ``choose_factor`` call: 1 when it returns ``alt`` over a distinct
    ``best``, else 0.  The rows come from ``_evaluate``, as in a parse."""
    rng = np.random.default_rng(161)
    ref = random_reference(rng, 5_000)
    ref[200:280] = ref[3000:3080]  # a near copy of 80 of the source's 100
    seq = ref[3000:3100].copy()
    params = ParseParams()
    index = KmerIndex(ref, params.m1)
    positions = index.lookup(gram_hash(seq[: params.m1].tobytes()), seq[: params.m1].tobytes())
    assert positions == [200, 3000]

    def rows(prev_delta):
        return parse._evaluate(parse._Diagonals(index, seq), 0, params, prev_delta, positions)

    t = tracer.Tracer()
    t.install()
    try:
        # delta 210 makes the near copy cheap; the longest is ahead by
        # less than the slack
        best, alt = rows(-210)
        assert (best[1], best[5], alt[1]) == (3000, 100, 200)
        assert best[5] - parse.LENGTH_SLACK <= alt[5] < best[5]
        assert parse.choose_factor(best, alt) is alt
        best, alt = rows(-3000)  # the longest is itself cheap
        assert alt is best and parse.choose_factor(best, alt) is best
        best, alt = rows(0)  # no cheap candidate
        assert alt is None and parse.choose_factor(best, alt) is best
    finally:
        t.uninstall()
    spans = t.spans()
    assert spans.values(0, len(spans.dur), "parse.choose_factor").tolist() == [1, 0, 0]


def test_reservoir_grams_figure_counts_every_indexed_gram():
    """``kmer.reservoir_grams`` sums ``len`` over ``res_buckets``: it must
    equal the N-free grams of the literal runs that entered the
    reservoir, however the index lays its buckets out."""
    coll = _collection()
    t = tracer.Tracer()
    t.install()
    try:
        archive.compress(coll)
    finally:
        t.uninstall()
    params = ParseParams()
    runs = [
        f.symbols
        for p in t.kept["parse.parse_sequence"]
        for f in p.factors
        if f.kind == LITERAL and f.lengths[0] >= params.m3
    ]
    res_grams = sum(int(np.count_nonzero(n_free_grams(r, params.m1))) for r in runs)
    (index,) = t.kept["kmer.build"]
    assert res_grams > 0
    assert sum(len(v) for v in index.res_buckets.values()) == res_grams
    assert layers.fold_kept(t)["kmer.reservoir_grams"] == res_grams
