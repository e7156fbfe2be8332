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

from rlzg import Collection, Sequence, archive, streams  # noqa: E402
from rlzg.genome import N  # noqa: E402
from rlzg.parse import LITERAL, MATCH, NRUN, RESERVOIR  # noqa: E402
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
