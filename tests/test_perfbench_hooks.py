"""The benchmark's hooks into rlzg still hold.

``perfbench/tracer.py`` wraps rlzg functions by the module attribute
names through which rlzg calls them, and ``perfbench/layers.py`` counts
factors from the parses the tracer keeps.  The tier-1 suite does not
collect ``perfbench/``, so without this test a rename in rlzg would first
show up as a failed traced benchmark run.  The test reads ``perfbench/``
and changes nothing in it.
"""
import sys
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import layers  # noqa: E402
import tracer  # noqa: E402

from rlzg import Collection, Sequence, archive  # noqa: E402
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
