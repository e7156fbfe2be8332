import numpy as np
import pytest

from rlzg import Archive, Collection, Sequence, compress, decompress
from rlzg.cli import main
from rlzg.genome import N, parse_fasta, write_fasta
from rlzg.parse import NRUN, RESERVOIR
from rlzg.synthetic import random_reference


def test_per_record_reservoir_resolves_across_group_members(tmp_path):
    rng = np.random.default_rng(100)
    chr1 = random_reference(rng, 12_000)
    novel = random_reference(rng, 300)
    g1 = np.concatenate([chr1[:6000], novel, chr1[6000:]])
    g2 = np.concatenate([chr1[2000:11_000], novel])
    seqs = [
        Sequence("ref/chr1", chr1, record_name="chr1", file_tag="ref"),
        Sequence("g1/chr1", g1, record_name="chr1", file_tag="g1"),
        Sequence("g2/chr1", g2, record_name="chr1", file_tag="g2"),
    ]
    coll = Collection(seqs, 0, "record")
    arc = Archive.from_bytes(compress(coll).to_bytes())
    assert decompress(arc) == coll
    assert decompress(arc, threads=3) == coll
    spans = [
        (pos, pos + f.advance)
        for pos, f in arc.iter_factors("g2/chr1")
        if f.kind == RESERVOIR
    ]
    assert spans
    lo, hi = spans[0]
    assert np.array_equal(arc.extract("g2/chr1", lo, hi), g2[lo:hi])


def test_extract_across_nrun_boundaries():
    rng = np.random.default_rng(101)
    ref = random_reference(rng, 60_000)
    derived = ref.copy()
    derived[20_000:45_000] = N  # run spanning several checkpoint windows
    coll = Collection([Sequence("ref", ref), Sequence("d", derived)])
    arc = Archive.from_bytes(compress(coll).to_bytes())
    nruns = [f for _, f in arc.iter_factors("d") if f.kind == NRUN]
    assert len(nruns) == 1 and nruns[0].lengths == (25_000,)
    for lo, hi in ((19_990, 20_010), (30_000, 30_100), (44_990, 45_050), (19_000, 46_000)):
        assert np.array_equal(arc.extract("d", lo, hi), derived[lo:hi])


def test_cli_normalizes_iupac_and_case(tmp_path, capsys):
    raw = b">s1\nacgtRYKM\nwsNnACGT\n"
    (tmp_path / "in.fa").write_bytes(raw)
    arc = tmp_path / "out.rlzg"
    assert main(["compress", str(tmp_path / "in.fa"), "-o", str(arc)]) == 0
    outdir = tmp_path / "dec"
    assert main(["decompress", str(arc), "-o", str(outdir)]) == 0
    got = (outdir / "in.fa").read_bytes()  # files reassemble by source file
    (normalized,) = parse_fasta(raw)
    assert got == write_fasta(normalized, 70)
    assert b"ACGTNNNN" in got  # ambiguity codes became N, case folded


def test_sequence_of_only_short_n_runs():
    rng = np.random.default_rng(102)
    ref = random_reference(rng, 3000)
    derived = np.full(9, N, dtype=np.uint8)  # below m1: plain literals
    coll = Collection([Sequence("ref", ref), Sequence("d", derived)])
    arc = Archive.from_bytes(compress(coll).to_bytes())
    assert decompress(arc) == coll
    kinds = {f.kind for _, f in arc.iter_factors("d")}
    assert NRUN not in kinds


def test_collection_validation_errors():
    rng = np.random.default_rng(103)
    data = random_reference(rng, 100)
    with pytest.raises(ValueError, match="duplicate"):
        Collection([Sequence("a", data), Sequence("a", data)]).validate()
    with pytest.raises(ValueError, match="reference_index"):
        Collection([Sequence("a", data)], reference_index=5).validate()
    with pytest.raises(ValueError, match="granularity"):
        Collection([Sequence("a", data)], granularity="banana").validate()


@pytest.mark.parametrize("where", ["member", "reference", "ascii"])
def test_compress_rejects_symbol_codes_above_four(where):
    """A code above 4 would be written and decoded as another symbol:
    the collection is refused, naming the sequence that holds it."""
    rng = np.random.default_rng(104)
    ref = random_reference(rng, 3000)
    member = ref.copy()
    if where == "member":
        member[1234] = 7
    elif where == "reference":
        ref[99] = 9
    else:  # letters passed as codes
        member = np.frombuffer(b"ACGT" * 750, dtype=np.uint8)
    name, code = ("ref", 9) if where == "reference" else ("m", int(member.max()))
    coll = Collection([Sequence("ref", ref), Sequence("m", member)])
    with pytest.raises(ValueError, match=f"'{name}' holds symbol code {code} above 4"):
        compress(coll)


def test_partial_all_n_tail_block():
    from rlzg.huffman import HuffmanTable
    from rlzg.refstore import (
        BLOCK_SIZE,
        decode_reference_range,
        encode_reference,
        pack_reference,
        packed_block_counts,
    )

    rng = np.random.default_rng(105)
    data = np.concatenate(
        [random_reference(rng, BLOCK_SIZE), np.full(100, N, dtype=np.uint8)]
    )
    packed = pack_reference(data)
    rb = encode_reference(packed, HuffmanTable.from_counts(packed_block_counts(packed)))
    assert rb.offsets[1] == rb.offsets[2]
    assert np.array_equal(decode_reference_range(rb, 0, len(data)), data)
    assert (decode_reference_range(rb, BLOCK_SIZE, BLOCK_SIZE + 100) == N).all()


def test_cli_rejects_inconsistent_params(tmp_path, capsys):
    (tmp_path / "a.fa").write_bytes(b">a\nACGTACGTACGT\n")
    rc = main(
        ["compress", str(tmp_path / "a.fa"), "-o", str(tmp_path / "x.rlzg"), "--m3", "5"]
    )
    assert rc == 2  # m3 below m1 violates the parameter invariants
    assert "m3" in capsys.readouterr().err


def test_extract_window_with_multiple_predictor_updates():
    # several matches with distinct deltas inside one checkpoint window,
    # extracted from a later checkpoint: predictor chains must replay
    rng = np.random.default_rng(106)
    ref = random_reference(rng, 120_000)
    # derived: shuffled 6k chunks of the reference -> varied deltas
    chunks = [ref[i : i + 6000] for i in range(0, 96_000, 6000)]
    order = rng.permutation(len(chunks))
    derived = np.concatenate([chunks[i] for i in order])
    coll = Collection([Sequence("ref", ref), Sequence("d", derived)])
    arc = Archive.from_bytes(compress(coll).to_bytes())
    assert decompress(arc) == coll
    for lo in range(0, len(derived) - 512, 7919):
        got = arc.extract("d", lo, lo + 512)
        assert np.array_equal(got, derived[lo : lo + 512]), lo


def test_multi_record_file_concatenates_in_whole_mode(tmp_path, capsys):
    rng = np.random.default_rng(104)
    a = random_reference(rng, 900)
    b = random_reference(rng, 700)
    fa = write_fasta(Sequence("r1", a)) + write_fasta(Sequence("r2", b))
    (tmp_path / "multi.fa").write_bytes(fa)
    arc = tmp_path / "out.rlzg"
    assert main(["compress", str(tmp_path / "multi.fa"), "-o", str(arc)]) == 0
    loaded = Archive.load(arc)
    assert loaded.entries[0].name == "multi"
    assert loaded.entries[0].length == 1600
