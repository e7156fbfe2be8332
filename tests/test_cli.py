import numpy as np
import pytest

from rlzg.archive import compress
from rlzg.cli import main
from rlzg.genome import Collection, Sequence, parse_fasta, write_fasta
from rlzg.synthetic import apply_snps, random_reference


def kv(capsys) -> dict:
    out = capsys.readouterr().out
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


@pytest.fixture
def fasta_dir(tmp_path):
    rng = np.random.default_rng(80)
    ref = random_reference(rng, 30_000)
    (tmp_path / "chr1.fa").write_bytes(write_fasta(Sequence("chr1", ref)))
    for name in ("a", "b"):
        data = apply_snps(rng, ref, 0.005)
        (tmp_path / f"{name}.fa").write_bytes(write_fasta(Sequence(name, data)))
    return tmp_path


def test_compress_decompress_roundtrip(fasta_dir, tmp_path, capsys):
    arc = tmp_path / "out.rlzg"
    rc = main(
        [
            "compress",
            "--ref",
            str(fasta_dir / "chr1.fa"),
            str(fasta_dir / "a.fa"),
            str(fasta_dir / "b.fa"),
            "-o",
            str(arc),
        ]
    )
    assert rc == 0
    pairs = kv(capsys)
    assert float(pairs["bpb_overall"]) < 2.5
    assert float(pairs["bpb_relative"]) < 0.5
    assert arc.exists()

    outdir = tmp_path / "dec"
    rc = main(["decompress", str(arc), "-o", str(outdir)])
    assert rc == 0
    for name in ("chr1", "a", "b"):
        got = (outdir / f"{name}.fa").read_bytes()
        want = (fasta_dir / f"{name}.fa").read_bytes()
        assert got == want


def test_extract_equals_slice(fasta_dir, tmp_path, capsys):
    arc = tmp_path / "out.rlzg"
    main(
        [
            "compress",
            "--ref",
            str(fasta_dir / "chr1.fa"),
            str(fasta_dir / "a.fa"),
            str(fasta_dir / "b.fa"),
            "-o",
            str(arc),
        ]
    )
    capsys.readouterr()
    rc = main(["extract", str(arc), "--seq", "b", "--range", "100:200"])
    assert rc == 0
    out = capsys.readouterr().out.encode()
    (rec,) = parse_fasta(out)
    assert rec.name == "b:100:200"
    (full,) = parse_fasta((fasta_dir / "b.fa").read_bytes())
    assert np.array_equal(rec.data, full.data[100:200])


def test_compress_missing_input_exits_3(tmp_path, capsys):
    rc = main(["compress", str(tmp_path / "missing.fa"), "-o", str(tmp_path / "x.rlzg")])
    assert rc == 3
    assert "rlzg:" in capsys.readouterr().err


def test_bad_fasta_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.fa"
    bad.write_bytes(b">x\nAC!GT\n")
    rc = main(["compress", str(bad), "-o", str(tmp_path / "x.rlzg")])
    assert rc == 3


def test_corrupt_archive_exits_4(fasta_dir, tmp_path, capsys):
    arc = tmp_path / "out.rlzg"
    main(["compress", str(fasta_dir / "chr1.fa"), "-o", str(arc)])
    capsys.readouterr()
    data = bytearray(arc.read_bytes())
    data[-1] ^= 0xFF
    arc.write_bytes(bytes(data))
    rc = main(["stats", str(arc)])
    assert rc == 4
    assert "corrupt archive" in capsys.readouterr().err


def test_unknown_sequence_exits_2(fasta_dir, tmp_path, capsys):
    arc = tmp_path / "out.rlzg"
    main(["compress", str(fasta_dir / "chr1.fa"), "-o", str(arc)])
    capsys.readouterr()
    rc = main(["extract", str(arc), "--seq", "nope", "--range", "0:1"])
    assert rc == 2
    rc = main(["extract", str(arc), "--seq", "chr1", "--range", "5-9"])
    assert rc == 2


def test_zero_inputs_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compress", "-o", "x.rlzg"])
    assert exc.value.code == 2


def test_select_ref_prints_choice(fasta_dir, capsys):
    rc = main(
        [
            "select-ref",
            str(fasta_dir / "a.fa"),
            str(fasta_dir / "chr1.fa"),
            str(fasta_dir / "b.fa"),
        ]
    )
    assert rc == 0
    pairs = kv(capsys)
    assert pairs["reference"] in {"a", "chr1", "b"}
    assert int(pairs["windows"]) > 0


def test_stats_machine_parseable(fasta_dir, tmp_path, capsys):
    arc = tmp_path / "out.rlzg"
    main(["compress", str(fasta_dir / "chr1.fa"), str(fasta_dir / "a.fa"), "-o", str(arc)])
    capsys.readouterr()
    rc = main(["stats", str(arc)])
    assert rc == 0
    pairs = kv(capsys)
    for key in ("total_bytes", "reference_bytes", "relative_bytes", "bpb_overall"):
        assert key in pairs


def test_auto_ref_and_threads(fasta_dir, tmp_path, capsys):
    arc = tmp_path / "out.rlzg"
    rc = main(
        [
            "compress",
            "--auto-ref",
            str(fasta_dir / "chr1.fa"),
            str(fasta_dir / "a.fa"),
            str(fasta_dir / "b.fa"),
            "-o",
            str(arc),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    outdir = tmp_path / "dec"
    rc = main(["decompress", str(arc), "-o", str(outdir), "--threads", "3"])
    assert rc == 0
    for name in ("chr1", "a", "b"):
        assert (outdir / f"{name}.fa").read_bytes() == (fasta_dir / f"{name}.fa").read_bytes()


def test_per_record_multifile_roundtrip(tmp_path, capsys):
    rng = np.random.default_rng(81)
    chr1 = random_reference(rng, 9000)
    chr2 = random_reference(rng, 7000)
    ref = write_fasta(Sequence("chr1", chr1)) + write_fasta(Sequence("chr2", chr2))
    (tmp_path / "ref.fa").write_bytes(ref)
    g1 = write_fasta(Sequence("chr1", apply_snps(rng, chr1, 0.004))) + write_fasta(
        Sequence("chr2", apply_snps(rng, chr2, 0.004))
    )
    (tmp_path / "g1.fa").write_bytes(g1)
    arc = tmp_path / "out.rlzg"
    rc = main(
        [
            "compress",
            "--per-record",
            "--ref",
            str(tmp_path / "ref.fa"),
            str(tmp_path / "g1.fa"),
            "-o",
            str(arc),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    outdir = tmp_path / "dec"
    assert main(["decompress", str(arc), "-o", str(outdir)]) == 0
    assert (outdir / "ref.fa").read_bytes() == ref
    assert (outdir / "g1.fa").read_bytes() == g1
    capsys.readouterr()
    # per-record sequence names are file/record qualified
    rc = main(["extract", str(arc), "--seq", "g1/chr2", "--range", "0:50"])
    assert rc == 0


def test_inputs_sharing_a_file_stem_exit_2(fasta_dir, tmp_path, capsys):
    (tmp_path / "other").mkdir()
    twin = tmp_path / "other" / "a.fasta"
    twin.write_bytes((fasta_dir / "a.fa").read_bytes())
    arc = tmp_path / "out.rlzg"
    for argv in (
        ["compress", "--per-record", "--ref", str(fasta_dir / "a.fa"), str(twin), "-o", str(arc)],
        ["compress", str(fasta_dir / "a.fa"), str(fasta_dir / "b.fa"), str(twin), "-o", str(arc)],
        ["select-ref", str(fasta_dir / "a.fa"), str(twin)],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(fasta_dir / "a.fa") in err and str(twin) in err
    assert not arc.exists()


def test_decompress_refuses_tags_sharing_an_output_file(tmp_path, capsys):
    rng = np.random.default_rng(81)
    ref = random_reference(rng, 5_000)
    coll = Collection(
        [
            Sequence("r", ref, file_tag="ref"),
            Sequence("s1", apply_snps(rng, ref, 0.01), file_tag="a/b"),
            Sequence("s2", apply_snps(rng, ref, 0.01), file_tag="a_b"),
        ]
    )
    arc = tmp_path / "tags.rlzg"
    arc.write_bytes(compress(coll).to_bytes())
    outdir = tmp_path / "dec"
    outdir.mkdir()
    assert main(["decompress", str(arc), "-o", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert "'a/b'" in err and "'a_b'" in err
    assert list(outdir.iterdir()) == []


def test_compress_refuses_inputs_sharing_an_output_file(fasta_dir, tmp_path, capsys):
    inputs = [tmp_path / "x\\y.fa", tmp_path / "x_y.fa"]
    for path in inputs:
        path.write_bytes((fasta_dir / "a.fa").read_bytes())
    arc = tmp_path / "out.rlzg"
    argv = ["compress", "--ref", str(fasta_dir / "chr1.fa"), *map(str, inputs), "-o", str(arc)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(inputs[0]) in err and str(inputs[1]) in err
    assert not arc.exists()


@pytest.mark.parametrize("m1", ["0", "-5"])
def test_select_ref_rejects_nonpositive_m1(fasta_dir, capsys, m1):
    argv = ["select-ref", str(fasta_dir / "a.fa"), str(fasta_dir / "b.fa"), "--m1", m1]
    assert main(argv) == 2
    assert "m1" in capsys.readouterr().err
