import numpy as np
import pytest

from rlzg.archive import Archive, compress
from rlzg.cli import main
from rlzg.genome import Collection, Sequence, parse_fasta, write_fasta
from rlzg.parse import MATCH
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


def test_extract_to_file_holds_the_stdout_fasta(fasta_dir, tmp_path, capsys):
    arc = tmp_path / "out.rlzg"
    main(["compress", "--ref", str(fasta_dir / "chr1.fa"), str(fasta_dir / "a.fa"), "-o", str(arc)])
    capsys.readouterr()
    args = ["extract", str(arc), "--seq", "a", "--range", "250:1250", "--width", "60"]
    assert main(args) == 0
    printed = capsys.readouterr().out.encode()
    out = tmp_path / "slice.fa"
    assert main(args + ["-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed
    (full,) = parse_fasta((fasta_dir / "a.fa").read_bytes())
    assert np.array_equal(parse_fasta(printed)[0].data, full.data[250:1250])


def test_compress_human_profile_sets_m1_20_and_record_matching(fasta_dir, tmp_path, capsys):
    arc = tmp_path / "out.rlzg"
    inputs = [fasta_dir / f"{name}.fa" for name in ("chr1", "a", "b")]
    assert main(["compress", "--profile", "human", "--ref", *map(str, inputs), "-o", str(arc)]) == 0
    loaded = Archive.load(arc)
    assert loaded.params.m1 == 20
    assert loaded.granularity == "record"
    want = [parse_fasta(p.read_bytes())[0].data for p in inputs]
    got = loaded.decompress().sequences
    assert len(got) == len(want) and all(np.array_equal(s.data, w) for s, w in zip(got, want))


def test_extract_on_a_fresh_archive_through_classes(tmp_path, capsys):
    # the member opens with a 2,000-base match 20,000 bases away from its
    # start: window 0 holds a far-offset class and a long-length class,
    # whose extra bits a one-shot extract reads with the tables it builds
    # on first use
    rng = np.random.default_rng(81)
    ref = random_reference(rng, 30_000)
    member = np.concatenate([ref[20_000:22_000], apply_snps(rng, ref[:20_000], 0.005)])
    for name, data in (("chr1", ref), ("m", member)):
        (tmp_path / f"{name}.fa").write_bytes(write_fasta(Sequence(name, data)))
    arc = tmp_path / "out.rlzg"
    args = ["compress", "--ref", str(tmp_path / "chr1.fa"), str(tmp_path / "m.fa")]
    assert main(args + ["-o", str(arc)]) == 0
    loaded = Archive.load(arc)
    window0 = [(start, f) for start, f in loaded.iter_factors("m") if start < 8192]
    # lengths past 32 and offset differences past +-32 leave the direct symbols
    assert any(
        f.kind == MATCH and max(f.lengths) > 1024 and abs(start - f.position) > 1 << 14
        for start, f in window0
    )
    capsys.readouterr()
    for name, lo, hi, want in (("chr1", 9_000, 9_500, ref), ("m", 1_500, 2_600, member)):
        assert main(["extract", str(arc), "--seq", name, "--range", f"{lo}:{hi}"]) == 0
        (rec,) = parse_fasta(capsys.readouterr().out.encode())
        assert np.array_equal(rec.data, want[lo:hi])


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
    rc = main(["extract", str(arc), "--seq", "chr1", "--range", "5:3"])
    assert rc == 2
    assert "invalid range '5:3'" in capsys.readouterr().err


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
    assert int(pairs["units_verified"]) > 0


def test_stats_prints_reservoir_counts(fasta_dir, tmp_path, capsys):
    rng = np.random.default_rng(81)
    ref = parse_fasta((fasta_dir / "chr1.fa").read_bytes())[0].data
    novel = random_reference(rng, 500)
    member = np.concatenate([ref[:10_000], novel, ref[10_000:]])
    (tmp_path / "c.fa").write_bytes(write_fasta(Sequence("c", member)))
    arc = tmp_path / "out.rlzg"
    main(["compress", str(fasta_dir / "chr1.fa"), str(tmp_path / "c.fa"), "-o", str(arc)])
    capsys.readouterr()
    rc = main(["stats", str(arc)])
    assert rc == 0
    pairs = kv(capsys)
    assert int(pairs["reservoir_phrases"]) == 1
    assert int(pairs["reservoir_symbols"]) >= len(novel)
    assert int(pairs["reservoir_symbols"]) == Archive.load(arc).stats()["reservoir_symbols"]


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


def test_decompress_refuses_record_names_fasta_would_change(tmp_path, capsys):
    """A record name holding a line break would be written as a header
    and a line of bases: no file is written and the exit code is 2."""
    rng = np.random.default_rng(82)
    ref = random_reference(rng, 3_000)
    coll = Collection(
        [
            Sequence("r", ref, file_tag="ref"),
            Sequence("s", apply_snps(rng, ref, 0.01), record_name="a\nGATTACA", file_tag="s"),
        ]
    )
    arc = tmp_path / "names.rlzg"
    arc.write_bytes(compress(coll).to_bytes())
    outdir = tmp_path / "dec"
    assert main(["decompress", str(arc), "-o", str(outdir)]) == 2
    assert "'a\\nGATTACA'" in capsys.readouterr().err
    assert not outdir.exists()


def test_compress_refuses_a_file_stem_fasta_would_change(fasta_dir, tmp_path, capsys):
    """Without --per-record a multi-record input becomes one record named
    after its file stem, which decompress must be able to write back."""
    two = tmp_path / " two.fa"
    two.write_bytes((fasta_dir / "a.fa").read_bytes() + (fasta_dir / "b.fa").read_bytes())
    arc = tmp_path / "out.rlzg"
    argv = ["compress", "--ref", str(fasta_dir / "chr1.fa"), str(two), "-o", str(arc)]
    assert main(argv) == 2
    assert "' two'" in capsys.readouterr().err
    assert not arc.exists()


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


@pytest.mark.parametrize("flag", [["--width", "0"], ["--threads", "0"], ["--threads", "-1"]])
def test_decompress_rejects_bad_flags_before_writing(fasta_dir, tmp_path, capsys, flag):
    arc = tmp_path / "out.rlzg"
    argv = ["compress", "--ref", str(fasta_dir / "chr1.fa"), str(fasta_dir / "a.fa"), "-o", str(arc)]
    assert main(argv) == 0
    capsys.readouterr()
    outdir = tmp_path / "dec"
    assert main(["decompress", str(arc), "-o", str(outdir), *flag]) == 2
    assert flag[0] in capsys.readouterr().err
    assert not outdir.exists()
