"""Small-scale checks of the benchmark itself.

Run from the root of the repository:

    python3 -m pytest perfbench -q

Every workload runs one round on a corpus 50 times smaller than the
benchmark's, with all of its correctness checks, in a few seconds.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import corpus
import run

SMALL = run.SCALES["small"]


@pytest.fixture(scope="module")
def rlzg():
    return run.import_rlzg()


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_workload_small_scale_passes_every_check(rlzg, workload):
    result = run.run(workload, seed=7, seconds=0, trace=False, scale=SMALL)
    assert result["correct"] and result["failed"] == 0, result["errors"]
    per_round = 1 + SMALL.decompresses + SMALL.extracts + SMALL.oneshots
    assert result["attempted"] == per_round * result["rounds"]
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(v > 0 and math.isfinite(v) for v in result["metrics"].values())


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_traced_run_gives_every_layer_figure(rlzg, workload):
    from layers import PER_LAYER_UNITS

    result = run.run(workload, seed=7, seconds=0, trace=True, scale=SMALL)
    assert result["correct"] and result["failed"] == 0, result["errors"]
    assert result["rounds"] == 2
    m = result["metrics"]
    assert set(m) == set(PER_LAYER_UNITS)
    assert all(math.isfinite(v) and v >= 0 for v in m.values())
    assert m["kmer.lookups"] >= m["kmer.empty_lookups"] > 0
    assert m["parse.parse_s"] > m["parse.self_s"] > 0
    assert m["streams.factors_decoded"] > 0 and m["refstore.blocks_decoded"] > 0
    assert 0 <= m["archive.ref_block_hit_ratio"] <= 1
    if workload == "shared_novel":
        assert m["parse.reservoir_phrases"] > 0 and m["kmer.reservoir_grams"] > 0
    # the wrappers are gone once the run ends
    from rlzg import archive, kmer

    assert archive.parse_sequence.__module__ == "rlzg.parse"
    assert kmer.KmerIndex.lookup.__qualname__ == "KmerIndex.lookup"


def test_one_command_runs_every_workload():
    proc = subprocess.run(
        [sys.executable, run.__file__, "--workload", "all", "--seed", "3", "--seconds", "0",
         "--scale", "small"],
        capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(results) == list(corpus.WORKLOADS)
    for r in results.values():
        assert r["correct"] and r["failed"] == 0 and set(r["metrics"]) == set(run.END_TO_END_UNITS)


def test_wrong_extract_output_counts_as_failed(rlzg, monkeypatch):
    real = rlzg.Archive.extract

    def off_by_one(self, name, start, end):
        return real(self, name, start + 1, end + 1)

    monkeypatch.setattr(rlzg.Archive, "extract", off_by_one)
    result = run.run("low_snp", seed=7, seconds=0, trace=False, scale=SMALL)
    assert not result["correct"]
    assert result["failed"] == SMALL.extracts + SMALL.oneshots


def test_benchmark_json_names_what_the_code_reports():
    from layers import PER_LAYER_UNITS

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


def test_corpus_depends_on_seed_only():
    a = corpus.make_corpus("mixed", 5, 0.02)
    b = corpus.make_corpus("mixed", 5, 0.02)
    c = corpus.make_corpus("mixed", 6, 0.02)
    assert a.names == b.names == c.names
    assert all(np.array_equal(x, y) for x, y in zip(a.arrays, b.arrays))
    assert not np.array_equal(a.arrays[0], c.arrays[0])


def test_corpus_make_up():
    low = corpus.make_corpus("low_snp", 1, 0.02)
    ref = low.arrays[0]
    assert len(low.arrays) == 7 and all(len(a) == len(ref) for a in low.arrays)
    assert all(int((a != ref).sum()) == len(ref) // 1000 for a in low.arrays[1:])
    novel = corpus.make_corpus("shared_novel", 1, 0.02)
    assert len(novel.arrays) == 9 and novel.member_bases > 8 * len(novel.arrays[0])


@pytest.mark.parametrize("n", [0, 1, 69, 70, 71, 140, 1000])
def test_render_fasta_parses_back(rlzg, n):
    data = np.random.default_rng(n).integers(0, 5, n).astype(np.uint8)
    (rec,) = rlzg.parse_fasta(corpus.render_fasta("s", data))
    assert rec.name == "s" and np.array_equal(rec.data, data)


def test_tail_percentile():
    assert run.tail_percentile(1000) == 99.0
    assert run.tail_percentile(5000) == 99.0
    assert run.tail_percentile(500) == pytest.approx(98.0)


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name, ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    cmd = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *cmd[1:], "--workload", "mixed", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
