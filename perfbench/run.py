"""Benchmark of rlzg: compress, decompress and random-access extract.

Run from the root of a checkout; the program is imported from ``src/``:

    python3 perfbench/run.py --workload mixed --seed 1 --seconds 38 --trace 0

One process, one client, a closed loop: every call waits for the one
before it.  A run repeats whole rounds for ``--seconds``, give or take
half a round.  A round makes the same operations every time:

- one compress: ``parse_fasta`` of one FASTA text per sequence,
  ``compress`` and ``Archive.to_bytes``;
- DECOMPRESSES decompressions: ``Archive.from_bytes``,
  ``Archive.decompress(threads=1)`` and ``write_fasta`` of every sequence;
- EXTRACTS 1 kbase extracts on one reader opened for the round, so its
  caches warm over the round in the same way in every round;
- ONESHOTS one-shot extracts: ``Archive.from_bytes`` plus one 1 kbase
  extract on that fresh reader.

Each decompression is followed by its share of the extracts, with the
one-shots spread among them, so that every figure samples the whole
round: the speed of a shared machine can drift over tens of seconds.

Everything stays in memory.  Outputs are checked against the generator's
arrays outside the timed sections; an operation that raises or returns a
wrong result counts as failed.  With ``--trace 1`` every other round runs
with the span tracer installed and the per-layer figures are printed
instead of the end-to-end ones.  The last line of standard output is one
JSON object; a fuller record goes to ``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import corpus as corpus_mod

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

EXTRACT_LEN = 1000
FASTA_WIDTH = 70
SETUP_REPEATS = 7


@dataclass(frozen=True)
class Scale:
    """Corpus size factor and per-round operation counts."""

    corpus: float
    extracts: int
    oneshots: int
    decompresses: int


SCALES = {
    "full": Scale(corpus=1.0, extracts=500, oneshots=40, decompresses=2),
    "small": Scale(corpus=0.02, extracts=40, oneshots=8, decompresses=1),
}

END_TO_END_UNITS = {
    "compress_mbps": "Mbase/s",
    "decompress_mbps": "Mbase/s",
    "bpb_overall": "bit/base",
    "bpb_relative": "bit/base",
    "extract_p50_ms": "ms",
    "extract_p99_ms": "ms",
    "extract_kib": "KiB",
    "oneshot_extract_ms": "ms",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


def import_rlzg():
    """Import the checkout's own rlzg from ``src/``, never an installed copy."""
    src = ROOT / "src"
    if not (src / "rlzg" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'rlzg'} not found; run from a checkout of the repository")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import rlzg

    if Path(rlzg.__file__).resolve().parent != src / "rlzg":
        sys.exit(f"error: imported rlzg from {rlzg.__file__}, not from {src}")
    return rlzg


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it, capped at 99."""
    return min(99.0, 100.0 * (1 - 10 / n)) if n > 10 else 50.0


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # failed operations whose output was wrong, not raised
    errors: list[str] = field(default_factory=list)

    def fail(self, what: str, wrong: bool, count: int = 1) -> None:
        self.failed += count
        self.wrong += count * int(wrong)
        if len(self.errors) < 20:
            self.errors.append(what)
        print(f"FAILED {what}", file=sys.stderr)


class Recorder:
    """Distinct coded bytes one extract needs.

    ``extract_report`` sums ``range_payload_bytes`` over every reference
    slice and ``touched_payload_bytes`` over every window walk, so a
    block or window used twice counts twice.  While installed, this
    records which reference blocks and which stream windows those calls
    cover, and ``take()`` returns the bytes of the distinct ones.
    """

    def __init__(self, archive_mod, streams_mod):
        self.archive_mod = archive_mod
        self.decoder_cls = streams_mod.SequenceDecoder
        self.units: dict[tuple, int] = {}

    def install(self) -> None:
        units = self.units
        real_range = self.real_range = self.archive_mod.range_payload_bytes
        real_touched = self.real_touched = self.decoder_cls.touched_payload_bytes

        def range_payload_bytes(rb, start, end):
            if start < end:
                bs = rb.block_size
                for b in range(start // bs, -(-end // bs)):
                    units[("ref", id(rb), b)] = int(rb.offsets[b + 1] - rb.offsets[b])
            return real_range(rb, start, end)

        def touched_payload_bytes(dec):
            offs = dec.coded.byte_offs
            for w in dec.last_touched:
                units[("win", id(dec.coded), w)] = int(
                    sum(offs[s][w + 1] - offs[s][w] for s in range(4))
                )
            return real_touched(dec)

        self.archive_mod.range_payload_bytes = range_payload_bytes
        self.decoder_cls.touched_payload_bytes = touched_payload_bytes

    def uninstall(self) -> None:
        self.archive_mod.range_payload_bytes = self.real_range
        self.decoder_cls.touched_payload_bytes = self.real_touched

    def take(self) -> int:
        total = sum(self.units.values())
        self.units.clear()
        return total


class Bench:
    """One workload's corpus, its rounds and the samples they gave."""

    def __init__(self, workload: str, seed: int, scale: Scale):
        from rlzg import archive, genome, streams

        self.archive, self.genome, self.streams = archive, genome, streams
        self.seed, self.scale = seed, scale
        self.tally = Tally()
        self.setup_s: list[float] = []
        for _ in range(SETUP_REPEATS):
            self.corpus = self.texts = None  # let the previous copy go first
            t0 = time.perf_counter()
            c = corpus_mod.make_corpus(workload, seed, scale.corpus)
            texts = [corpus_mod.render_fasta(n, a) for n, a in zip(c.names, c.arrays)]
            self.setup_s.append(time.perf_counter() - t0)
            self.corpus, self.texts = c, texts
        self.truth = dict(zip(self.corpus.names, self.corpus.arrays))
        self.data: bytes | None = None
        self.rounds: list[dict] = []
        self.extract_kib: list[float] = []
        self.reported_kib: list[float] = []

    # -- one round -------------------------------------------------------

    def queries(self, rng: np.random.Generator, n: int) -> list[tuple[str, int, int]]:
        """n extracts at uniform positions over all sequences, the
        reference included, in a random order.  The positions are
        stratified: the i-th falls uniformly in the i-th of n equal
        slices of all start positions, so each sequence gets its share
        by length and the cache hits of a round vary little by seed."""
        starts = np.array([len(a) - EXTRACT_LEN + 1 for a in self.corpus.arrays])
        first = np.concatenate(([0], np.cumsum(starts)))
        pos = ((np.arange(n) + rng.random(n)) * (first[-1] / n)).astype(np.int64)
        seq = np.searchsorted(first, pos, side="right") - 1
        out = []
        for j in rng.permutation(n).tolist():
            i = int(seq[j])
            start = int(pos[j] - first[i])
            out.append((self.corpus.names[i], start, start + EXTRACT_LEN))
        return out

    def round(self, round_no: int, tracer=None) -> dict:
        sc = self.scale
        n_ops = 1 + sc.decompresses + sc.extracts + sc.oneshots
        self.tally.attempted += n_ops
        rec = {"round": round_no, "traced": tracer is not None,
               "decompress_s": [], "extract_ms": [], "oneshot_ms": []}
        span = tracer.span if tracer is not None else _no_span
        try:
            with installed(tracer), span("bench.compress"):
                t, data, arc = self.time_compress()
        except Exception as exc:  # a failing operation is counted, the run goes on
            self.tally.fail(f"round {round_no} compress: {exc!r}", wrong=False)
            self.tally.fail(f"round {round_no}: no archive to read", False, n_ops - 1)
            return rec
        rec["compress_s"] = t
        self.check_compress(round_no, data, arc)
        rec["archive_bytes"] = len(data)
        rec["bpb_relative"] = arc.stats()["bpb_relative"]
        del arc

        # Decompressions, extracts and one-shots alternate over the round,
        # so each figure samples the whole round, not one stretch of it.
        rng = np.random.default_rng([self.seed, round_no])
        long_q, one_q = self.queries(rng, sc.extracts), self.queries(rng, sc.oneshots)
        try:
            reader = self.archive.Archive.from_bytes(data)
        except Exception:  # each extract on the missing reader then fails
            reader = None
        parts = sc.decompresses
        served = []
        for part in range(parts):
            self.decompress_once(round_no, data, rec, tracer)
            served += self.extract_part(
                round_no, data, reader,
                long_q[part * len(long_q) // parts : (part + 1) * len(long_q) // parts],
                one_q[part * len(one_q) // parts : (part + 1) * len(one_q) // parts],
                rec, tracer,
            )
        self.count_touched(round_no, reader, served)
        return rec

    def time_compress(self):
        genome, archive = self.genome, self.archive
        t0 = time.perf_counter()
        seqs = [genome.parse_fasta(text)[0] for text in self.texts]
        arc = archive.compress(genome.Collection(seqs, 0))
        data = arc.to_bytes()
        return time.perf_counter() - t0, data, arc

    def decompress_once(self, round_no: int, data: bytes, rec: dict, tracer) -> None:
        genome = self.genome
        span = tracer.span if tracer is not None else _no_span
        try:
            with installed(tracer), span("bench.decompress"):
                t0 = time.perf_counter()
                coll = self.archive.Archive.from_bytes(data).decompress(threads=1)
                fastas = [
                    genome.write_fasta(genome.Sequence(s.record_name, s.data), FASTA_WIDTH)
                    for s in coll.sequences
                ]
                t = time.perf_counter() - t0
        except Exception as exc:
            self.tally.fail(f"round {round_no} decompress: {exc!r}", wrong=False)
            return
        rec["decompress_s"].append(t)
        self.check_decompress(round_no, coll, fastas)

    def extract_part(self, round_no, data, reader, long_q, one_q, rec, tracer) -> list:
        """Extracts on the round's reader with one-shots spread among them;
        returns the extracts on the reader that gave the right symbols."""
        every = max(len(long_q) // max(len(one_q), 1), 1)
        items = []
        pending = list(one_q)
        for j, q in enumerate(long_q):
            items.append((False, q))
            if j % every == every - 1 and pending:
                items.append((True, pending.pop(0)))
        items += [(True, q) for q in pending]
        span = tracer.span if tracer is not None else _no_span
        Archive = self.archive.Archive
        served = []
        with installed(tracer):
            for oneshot, (name, s, e) in items:
                kind = "one-shot" if oneshot else "extract"
                try:
                    with span("bench.oneshot" if oneshot else "bench.extract"):
                        t0 = time.perf_counter()
                        arc = Archive.from_bytes(data) if oneshot else reader
                        out = arc.extract(name, s, e)
                        t = time.perf_counter() - t0
                except Exception as exc:
                    self.tally.fail(f"round {round_no} {kind} {name}[{s}:{e}]: {exc!r}", False)
                    continue
                if np.array_equal(out, self.truth[name][s:e]):
                    rec["oneshot_ms" if oneshot else "extract_ms"].append(t * 1e3)
                    if not oneshot:
                        served.append((name, s, e))
                else:
                    self.tally.fail(f"round {round_no} {kind} {name}[{s}:{e}]: wrong symbols", True)
        return served

    # -- checks, outside the timed sections ------------------------------

    def check_compress(self, round_no: int, data: bytes, arc) -> None:
        c = self.corpus
        st = arc.stats()
        bpb = 8 * len(data) / c.bases
        problems = []
        if st["total_bytes"] != len(data) or st["input_symbols"] != c.bases:
            problems.append(f"stats report {st['total_bytes']} B over {st['input_symbols']} bases")
        if abs(st["bpb_overall"] - bpb) > 1e-9 * bpb:
            problems.append(f"stats bpb_overall {st['bpb_overall']} != measured {bpb}")
        if st["bpb_relative"] > bpb * c.bases / c.member_bases * (1 + 1e-12):
            problems.append(f"bpb_relative {st['bpb_relative']} exceeds the whole archive")
        if self.data is None:
            self.data = data
        elif data != self.data:
            problems.append("archive bytes differ from the first round's")
        if problems:
            self.tally.fail(f"round {round_no} compress: " + "; ".join(problems), True)

    def check_decompress(self, round_no: int, coll, fastas) -> None:
        c = self.corpus
        ok = [s.name for s in coll.sequences] == c.names and all(
            np.array_equal(s.data, a) for s, a in zip(coll.sequences, c.arrays)
        )
        if ok:
            for text, name, a in zip(fastas, c.names, c.arrays):
                rec = self.genome.parse_fasta(text)
                if len(rec) != 1 or rec[0].name != name or not np.array_equal(rec[0].data, a):
                    ok = False
                    break
        if not ok:
            self.tally.fail(f"round {round_no} decompress: output differs from the input", True)

    def count_touched(self, round_no: int, reader, qs) -> None:
        """Untimed replay of the round's served extracts on its warm
        reader: distinct coded bytes per query against the figure
        extract_report gives.  Neither depends on what the reader has
        cached.  A query that fails here fails its extract operation."""
        recorder = Recorder(self.archive, self.streams)
        recorder.install()
        try:
            for name, s, e in qs:
                try:
                    out, reported = reader.extract_report(name, s, e)
                except Exception as exc:
                    self.tally.fail(f"round {round_no} extract_report {name}[{s}:{e}]: {exc!r}", False)
                    recorder.take()
                    continue
                distinct = recorder.take()
                if distinct > reported or not np.array_equal(out, self.truth[name][s:e]):
                    self.tally.fail(
                        f"round {round_no} extract_report {name}[{s}:{e}]: "
                        f"{distinct} distinct bytes against {reported} reported",
                        True,
                    )
                self.extract_kib.append(distinct / 1024)
                self.reported_kib.append(reported / 1024)
        finally:
            recorder.uninstall()

    # -- figures ---------------------------------------------------------

    def end_to_end(self, rounds: list[dict]) -> dict[str, float]:
        """The figures of the untraced rounds; one with no sample (every
        such operation failed) reads 0."""
        bases = self.corpus.bases
        comp = [r["compress_s"] for r in rounds if "compress_s" in r]
        decomp = [t for r in rounds for t in r["decompress_s"]]
        lat = [t for r in rounds for t in r["extract_ms"]]
        return {
            "compress_mbps": bases / 1e6 / _median(comp) if comp else 0.0,
            "decompress_mbps": bases / 1e6 / _median(decomp) if decomp else 0.0,
            "bpb_overall": 8 * len(self.data) / bases if self.data else 0.0,
            "bpb_relative": _median([r["bpb_relative"] for r in rounds if "bpb_relative" in r]),
            "extract_p50_ms": _median(lat),
            "extract_p99_ms": float(np.percentile(lat, tail_percentile(len(lat)))) if lat else 0.0,
            "extract_kib": _median(self.extract_kib),
            "oneshot_extract_ms": _median([t for r in rounds for t in r["oneshot_ms"]]),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": _median(self.setup_s),
        }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


@contextmanager
def installed(tracer):
    """The tracer's wrappers in place for the block (nothing without one)."""
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def _no_span(name: str):
    return nullcontext()


def warm_up(rlzg) -> None:
    """One tiny compress, decompress and extract, so imports and first
    calls are paid before timing."""
    c = corpus_mod.make_corpus("mixed", 0, 0.005)
    coll = rlzg.Collection([rlzg.Sequence(n, a) for n, a in zip(c.names, c.arrays)])
    arc = rlzg.Archive.from_bytes(rlzg.compress(coll).to_bytes())
    arc.decompress()
    arc.extract(c.names[1], 0, 100)


def run(workload: str, seed: int, seconds: float, trace: bool, scale: Scale) -> dict:
    rlzg = import_rlzg()
    bench = Bench(workload, seed, scale)
    warm_up(rlzg)
    tracer = None
    if trace:
        from layers import fold_kept
        from tracer import Tracer

        tracer = Tracer()
    marks = []
    durations = []
    deadline = time.perf_counter() + seconds
    round_no = 0
    while True:
        traced = tracer is not None and round_no % 2 == 1
        started = time.perf_counter()
        if traced:
            mark, calls = tracer.mark(), tracer.tallies.get("archive.apply_factor", 0)
        rec = bench.round(round_no, tracer if traced else None)
        if traced:
            rec["apply_factor_calls"] = tracer.tallies["archive.apply_factor"] - calls
            marks.append((mark, tracer.mark(), rec, fold_kept(tracer)))
        bench.rounds.append(rec)
        round_no += 1
        now = time.perf_counter()
        durations.append(now - started)
        # Stop before a round that would end more than half a round past
        # the deadline, so a run lasts --seconds give or take half a
        # round; a traced run needs one round of each kind.
        if now + max(durations[-2:]) / 2 > deadline and (tracer is None or round_no >= 2):
            break

    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": len(bench.rounds),
        "attempted": bench.tally.attempted,
        "failed": bench.tally.failed,
        "errors": bench.tally.errors,
        "bases": bench.corpus.bases,
        "setup_s": bench.setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "per_round": bench.rounds,
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
            "processor": platform.processor() or platform.machine(),
        },
    }
    untraced = [r for r in bench.rounds if not r["traced"]]
    if trace:
        from layers import per_layer

        metrics, spans_by_name = per_layer(bench, tracer, marks, untraced)
        result["spans"] = spans_by_name
    else:
        metrics = bench.end_to_end(untraced)
        lat = [t for r in untraced for t in r["extract_ms"]]
        result["samples"] = {
            "compress": sum("compress_s" in r for r in untraced),
            "decompress": sum(len(r["decompress_s"]) for r in untraced),
            "extract": len(lat),
            "extract_tail_percentile": tail_percentile(len(lat)),
            "oneshot": sum(len(r["oneshot_ms"]) for r in untraced),
            "setup": len(bench.setup_s),
        }
    result["metrics"] = metrics
    result["correct"] = bench.tally.wrong == 0
    return result


def run_all(args) -> int:
    """Every workload in turn, each in a process of its own so that its
    peak memory is its own; prints each one's figures and counts, then
    one JSON object keyed by workload."""
    results = {}
    for workload in corpus_mod.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            print(f"{workload}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        *lines, last = proc.stdout.strip().splitlines()
        results[workload] = json.loads(last)
        print("\n".join(lines))
        print(f"{workload} attempted = {results[workload]['attempted']}, "
              f"failed = {results[workload]['failed']}, correct = {results[workload]['correct']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=corpus_mod.WORKLOADS + ("all",),
                    help="'all' runs every workload, one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(SCALES), default="full",
                    help="'small' shrinks the corpus 50-fold for a quick check")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    result = run(args.workload, args.seed, args.seconds, bool(args.trace), SCALES[args.scale])
    units = END_TO_END_UNITS
    if args.trace:
        from layers import PER_LAYER_UNITS

        units = PER_LAYER_UNITS
    metrics = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    for k, m in metrics.items():
        print(f"{args.workload} {k} = {m['value']:.6g} {m['unit']}")
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.scale}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
