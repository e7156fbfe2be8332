"""Command-line interface: compress, decompress, extract, select-ref, stats.

Input mapping: by default every FASTA file becomes one sequence (its
record name if the file has a single record, else the file stem, with
records concatenated).  With --per-record every record becomes its own
sequence and matching runs record-against-counterpart-record.
Extraction ranges are half-open and 0-based (start:end).

Exit codes: 2 usage errors, 3 I/O and input-format errors, 4 corrupt
archives.  Set RLZG_LOG=DEBUG for diagnostics.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from .archive import Archive, compress as compress_collection, reference_scores, select_reference
from .errors import CorruptArchiveError, FastaError, RlzgError
from .genome import Collection, Sequence, check_record_name, parse_fasta, write_fasta
from .parse import ParseParams

log = logging.getLogger("rlzg")

EXIT_USAGE = 2
EXIT_IO = 3
EXIT_CORRUPT = 4


def _file_stem(path: Path) -> str:
    stem = path.name
    for suffix in (".fasta", ".fa", ".fna"):
        if stem.endswith(suffix):
            return stem[: -len(suffix)]
    return stem


def _output_name(tag: str) -> str:
    """The FASTA file ``decompress`` writes a file tag's sequences to."""
    return (tag.replace("/", "_").replace("\\", "_") or "unnamed") + ".fa"


def _check_output_names(what: str, labelled_tags) -> None:
    """Raise ValueError when two of the (label, tag) pairs would write
    one output file."""
    seen: dict[str, str] = {}
    for label, tag in labelled_tags:
        name = _output_name(tag)
        if name in seen:
            raise ValueError(f"{what} {seen[name]} and {label} would both be written to {name}")
        seen[name] = label


def _load_inputs(paths: list[Path], per_record: bool) -> list[Sequence]:
    """Every input's sequences, tagged with its file stem; inputs whose
    stems give one output file are refused."""
    _check_output_names("inputs", ((str(p), _file_stem(p)) for p in paths))
    return [s for p in paths for s in _load_file_sequences(p, per_record)]


def _load_file_sequences(path: Path, per_record: bool) -> list[Sequence]:
    records = parse_fasta(path.read_bytes())
    stem = _file_stem(path)
    if per_record:
        return [
            Sequence(f"{stem}/{r.name}", r.data, record_name=r.name, file_tag=stem)
            for r in records
        ]
    if len(records) == 1:
        r = records[0]
        return [Sequence(r.name, r.data, record_name=r.name, file_tag=stem)]
    check_record_name(stem)  # the one record decompress writes for the file
    data = np.concatenate([r.data for r in records])
    return [Sequence(stem, data, record_name=stem, file_tag=stem)]


def _build_collection(
    ref_path: Path | None,
    inputs: list[Path],
    per_record: bool,
    auto_ref: bool,
    m1: int = 13,
):
    sequences = _load_inputs(([ref_path] if ref_path else []) + inputs, per_record)
    granularity = "record" if per_record else "whole"
    coll = Collection(sequences, 0, granularity)
    if ref_path is not None:
        coll.reference_index = 0
    elif auto_ref:
        coll.reference_index = select_reference(coll, m1)
        log.debug("auto-ref picked %s", sequences[coll.reference_index].name)
    coll.validate()
    return coll


def _params_from_args(args) -> ParseParams:
    params = ParseParams()
    if getattr(args, "profile", None) == "human":
        params.m1 = 20
    for field in ("m1", "m2", "m3", "checkpoint_interval", "candidate_cap"):
        v = getattr(args, field, None)
        if v is not None:
            setattr(params, field, v)
    params.validate()
    return params


def _print_stats(pairs: dict) -> None:
    for key, value in pairs.items():
        if isinstance(value, float):
            print(f"{key}={value:.6g}")
        else:
            print(f"{key}={value}")


def _cmd_compress(args) -> int:
    params = _params_from_args(args)
    per_record = args.per_record or args.profile == "human"
    coll = _build_collection(
        Path(args.ref) if args.ref else None,
        [Path(p) for p in args.inputs],
        per_record,
        args.auto_ref,
        params.m1,
    )
    log.debug("compressing %d sequences with %s", len(coll.sequences), params)
    t0 = time.perf_counter()
    arc = compress_collection(coll, params)
    data = arc.to_bytes()
    elapsed = time.perf_counter() - t0
    Path(args.output).write_bytes(data)
    st = arc.stats()
    _print_stats(
        {
            "input_mb": st["input_symbols"] / 1e6,
            "output_mb": st["total_bytes"] / 1e6,
            "bpb_overall": st["bpb_overall"],
            "bpb_relative": st["bpb_relative"],
            "compress_s": elapsed,
            "mb_per_s": st["input_symbols"] / 1e6 / elapsed if elapsed else 0.0,
            "reference": arc.entries[arc.reference_index].file_tag,
        }
    )
    return 0


def _cmd_decompress(args) -> int:
    # checked before anything is read or written, so a bad flag leaves no output
    if args.width < 1:
        raise ValueError(f"--width must be >= 1, got {args.width}")
    if args.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")
    arc = Archive.load(args.archive)
    tags = dict.fromkeys(e.file_tag for e in arc.entries)
    _check_output_names("file tags", ((repr(t), t) for t in tags))
    for e in arc.entries:
        check_record_name(e.record_name)
    t0 = time.perf_counter()
    coll = arc.decompress(threads=args.threads)
    elapsed = time.perf_counter() - t0
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    by_tag: dict[str, list[Sequence]] = {}
    for s in coll.sequences:
        by_tag.setdefault(s.file_tag, []).append(s)
    for tag, seqs in by_tag.items():
        with open(outdir / _output_name(tag), "wb") as fh:
            for s in seqs:
                fh.write(write_fasta(Sequence(s.record_name, s.data), args.width))
    symbols = sum(len(s.data) for s in coll.sequences)
    _print_stats(
        {
            "sequences": len(coll.sequences),
            "files": len(by_tag),
            "output_mb": symbols / 1e6,
            "decompress_s": elapsed,
            "mb_per_s": symbols / 1e6 / elapsed if elapsed else 0.0,
        }
    )
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise ValueError(f"range must be start:end (half-open, 0-based), got {text!r}") from exc
    if lo < 0 or hi < lo:
        raise ValueError(f"invalid range {text!r}")
    return lo, hi


def _cmd_extract(args) -> int:
    arc = Archive.load(args.archive)
    start, end = _parse_range(args.range)
    try:
        data = arc.extract(args.seq, start, end)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from exc
    out = write_fasta(Sequence(f"{args.seq}:{start}:{end}", data), args.width)
    if args.output:
        Path(args.output).write_bytes(out)
    else:
        sys.stdout.buffer.write(out)
    return 0


def _cmd_select_ref(args) -> int:
    sequences = _load_inputs([Path(p) for p in args.inputs], args.per_record)
    coll = Collection(sequences, 0, "record" if args.per_record else "whole")
    m1 = 13 if args.m1 is None else args.m1
    best = select_reference(coll, m1)
    _print_stats(
        {
            "reference": sequences[best].file_tag,
            "windows": reference_scores(coll, m1)[best],
            "m1": m1,
        }
    )
    return 0


def _cmd_stats(args) -> int:
    arc = Archive.load(args.archive)
    st = arc.stats()
    st["units_verified"] = arc.verify()
    st["sections"] = len(arc.section_sizes)
    for sec_id, size in sorted(arc.section_sizes.items()):
        st[f"section_{sec_id}_bytes"] = size
    _print_stats(st)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rlzg",
        description="Relative LZ compression of genome collections with random access.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p):
        p.add_argument("--m1", type=int, help="minimum match length (default 13)")
        p.add_argument("--m2", type=int, help="minimum gap-extension length (default 4)")
        p.add_argument("--m3", type=int, help="minimum reservoir literal run (default 32)")
        p.add_argument(
            "--checkpoint-interval", type=int, help="symbols per checkpoint window (default 8192)"
        )
        p.add_argument(
            "--candidate-cap", type=int, help="most match candidates per k-mer lookup (default 128)"
        )

    c = sub.add_parser("compress", help="compress FASTA files into an archive")
    c.add_argument("inputs", nargs="+", metavar="FASTA")
    c.add_argument("-o", "--output", required=True)
    ref = c.add_mutually_exclusive_group()
    ref.add_argument("--ref", help="FASTA file to use as the reference")
    ref.add_argument("--auto-ref", action="store_true", help="pick the reference heuristically")
    c.add_argument("--per-record", action="store_true", help="match records individually")
    c.add_argument("--profile", choices=["human"], help="human preset: m1=20, per-record")
    add_params(c)
    c.set_defaults(func=_cmd_compress)

    d = sub.add_parser("decompress", help="write the archived collection back as FASTA")
    d.add_argument("archive")
    d.add_argument("-o", "--output", required=True, help="output directory")
    d.add_argument("--threads", type=int, default=1)
    d.add_argument("--width", type=int, default=70, help="FASTA line width")
    d.set_defaults(func=_cmd_decompress)

    e = sub.add_parser("extract", help="extract one range of one sequence")
    e.add_argument("archive")
    e.add_argument("--seq", required=True, help="sequence name")
    e.add_argument("--range", required=True, help="start:end, half-open, 0-based")
    e.add_argument("-o", "--output", help="write FASTA here instead of stdout")
    e.add_argument("--width", type=int, default=70)
    e.set_defaults(func=_cmd_extract)

    s = sub.add_parser("select-ref", help="suggest a reference input")
    s.add_argument("inputs", nargs="+", metavar="FASTA")
    s.add_argument("--per-record", action="store_true")
    s.add_argument("--m1", type=int)
    s.set_defaults(func=_cmd_select_ref)

    t = sub.add_parser("stats", help="print archive section sizes and ratios")
    t.add_argument("archive")
    t.set_defaults(func=_cmd_stats)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("RLZG_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, IsADirectoryError, PermissionError, OSError) as exc:
        print(f"rlzg: {exc}", file=sys.stderr)
        return EXIT_IO
    except FastaError as exc:
        print(f"rlzg: bad FASTA input: {exc}", file=sys.stderr)
        return EXIT_IO
    except CorruptArchiveError as exc:
        print(f"rlzg: corrupt archive: {exc}", file=sys.stderr)
        return EXIT_CORRUPT
    except (ValueError, KeyError, RlzgError) as exc:
        print(f"rlzg: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
