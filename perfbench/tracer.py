"""Span tracing of rlzg's layers, installed from outside the program.

The tracer replaces public functions with timing wrappers at the module
names through which ``rlzg.archive``, ``rlzg.parse``, ``rlzg.streams``
and ``rlzg.refstore`` call them (``rlzg.archive.parse_sequence``,
``rlzg.streams.decode_chains``, ...), plus methods on the classes they
use.  Each call becomes a span: name, start, end, the span that was open
when it began (its parent) and the benchmark phase it belongs to (its
root).  Spans sit in flat arrays in memory until the run ends, so
tracing does no I/O and allocates no object per call.  A span's self
time is its duration minus the durations of its direct children; a
layer's self time is the sum of the self times of its spans.
"""
from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np

from rlzg import archive, genome, huffman, kmer, parse, refstore, streams


def _n_blocks(a, out) -> int:
    """Reference blocks a decode_reference_range(rb, start, end) covers."""
    rb, start, end = a[0], a[1], a[2]
    return -(-end // rb.block_size) - start // rb.block_size if end > start else 0


def _ref_range_blocks(a, out) -> int:
    """Reference blocks an Archive._ref_range(group, start, end) call asks for."""
    arc, group, start, end = a
    rb = arc.entries[arc.groups[group].reference].refblocks
    return -(-end // rb.block_size) - start // rb.block_size if end > start else 0


def _override(a, out) -> int:
    """choose_factor picked the cheap-offset candidate over the longest."""
    best, alt = a[0], a[1]
    return int(out is not None and out is alt and alt is not best)


# (owner, attribute, span name, value of a call or None, keep result)
SPAN_POINTS = [
    (genome, "parse_fasta", "genome.parse_fasta", None, False),
    (genome, "write_fasta", "genome.write_fasta", None, False),
    (archive, "KmerIndex", "kmer.build", None, True),
    (kmer.KmerIndex, "lookup", "kmer.lookup", lambda a, out: len(out), False),
    (parse, "common_prefix", "kmer.common_prefix", None, False),
    (parse, "hash_kmers", "kmer.hash_kmers", None, False),
    (kmer.KmerIndex, "extend_with_reservoir", "kmer.reservoir_index", None, False),
    (archive, "parse_sequence", "parse.parse_sequence", None, True),
    (parse, "choose_factor", "parse.choose_factor", _override, False),
    (archive, "encode_parse", "streams.encode_parse", None, False),
    (archive, "build_models", "streams.build_models", None, False),
    (archive, "compress_streams", "streams.compress_streams", None, False),
    (streams.SequenceDecoder, "prefetch_all", "streams.prefetch_all", None, False),
    (streams.SequenceDecoder, "factors_from", "streams.factors_from",
     lambda a, out: len(out[0]), False),
    (streams.SequenceDecoder, "_decode_windows", "streams.decode_windows",
     lambda a, out: len(a[1]), False),
    (huffman.HuffmanTable, "from_counts", "huffman.from_counts", None, False),
    (streams, "pack_codes", "huffman.pack_codes", None, False),
    (refstore, "pack_codes", "huffman.pack_codes", None, False),
    (streams, "decode_chains", "huffman.decode_chains", None, False),
    (refstore, "decode_chains", "huffman.decode_chains", None, False),
    (streams, "follow_chains", "huffman.follow_chains", None, False),
    (streams, "pack_triplets", "packing.pack_triplets", None, False),
    (refstore, "pack_triplets", "packing.pack_triplets", None, False),
    (streams, "unpack_triplets", "packing.unpack_triplets", None, False),
    (refstore, "unpack_triplets", "packing.unpack_triplets", None, False),
    (archive, "encode_reference", "refstore.encode_reference", None, False),
    (archive, "packed_block_counts", "refstore.packed_block_counts", None, False),
    (archive, "decode_reference_range", "refstore.decode_reference_range", _n_blocks, False),
    (archive, "append_reservoir_phrase", "refstore.append_reservoir_phrase", None, False),
    # Archive._materialize_reservoir imports it from rlzg.refstore at call time
    (refstore, "resolve_reservoir_range", "refstore.resolve_reservoir_range", None, False),
    (archive, "compress", "archive.compress", None, False),
    (archive.Archive, "to_bytes", "archive.to_bytes", None, False),
    (archive.Archive, "from_bytes", "archive.from_bytes", None, False),
    (archive.Archive, "decompress", "archive.decompress", None, False),
    (archive.Archive, "extract", "archive.extract", None, False),
    (archive.Archive, "_ref_range", "archive.ref_range", _ref_range_blocks, False),
]

# Called once per factor on decode: counted, not timed.
TALLY_POINTS = [(archive, "apply_factor", "archive.apply_factor")]


class Tracer:
    """Installs the wrappers and records their spans and tallies."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.value = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.tallies: dict[str, int] = {}
        self.kept: dict[str, list] = {}
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.t0)
        stack = self._stack
        parent = stack[-1] if stack else -1
        self.name.append(nid)
        self.parent.append(parent)
        self.root.append(self.root[parent] if parent >= 0 else idx)
        self.value.append(0)
        self.t0.append(0.0)
        self.t1.append(0.0)
        stack.append(idx)
        return idx

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (a phase root)."""
        idx = self._open(self._id(name))
        self.t0[idx] = time.perf_counter()
        try:
            yield
        finally:
            self.t1[idx] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, value, keep: bool):
        nid = self._id(name)
        kept = self.kept.setdefault(name, []) if keep else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = self._open(nid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.t0[idx] = start
                self.t1[idx] = end
            if value is not None:
                self.value[idx] = value(args, out)
            if kept is not None:
                kept.append(out)
            return out

        return traced

    def _tally(self, fn, name: str):
        tallies = self.tallies
        tallies.setdefault(name, 0)

        def counted(*args, **kwargs):
            tallies[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        for owner, attr, name, value, keep in SPAN_POINTS:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, value, keep))
            else:
                wrapped = self._wrap(raw, name, value, keep)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        for owner, attr, name in TALLY_POINTS:
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, self._tally(raw, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def mark(self) -> int:
        return len(self.t0)

    def spans(self):
        """The recorded spans as numpy arrays (views of the flat buffers)."""
        t0 = np.frombuffer(self.t0, dtype=np.float64)
        t1 = np.frombuffer(self.t1, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = t1 - t0
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return Spans(
            self.names,
            np.frombuffer(self.name, dtype=np.int32),
            parent,
            np.frombuffer(self.root, dtype=np.int32),
            np.frombuffer(self.value, dtype=np.int64),
            dur,
            dur - child,
        )


class Spans:
    """Column view of recorded spans with per-name and per-layer sums."""

    def __init__(self, names, name, parent, root, value, dur, self_time):
        self.names = names
        self.name, self.parent, self.root = name, parent, root
        self.value, self.dur, self.self_time = value, dur, self_time

    def select(self, lo: int, hi: int, name: str, parent: str | None = None,
               root: str | None = None) -> np.ndarray:
        """Indices in [lo, hi) of spans called ``name`` (optionally with
        a given parent or root span name)."""
        if name not in self.names:
            return np.zeros(0, dtype=np.int64)
        idx = lo + np.flatnonzero(self.name[lo:hi] == self.names.index(name))
        for rel, want in ((self.parent, parent), (self.root, root)):
            if want is not None:
                if want not in self.names:
                    return np.zeros(0, dtype=np.int64)
                up = rel[idx]
                idx = idx[(up >= 0) & (self.name[np.maximum(up, 0)] == self.names.index(want))]
        return idx

    def total(self, lo, hi, name, **kw) -> float:
        return float(self.dur[self.select(lo, hi, name, **kw)].sum())

    def count(self, lo, hi, name, **kw) -> int:
        return int(len(self.select(lo, hi, name, **kw)))

    def values(self, lo, hi, name, **kw) -> np.ndarray:
        return self.value[self.select(lo, hi, name, **kw)]

    def self_of(self, lo, hi, name) -> float:
        return float(self.self_time[self.select(lo, hi, name)].sum())

    def layer_self(self, lo: int, hi: int, layer: str) -> float:
        ids = [i for i, n in enumerate(self.names) if n.split(".")[0] == layer]
        return float(self.self_time[lo:hi][np.isin(self.name[lo:hi], ids)].sum())

    def by_name(self, lo: int, hi: int) -> dict[str, dict]:
        """count, total and self seconds of every span name in [lo, hi)."""
        out = {}
        for i, n in enumerate(self.names):
            sel = self.name[lo:hi] == i
            if sel.any():
                out[n] = {
                    "count": int(sel.sum()),
                    "total_s": float(self.dur[lo:hi][sel].sum()),
                    "self_s": float(self.self_time[lo:hi][sel].sum()),
                }
        return out
