"""Per-layer figures of a traced run, one layer per rlzg module.

Every figure is taken per traced round (one compress, the round's
decompressions, long-lived extracts and one-shot extracts) and the
median over the traced rounds is reported.  Times are summed span
durations in seconds; ``*.self_s`` is a layer's time minus the spans of
other layers nested inside it.
"""
from __future__ import annotations

import statistics

PER_LAYER_UNITS = {
    "genome.parse_fasta_s": "s",
    "genome.write_fasta_s": "s",
    "kmer.build_s": "s",
    "kmer.lookups": "count",
    "kmer.empty_lookups": "count",
    "kmer.capped_lookups": "count",
    "kmer.lookup_s": "s",
    "kmer.common_prefix_calls": "count",
    "kmer.common_prefix_s": "s",
    "kmer.reservoir_grams": "count",
    "kmer.reservoir_index_s": "s",
    "kmer.self_s": "s",
    "parse.parse_s": "s",
    "parse.self_s": "s",
    "parse.factors_literal": "count",
    "parse.factors_match": "count",
    "parse.factors_nrun": "count",
    "parse.factors_reservoir": "count",
    "parse.gaps": "count",
    "parse.overrides": "count",
    "parse.reservoir_phrases": "count",
    "streams.encode_parse_s": "s",
    "streams.build_models_s": "s",
    "streams.compress_streams_s": "s",
    "streams.prefetch_s": "s",
    "streams.factor_walk_s": "s",
    "streams.factors_decoded": "count",
    "streams.window_s": "s",
    "streams.windows_decoded": "count",
    "streams.self_s": "s",
    "huffman.from_counts_s": "s",
    "huffman.encode_s": "s",
    "huffman.decode_s": "s",
    "huffman.self_s": "s",
    "packing.pack_s": "s",
    "packing.unpack_s": "s",
    "refstore.encode_s": "s",
    "refstore.decode_s": "s",
    "refstore.blocks_decoded": "count",
    "refstore.reservoir_resolves": "count",
    "refstore.self_s": "s",
    "archive.to_bytes_s": "s",
    "archive.from_bytes_s": "s",
    "archive.reconstruct_s": "s",
    "archive.apply_factor_calls": "count",
    "archive.ref_block_hit_ratio": "ratio",
    "archive.extract_reported_kib": "KiB",
    "archive.self_s": "s",
    "trace.compress_mbps": "Mbase/s",
    "trace.decompress_mbps": "Mbase/s",
    "trace.compress_overhead": "x",
    "trace.decompress_overhead": "x",
}


def fold_kept(tracer) -> dict[str, int]:
    """Counts from the results the tracer kept this round (the parses and
    the k-mer indexes), which are then let go."""
    from rlzg.parse import LITERAL, MATCH, NRUN, RESERVOIR

    kinds = {LITERAL: 0, MATCH: 0, NRUN: 0, RESERVOIR: 0}
    gaps = 0
    parses = tracer.kept.get("parse.parse_sequence", [])
    for p in parses:
        for f in p.factors:
            kinds[f.kind] += 1
            gaps += len(f.gap_symbols)
    indexes = tracer.kept.get("kmer.build", [])
    grams = sum(len(v) for idx in indexes for v in idx.res_buckets.values())
    parses.clear()
    indexes.clear()
    return {
        "parse.factors_literal": kinds[LITERAL],
        "parse.factors_match": kinds[MATCH],
        "parse.factors_nrun": kinds[NRUN],
        "parse.factors_reservoir": kinds[RESERVOIR],
        "parse.gaps": gaps,
        "kmer.reservoir_grams": grams,
    }


def _round_figures(sp, lo: int, hi: int, cap: int, apply_calls: int) -> dict[str, float]:
    lookups = sp.values(lo, hi, "kmer.lookup")
    lazy = sp.select(lo, hi, "streams.decode_windows", parent="streams.factors_from")
    requested = int(sp.values(lo, hi, "archive.ref_range", root="bench.extract").sum())
    misses = sp.count(lo, hi, "refstore.decode_reference_range",
                      parent="archive.ref_range", root="bench.extract")
    return {
        "genome.parse_fasta_s": sp.total(lo, hi, "genome.parse_fasta"),
        "genome.write_fasta_s": sp.total(lo, hi, "genome.write_fasta"),
        "kmer.build_s": sp.total(lo, hi, "kmer.build"),
        "kmer.lookups": len(lookups),
        "kmer.empty_lookups": int((lookups == 0).sum()),
        "kmer.capped_lookups": int((lookups == cap).sum()),
        "kmer.lookup_s": sp.total(lo, hi, "kmer.lookup"),
        "kmer.common_prefix_calls": sp.count(lo, hi, "kmer.common_prefix"),
        "kmer.common_prefix_s": sp.total(lo, hi, "kmer.common_prefix"),
        "kmer.reservoir_index_s": sp.total(lo, hi, "kmer.reservoir_index"),
        "kmer.self_s": sp.layer_self(lo, hi, "kmer"),
        "parse.parse_s": sp.total(lo, hi, "parse.parse_sequence"),
        "parse.self_s": sp.layer_self(lo, hi, "parse"),
        "parse.overrides": int(sp.values(lo, hi, "parse.choose_factor").sum()),
        "parse.reservoir_phrases": sp.count(lo, hi, "refstore.append_reservoir_phrase"),
        "streams.encode_parse_s": sp.total(lo, hi, "streams.encode_parse"),
        "streams.build_models_s": sp.total(lo, hi, "streams.build_models"),
        "streams.compress_streams_s": sp.total(lo, hi, "streams.compress_streams"),
        "streams.prefetch_s": sp.total(lo, hi, "streams.prefetch_all"),
        "streams.factor_walk_s": sp.self_of(lo, hi, "streams.factors_from"),
        "streams.factors_decoded": int(sp.values(lo, hi, "streams.factors_from").sum()),
        "streams.window_s": float(sp.dur[lazy].sum()),
        "streams.windows_decoded": int(sp.value[lazy].sum()),
        "streams.self_s": sp.layer_self(lo, hi, "streams"),
        "huffman.from_counts_s": sp.total(lo, hi, "huffman.from_counts"),
        "huffman.encode_s": sp.total(lo, hi, "huffman.pack_codes"),
        "huffman.decode_s": sp.total(lo, hi, "huffman.decode_chains")
        + sp.total(lo, hi, "huffman.follow_chains"),
        "huffman.self_s": sp.layer_self(lo, hi, "huffman"),
        "packing.pack_s": sp.total(lo, hi, "packing.pack_triplets"),
        "packing.unpack_s": sp.total(lo, hi, "packing.unpack_triplets"),
        "refstore.encode_s": sp.total(lo, hi, "refstore.encode_reference")
        + sp.total(lo, hi, "refstore.packed_block_counts"),
        "refstore.decode_s": sp.total(lo, hi, "refstore.decode_reference_range"),
        "refstore.blocks_decoded": int(sp.values(lo, hi, "refstore.decode_reference_range").sum()),
        "refstore.reservoir_resolves": sp.count(lo, hi, "refstore.resolve_reservoir_range"),
        "refstore.self_s": sp.layer_self(lo, hi, "refstore"),
        "archive.to_bytes_s": sp.total(lo, hi, "archive.to_bytes"),
        "archive.from_bytes_s": sp.total(lo, hi, "archive.from_bytes"),
        "archive.reconstruct_s": sp.self_of(lo, hi, "archive.decompress"),
        "archive.apply_factor_calls": apply_calls,
        "archive.ref_block_hit_ratio": 1 - misses / requested if requested else 1.0,
        "archive.self_s": sp.layer_self(lo, hi, "archive"),
    }


def per_layer(bench, tracer, marks, untraced) -> tuple[dict[str, float], dict]:
    """Median per-layer figures over the traced rounds, plus span
    totals by name for the whole run."""
    from rlzg.parse import ParseParams

    cap = ParseParams().candidate_cap
    sp = tracer.spans()
    rounds = []
    for lo, hi, rec, kept in marks:
        fig = _round_figures(sp, lo, hi, cap, rec["apply_factor_calls"])
        fig.update(kept)
        rounds.append(fig)
    out = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}

    bases = bench.corpus.bases
    traced = [rec for _, _, rec, _ in marks]

    def median_of(recs, key) -> float:
        vals = [r[key] for r in recs if key in r]
        flat = [t for v in vals for t in (v if isinstance(v, list) else [v])]
        return statistics.median(flat) if flat else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if a and b else 0.0

    c_tr, c_un = median_of(traced, "compress_s"), median_of(untraced, "compress_s")
    d_tr, d_un = median_of(traced, "decompress_s"), median_of(untraced, "decompress_s")
    reported = bench.reported_kib
    out["archive.extract_reported_kib"] = statistics.median(reported) if reported else 0.0
    out["trace.compress_mbps"] = ratio(bases / 1e6, c_tr)
    out["trace.decompress_mbps"] = ratio(bases / 1e6, d_tr)
    out["trace.compress_overhead"] = ratio(c_tr, c_un)
    out["trace.decompress_overhead"] = ratio(d_tr, d_un)
    return {k: out[k] for k in PER_LAYER_UNITS}, sp.by_name(0, len(sp.dur))
