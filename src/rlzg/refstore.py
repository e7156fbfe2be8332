"""Compressed, randomly accessible storage of the reference sequence.

The reference is split into fixed blocks of 8192 symbols.  Blocks made
entirely of N contribute no payload at all (their start offset equals
the next block's).  Every other block is packed into base-5 triplet
bytes and Huffman-coded, flushed to a byte boundary so the per-block
start offsets address bytes and any block decodes standalone.

This module also tracks the provenance of the extra-reference-phrase
reservoir: the archive never stores reservoir content twice, only the
(origin sequence, origin position, length) of each appended literal
run, so random access can resolve a reservoir match back to its origin.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import CorruptArchiveError
from .genome import N
from .huffman import HuffmanTable, decode_chains, pack_codes
from .packing import pack_triplets, pad_segments, unpack_triplets

BLOCK_SIZE = 8192


@dataclass
class RefBlocks:
    """Coded reference payload plus its block index."""

    n_symbols: int
    offsets: np.ndarray  # byte offsets, one per block plus a terminator
    payload: bytes
    table: HuffmanTable
    block_size: ClassVar[int] = BLOCK_SIZE

    @property
    def n_blocks(self) -> int:
        return len(self.offsets) - 1

    def block_is_all_n(self, b: int) -> bool:
        return self.offsets[b] == self.offsets[b + 1]


def _packed_blocks(symbols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Triplet bytes of the blocks that are not all N, each block padded
    on its own, plus the packed bytes of every block (0 when all N)."""
    symbols = np.asarray(symbols, dtype=np.uint8)
    starts = np.arange(0, len(symbols), BLOCK_SIZE)
    sizes = np.minimum(len(symbols) - starts, BLOCK_SIZE)
    all_n = np.logical_and.reduceat(symbols == N, starts)
    padded, seg = pad_segments(symbols[np.repeat(~all_n, sizes)], np.where(all_n, 0, sizes), 3)
    return pack_triplets(padded), seg // 3


def packed_block_counts(symbols: np.ndarray) -> np.ndarray:
    """Byte frequencies of the triplet-packed non-all-N blocks (for
    building the Huffman table shared by every reference record)."""
    return np.bincount(_packed_blocks(symbols)[0], minlength=256)


def encode_reference(symbols: np.ndarray, table: HuffmanTable) -> RefBlocks:
    """Encode a reference sequence into blocked, Huffman-coded triplets
    with ``table``, built from :func:`packed_block_counts`."""
    packed, seg_bytes = _packed_blocks(symbols)
    payload, off = pack_codes(table.lengths[packed], table.codes[packed], seg_bytes)
    return RefBlocks(len(symbols), off, payload, table)


def decode_reference_range(rb: RefBlocks, start: int, end: int) -> np.ndarray:
    """Decode symbols [start, end) touching only the overlapping blocks."""
    if not 0 <= start <= end <= rb.n_symbols:
        raise ValueError(f"range [{start}, {end}) outside reference of {rb.n_symbols}")
    if start == end:
        return np.zeros(0, dtype=np.uint8)
    bs = rb.block_size
    b0, b1 = start // bs, -(-end // bs)
    local = np.frombuffer(rb.payload, dtype=np.uint8)[rb.offsets[b0] : rb.offsets[b1]]

    blocks = np.arange(b0, b1)
    sym_counts = np.minimum(rb.n_symbols - blocks * bs, bs)
    byte_counts = -(-sym_counts // 3)
    live = np.asarray(rb.offsets[b0:b1] != rb.offsets[b0 + 1 : b1 + 1])
    starts_bits = (rb.offsets[b0:b1] - rb.offsets[b0]) * 8
    vals, bounds, _ = decode_chains(
        local, rb.table, starts_bits[live], byte_counts[live]
    )

    # the live blocks unpack in one call; one mask then drops each one's
    # padding, the last (at most two) of its unpacked symbols
    syms = unpack_triplets(vals, len(vals) * 3)
    ends, pad = bounds[1:] * 3, (byte_counts * 3 - sym_counts)[live]
    keep = np.ones(len(syms), dtype=bool)
    keep[np.concatenate((ends[pad > 0] - 1, ends[pad > 1] - 2))] = False
    out = syms[keep]
    if not live.all():  # all-N blocks have no payload
        out, live_syms = np.full(int(sym_counts.sum()), N, dtype=np.uint8), out
        out[np.repeat(live, sym_counts)] = live_syms
    lo = start - b0 * bs
    return out[lo : lo + (end - start)]


def range_payload_bytes(rb: RefBlocks, start: int, end: int) -> int:
    """Coded bytes a decode of [start, end) touches (access-cost metric)."""
    if start >= end:
        return 0
    bs = rb.block_size
    b0, b1 = start // bs, -(-end // bs)
    return int(rb.offsets[b1] - rb.offsets[b0])


@dataclass
class ReservoirProvenance:
    """Origin bookkeeping for the extra-reference-phrase reservoir.

    Entries appear in append order; entry i covers reservoir offsets
    [starts[i], starts[i+1]).
    """

    entries: list[tuple[int, int, int]] = field(default_factory=list)
    starts: list[int] = field(default_factory=lambda: [0])

    @property
    def total_length(self) -> int:
        return self.starts[-1]


def append_reservoir_phrase(
    prov: ReservoirProvenance,
    origin: tuple[int, int, int],
    min_length: int,
) -> int:
    """Record one literal run appended to the reservoir; returns the
    run's reservoir offset.  Runs shorter than ``min_length`` (the M3
    threshold) are rejected."""
    seq_index, position, length = origin
    if length < min_length:
        raise ValueError(f"reservoir phrase of {length} shorter than minimum {min_length}")
    offset = prov.total_length
    prov.entries.append((seq_index, position, length))
    prov.starts.append(offset + length)
    return offset


def resolve_reservoir_range(
    prov: ReservoirProvenance, offset: int, length: int
) -> list[tuple[int, int, int]]:
    """Map reservoir interval [offset, offset+length) back to origin
    coordinates, split at entry boundaries."""
    if length < 0 or offset < 0 or offset + length > prov.total_length:
        raise CorruptArchiveError(
            f"reservoir range [{offset}, {offset + length}) outside total {prov.total_length}"
        )
    pieces: list[tuple[int, int, int]] = []
    i = bisect.bisect_right(prov.starts, offset) - 1
    remaining = length
    cursor = offset
    while remaining > 0:
        seq_index, position, entry_len = prov.entries[i]
        within = cursor - prov.starts[i]
        take = min(entry_len - within, remaining)
        pieces.append((seq_index, position + within, take))
        cursor += take
        remaining -= take
        i += 1
    return pieces
