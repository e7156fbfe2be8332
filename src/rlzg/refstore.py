"""Compressed, randomly accessible storage of the reference sequence.

The reference is split into fixed blocks of 8192 symbols.  Blocks made
entirely of N contribute no payload at all (their start offset equals
the next block's).  Every other block is packed into base-5 triplet
bytes and Huffman-coded, flushed to a byte boundary so the per-block
start offsets address bytes and any block decodes standalone.  Each run
of ``GROUP_BLOCKS`` blocks carries one digest in the archive, and a
block read from an archive decodes only after its group's digest holds.

This module also tracks the provenance of the extra-reference-phrase
reservoir: the archive never stores reservoir content twice, only the
(origin member, origin position, length) of each appended literal run,
so random access can resolve a reservoir match back to the literal runs
of its origins.  The writer collects these rows in a plain list; a
reader holds them as a :class:`ReservoirProvenance`.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import CorruptArchiveError
from .genome import N
from .huffman import HuffmanTable, decode_chains, pack_codes
from .packing import pack_triplets, pad_segments, unpack_triplets

BLOCK_SIZE = 8192
GROUP_BLOCKS = 8  # blocks per digest unit (64 Kbase)


def digest64(*parts) -> bytes:
    """BLAKE2b with an 8-byte digest (RFC 7693) over ``parts`` in order:
    the check of one archive unit."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(part)
    return h.digest()


@dataclass
class RefBlocks:
    """Coded reference payload plus its block index.

    ``digests`` holds one digest per group of ``GROUP_BLOCKS`` blocks,
    computed by :func:`encode_reference` or read from an archive.
    :func:`decode_reference_range` checks a group before it decodes any
    of its blocks; a group that matched is remembered, one that did not
    is checked again on every touch.
    """

    n_symbols: int
    offsets: np.ndarray  # byte offsets, one per block plus a terminator
    payload: bytes
    table: HuffmanTable
    digests: list[bytes]
    _checked: set[int] = field(default_factory=set, init=False, repr=False, compare=False)
    block_size: ClassVar[int] = BLOCK_SIZE

    @property
    def n_blocks(self) -> int:
        return len(self.offsets) - 1

    @property
    def n_groups(self) -> int:
        return -(-self.n_blocks // GROUP_BLOCKS)

    def _group_digest(self, g: int) -> bytes:
        lo = g * GROUP_BLOCKS
        hi = min(lo + GROUP_BLOCKS, self.n_blocks)
        return digest64(self.payload[int(self.offsets[lo]) : int(self.offsets[hi])])

    def check_blocks(self, b0: int, b1: int) -> None:
        """Raise :class:`CorruptArchiveError` unless the groups holding
        blocks [b0, b1) match their digests."""
        checked = self._checked
        for g in range(b0 // GROUP_BLOCKS, -(-b1 // GROUP_BLOCKS)):
            if g not in checked:
                if self._group_digest(g) != self.digests[g]:
                    raise CorruptArchiveError(f"reference block group {g} fails its digest")
                checked.add(g)


@dataclass
class PackedReference:
    """A reference's blocks, triplet-packed once for both the shared
    table's counts and the coding."""

    n_symbols: int
    packed: np.ndarray  # triplet bytes of the non-all-N blocks, each padded on its own
    block_bytes: np.ndarray  # packed bytes of every block (0 when all N)


def pack_reference(symbols: np.ndarray) -> PackedReference:
    """Triplet-pack the blocks of a reference that are not all N."""
    symbols = np.asarray(symbols, dtype=np.uint8)
    starts = np.arange(0, len(symbols), BLOCK_SIZE)
    sizes = np.minimum(len(symbols) - starts, BLOCK_SIZE)
    all_n = np.logical_and.reduceat(symbols == N, starts)
    padded, seg = pad_segments(symbols[np.repeat(~all_n, sizes)], np.where(all_n, 0, sizes), 3)
    return PackedReference(len(symbols), pack_triplets(padded), seg // 3)


def packed_block_counts(ref: PackedReference) -> np.ndarray:
    """Byte frequencies of the packed blocks (for building the Huffman
    table shared by every reference record)."""
    return np.bincount(ref.packed, minlength=256)


def encode_reference(ref: PackedReference, table: HuffmanTable) -> RefBlocks:
    """Encode a packed reference into blocked, Huffman-coded triplets
    with ``table``, built from :func:`packed_block_counts`."""
    payload, off = pack_codes(table.lengths[ref.packed], table.codes[ref.packed], ref.block_bytes)
    rb = RefBlocks(ref.n_symbols, off, payload, table, [])
    rb.digests = [rb._group_digest(g) for g in range(rb.n_groups)]
    return rb


def decode_reference_range(rb: RefBlocks, start: int, end: int) -> np.ndarray:
    """Decode symbols [start, end) touching only the overlapping blocks."""
    if not 0 <= start <= end <= rb.n_symbols:
        raise ValueError(f"range [{start}, {end}) outside reference of {rb.n_symbols}")
    if start == end:
        return np.zeros(0, dtype=np.uint8)
    bs = rb.block_size
    b0, b1 = start // bs, -(-end // bs)
    rb.check_blocks(b0, b1)
    local = np.frombuffer(rb.payload, dtype=np.uint8)[rb.offsets[b0] : rb.offsets[b1]]

    blocks = np.arange(b0, b1)
    sym_counts = np.minimum(rb.n_symbols - blocks * bs, bs)
    byte_counts = -(-sym_counts // 3)
    live = np.asarray(rb.offsets[b0:b1] != rb.offsets[b0 + 1 : b1 + 1])
    bits = (rb.offsets[b0 : b1 + 1] - rb.offsets[b0]) * 8
    vals, bounds, _ = decode_chains(
        local, rb.table, bits[:-1][live], byte_counts[live], bits[1:][live]
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
    """Origin of every reservoir phrase of a group, as read from an
    archive: row i of the int64 table ``rows`` is the (origin member,
    origin position, length) of the i-th literal run appended, covering
    reservoir offsets [starts[i], starts[i+1])."""

    rows: np.ndarray
    starts: np.ndarray

    @property
    def total_length(self) -> int:
        return int(self.starts[-1])


def append_reservoir_phrase(
    rows: list[tuple[int, int, int]], origin: tuple[int, int, int], min_length: int
) -> None:
    """Record one literal run appended to the reservoir as the row
    ``origin``, (origin member, origin position, length), in the
    writer's provenance ``rows``.  Runs shorter than ``min_length`` (the
    M3 threshold) are rejected."""
    length = origin[2]
    if length < min_length:
        raise ValueError(f"reservoir phrase of {length} shorter than minimum {min_length}")
    rows.append(origin)


def resolve_reservoir_range(
    prov: ReservoirProvenance, offset: int, length: int
) -> list[tuple[int, int, int]]:
    """Map reservoir interval [offset, offset+length) back to origin
    coordinates, split at entry boundaries: the rows it overlaps, the
    first and last clipped to it."""
    end = offset + length
    if length < 0 or offset < 0 or end > prov.total_length:
        raise CorruptArchiveError(
            f"reservoir range [{offset}, {end}) outside total {prov.total_length}"
        )
    if length == 0:
        return []
    starts = prov.starts
    lo = int(np.searchsorted(starts, offset, side="right")) - 1
    hi = int(np.searchsorted(starts, end))
    pieces = prov.rows[lo:hi].copy()
    head = offset - int(starts[lo])
    pieces[0, 1:] += (head, -head)
    pieces[-1, 2] -= int(starts[hi]) - end
    return list(zip(*pieces.T.tolist()))
