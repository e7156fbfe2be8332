#!/usr/bin/env python3
"""The blocked reference store: 8192-symbol blocks, free all-N blocks,
and local decoding.

Each block is packed three-symbols-per-byte (base 5) and Huffman coded
independently to a byte boundary, so a range decode touches only the
overlapping blocks.  Blocks made entirely of N cost zero payload bytes;
their index offsets simply repeat.
"""
import numpy as np

from rlzg.genome import N
from rlzg.huffman import HuffmanTable
from rlzg.refstore import (
    BLOCK_SIZE,
    decode_reference_range,
    encode_reference,
    pack_reference,
    packed_block_counts,
    range_payload_bytes,
)
from rlzg.synthetic import random_reference

rng = np.random.default_rng(31)
ref = random_reference(rng, 6 * BLOCK_SIZE)
ref[2 * BLOCK_SIZE : 4 * BLOCK_SIZE] = N  # two whole blocks of N

# one Huffman table over the packed bytes of the non-all-N blocks, as compress builds it
packed = pack_reference(ref)
rb = encode_reference(packed, HuffmanTable.from_counts(packed_block_counts(packed)))
print(f"{rb.n_blocks} blocks, payload {len(rb.payload)} bytes "
      f"({8 * len(rb.payload) / len(ref):.3f} bits per base)")
print("block start offsets:", rb.offsets.tolist())
print("all-N blocks:", [b for b in range(rb.n_blocks) if rb.offsets[b] == rb.offsets[b + 1]])

for lo, hi in ((1000, 1200), (2 * BLOCK_SIZE + 50, 3 * BLOCK_SIZE), (0, len(ref))):
    got = decode_reference_range(rb, lo, hi)
    assert np.array_equal(got, ref[lo:hi])
    print(f"decode [{lo:>6}:{hi:>6}) touches {range_payload_bytes(rb, lo, hi):>6} payload bytes")
