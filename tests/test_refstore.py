import numpy as np
import pytest

from rlzg.errors import CorruptArchiveError
from rlzg.genome import N, encode_symbols
from rlzg.huffman import HuffmanTable, _placeholder
from rlzg.refstore import (
    BLOCK_SIZE,
    ReservoirProvenance,
    append_reservoir_phrase,
    decode_reference_range,
    encode_reference,
    pack_reference,
    packed_block_counts,
    range_payload_bytes,
    resolve_reservoir_range,
)


def encode(symbols):
    """encode_reference with the table compress builds for one reference."""
    packed = pack_reference(symbols)
    table = HuffmanTable.from_counts(_placeholder(packed_block_counts(packed)))
    return encode_reference(packed, table)


def random_ref(rng, n, n_run_prob=0.0):
    data = rng.integers(0, 4, n).astype(np.uint8)
    if n_run_prob and rng.random() < n_run_prob:
        start = int(rng.integers(0, max(n - 100, 1)))
        data[start : start + int(rng.integers(1, 20000))] = N
    return data


def test_two_all_n_blocks_equal_offsets_empty_payload():
    rb = encode(np.full(2 * BLOCK_SIZE, N, dtype=np.uint8))
    assert rb.offsets.tolist() == [0, 0, 0]
    assert rb.payload == b""
    assert rb.offsets[0] == rb.offsets[1] == rb.offsets[2]


def test_acg_packs_and_codes():
    rb = encode(encode_symbols("ACG"))
    assert rb.offsets.tolist() == [0, 1]
    # single distinct packed byte (value 7) -> one 1-bit code, one flushed byte
    assert rb.table.lengths[7] == 1
    assert np.array_equal(decode_reference_range(rb, 0, 3), encode_symbols("ACG"))


def test_uniform_random_acgt_near_two_bits_per_base():
    rng = np.random.default_rng(2)
    data = rng.integers(0, 4, 1_000_000).astype(np.uint8)
    rb = encode(data)
    bpb = len(rb.payload) * 8 / len(data)
    assert 1.99 <= bpb <= 2.06  # 64 uniform triplet values -> 6 bits / 3 bases


def test_full_range_roundtrip_50_random_sequences():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(0, 30000))
        data = random_ref(rng, n, n_run_prob=0.5)
        rb = encode(data)
        assert np.array_equal(decode_reference_range(rb, 0, n), data)


def test_empty_range():
    rb = encode(encode_symbols("ACGT"))
    assert len(decode_reference_range(rb, 2, 2)) == 0


def test_range_inside_all_n_block_reads_zero_bytes():
    data = np.full(3 * BLOCK_SIZE, N, dtype=np.uint8)
    data[: BLOCK_SIZE // 2] = 1
    data[-BLOCK_SIZE // 2 :] = 2
    rb = encode(data)
    lo, hi = BLOCK_SIZE + 10, 2 * BLOCK_SIZE - 10
    assert range_payload_bytes(rb, lo, hi) == 0
    assert (decode_reference_range(rb, lo, hi) == N).all()


def test_partial_decode_touches_only_overlapping_blocks():
    rng = np.random.default_rng(4)
    data = random_ref(rng, 5 * BLOCK_SIZE + 123)
    rb = encode(data)
    lo, hi = BLOCK_SIZE + 7, 3 * BLOCK_SIZE - 9
    want = data[lo:hi]
    # corrupt every byte outside the overlapping blocks' range; the decode
    # must not notice
    buf = bytearray(rb.payload)
    b0, b1 = lo // BLOCK_SIZE, -(-hi // BLOCK_SIZE)
    for i in range(len(buf)):
        if not rb.offsets[b0] <= i < rb.offsets[b1]:
            buf[i] ^= 0xFF
    rb.payload = bytes(buf)
    # resealed, so the digest check passes and only the decode could notice
    rb.digests = [rb._group_digest(g) for g in range(rb.n_groups)]
    assert np.array_equal(decode_reference_range(rb, lo, hi), want)


def test_random_subranges_match_source():
    rng = np.random.default_rng(5)
    data = random_ref(rng, 4 * BLOCK_SIZE + 55, n_run_prob=1.0)
    rb = encode(data)
    for _ in range(200):
        lo = int(rng.integers(0, len(data)))
        hi = int(rng.integers(lo, len(data) + 1))
        assert np.array_equal(decode_reference_range(rb, lo, hi), data[lo:hi])


def test_range_out_of_bounds():
    rb = encode(encode_symbols("ACGT"))
    with pytest.raises(ValueError):
        decode_reference_range(rb, 0, 5)
    with pytest.raises(ValueError):
        decode_reference_range(rb, -1, 2)


def provenance(rows):
    """A reader's provenance of the writer's ``rows``."""
    rows = np.array(rows, dtype=np.int64).reshape(-1, 3)
    return ReservoirProvenance(rows, np.concatenate(([0], np.cumsum(rows[:, 2]))))


def test_reservoir_append_offsets():
    rows = []
    append_reservoir_phrase(rows, (1, 100, 40), 32)
    assert rows == [(1, 100, 40)] and provenance(rows).total_length == 40
    append_reservoir_phrase(rows, (2, 5, 32), 32)
    assert provenance(rows).starts.tolist() == [0, 40, 72]
    assert provenance(rows).total_length == 72


def test_reservoir_minimum_length_enforced():
    rows = []
    with pytest.raises(ValueError):
        append_reservoir_phrase(rows, (1, 0, 31), 32)
    assert rows == []


def test_resolve_spans_entry_boundary():
    prov = provenance([(1, 100, 40), (2, 5, 32)])
    assert resolve_reservoir_range(prov, 35, 10) == [(1, 135, 5), (2, 5, 5)]
    assert resolve_reservoir_range(prov, 0, 40) == [(1, 100, 40)]
    with pytest.raises(CorruptArchiveError):
        resolve_reservoir_range(prov, 72, 1)


def test_resolve_pieces_cover_requested_length():
    rng = np.random.default_rng(6)
    rows = []
    for i in range(30):
        append_reservoir_phrase(rows, (i, int(rng.integers(0, 1000)), int(rng.integers(32, 200))), 32)
    prov = provenance(rows)
    for _ in range(100):
        off = int(rng.integers(0, prov.total_length))
        ln = int(rng.integers(0, prov.total_length - off))
        pieces = resolve_reservoir_range(prov, off, ln)
        assert sum(p[2] for p in pieces) == ln
