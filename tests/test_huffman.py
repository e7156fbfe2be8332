import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlzg.errors import CorruptArchiveError
from rlzg.huffman import MAX_CODE_LEN, HuffmanTable, _walks_in_lockstep, decode_chains, pack_codes
from rlzg.parse import LITERAL, Factor, ParseParams
from rlzg.refstore import (
    BLOCK_SIZE, decode_reference_range, encode_reference, pack_reference, packed_block_counts,
)
from rlzg.streams import N_MODELS, ModelSet, compress_streams, encode_parse
from rlzg.synthetic import random_reference

from factor_lists import parse_of


def counts_from(pairs: dict[int, int]) -> np.ndarray:
    counts = np.zeros(256, dtype=np.int64)
    for sym, c in pairs.items():
        counts[sym] = c
    return counts


def brute_force_optimal_bits(freqs: list[int]) -> int:
    """Minimal total bits over all prefix codes (small alphabets only)."""
    n = len(freqs)
    if n == 1:
        return freqs[0]
    best = None
    for lens in itertools.product(range(1, n + 1), repeat=n):
        if sum(2 ** (n - l) for l in lens) != 2**n:  # Kraft equality
            continue
        cost = sum(f * l for f, l in zip(freqs, lens))
        if best is None or cost < best:
            best = cost
    return best


class BitWriter:
    """MSB-first per-bit writer: the oracle for :func:`pack_codes`."""

    def __init__(self):
        self.data = bytearray()
        self.bit_len = 0

    def write_code(self, code: int, length: int) -> None:
        for b in range(length - 1, -1, -1):
            if self.bit_len & 7 == 0:
                self.data.append(0)
            if (code >> b) & 1:
                self.data[-1] |= 0x80 >> (self.bit_len & 7)
            self.bit_len += 1

    def flush_to_byte_boundary(self) -> None:
        self.bit_len = len(self.data) * 8


def pack(table: HuffmanTable, values) -> np.ndarray:
    """The codewords of ``values`` as one byte-flushed segment."""
    values = np.asarray(values, dtype=np.uint8)
    payload, _ = pack_codes(table.lengths[values], table.codes[values], [len(values)])
    return np.frombuffer(payload, dtype=np.uint8)


def roundtrip(values: np.ndarray, table: HuffmanTable) -> np.ndarray:
    vals, _, _ = decode_chains(pack(table, values), table, [0], [len(values)])
    return vals


def test_single_symbol_gets_one_bit():
    table = HuffmanTable.from_counts(counts_from({7: 12}))
    assert table.lengths[7] == 1
    assert table.lengths.sum() == 1


def test_two_symbols_length_one_each():
    table = HuffmanTable.from_counts(counts_from({0: 1, 1: 1}))
    assert table.lengths[0] == 1 and table.lengths[1] == 1


def test_skewed_four_symbol_code():
    table = HuffmanTable.from_counts(counts_from({0: 8, 1: 4, 2: 2, 3: 2}))
    assert sorted(table.lengths[:4].tolist()) == [1, 2, 3, 3]
    data = np.repeat(np.arange(4, dtype=np.uint8), [8, 4, 2, 2])
    assert int(table.lengths[data].sum()) == 28


def test_all_zero_counts_rejected():
    with pytest.raises(ValueError):
        HuffmanTable.from_counts(np.zeros(256, dtype=np.int64))


def test_optimality_vs_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(120):
        n = int(rng.integers(1, 7))
        freqs = rng.integers(1, 50, n).tolist()
        table = HuffmanTable.from_counts(counts_from(dict(enumerate(freqs))))
        data = np.repeat(np.arange(n, dtype=np.uint8), freqs)
        assert int(table.lengths[data].sum()) == brute_force_optimal_bits(freqs)


def test_independent_tree_oracle_large_alphabet():
    # cross-check total coded bits against a separate heap-based tree
    import heapq

    rng = np.random.default_rng(3)
    counts = rng.integers(0, 1000, 256)
    counts[counts < 30] = 0
    counts[0] = 5  # ensure at least one symbol
    table = HuffmanTable.from_counts(counts)

    heap = [(int(c), i, 0) for i, c in enumerate(counts) if c]
    entries = {i: 0 for _, i, _ in heap}
    if len(heap) > 1:
        heapq.heapify(heap)
        nodes = {i: [i] for _, i, _ in heap}
        nxt = 256
        while len(heap) > 1:
            c1, i1, _ = heapq.heappop(heap)
            c2, i2, _ = heapq.heappop(heap)
            for s in nodes[i1] + nodes[i2]:
                entries[s] += 1
            nodes[nxt] = nodes.pop(i1) + nodes.pop(i2)
            heapq.heappush(heap, (c1 + c2, nxt, 0))
            nxt += 1
    else:
        entries[heap[0][1]] = 1
    oracle_bits = sum(int(counts[s]) * l for s, l in entries.items())
    got_bits = int((table.lengths.astype(np.int64) * counts).sum())
    assert got_bits == oracle_bits


def fibonacci(n: int) -> list[int]:
    """The first ``n`` Fibonacci numbers: as counts they force an
    unconstrained Huffman depth above 15 once ``n`` passes 16."""
    fib = [1, 1]
    while len(fib) < n:
        fib.append(fib[-1] + fib[-2])
    return fib


def test_length_cap_on_fibonacci_counts():
    fib = fibonacci(24)
    counts = counts_from(dict(enumerate(fib)))
    table = HuffmanTable.from_counts(counts)
    assert int(table.lengths.max()) <= MAX_CODE_LEN
    nz = table.lengths[table.lengths > 0].astype(np.int64)
    assert int(np.sum(1 << (15 - nz))) == 1 << 15  # Kraft equality holds
    data = np.repeat(np.arange(24, dtype=np.uint8), fib)
    assert np.array_equal(roundtrip(data, table), data)


def test_empty_stream_zero_bits():
    table = HuffmanTable.from_counts(counts_from({7: 1}))
    empty = np.zeros(0, dtype=np.uint8)
    assert int(table.lengths[empty].sum()) == 0
    assert pack(table, empty).tobytes() == b""


def test_eight_single_symbol_bytes_one_flushed_byte():
    table = HuffmanTable.from_counts(counts_from({7: 1}))
    data = np.full(8, 7, dtype=np.uint8)
    assert int(table.lengths[data].sum()) == 8
    buf = pack(table, data)
    assert len(buf) == 1
    out, _, _ = decode_chains(buf, table, [0], [8])
    assert out.tolist() == [7] * 8


def test_encode_rejects_uncovered_byte():
    table = HuffmanTable.from_counts(counts_from({7: 1}))
    literal = Factor(LITERAL, lengths=(1,), symbols=np.array([2], dtype=np.uint8))
    raw = encode_parse(parse_of([literal], 1), ParseParams())
    with pytest.raises(ValueError, match="stream byte missing from its model"):
        compress_streams(raw, ModelSet((table,) * N_MODELS))


def test_roundtrip_random_4kb():
    rng = np.random.default_rng(5)
    data = rng.integers(0, 256, 4096).astype(np.uint8)
    table = HuffmanTable.from_counts(np.bincount(data, minlength=256))
    assert np.array_equal(roundtrip(data, table), data)


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=1, max_size=3000))
def test_roundtrip_property(raw):
    data = np.frombuffer(raw, dtype=np.uint8)
    table = HuffmanTable.from_counts(np.bincount(data, minlength=256))
    assert np.array_equal(roundtrip(data, table), data)


def _encoder_cases():
    """(table, values, segment sizes, longest codeword the values use)."""
    rng = np.random.default_rng(9)
    squares = (rng.integers(0, 256, 700) ** 2 % 256).astype(np.uint8)
    fib = HuffmanTable.from_counts(counts_from(dict(enumerate(fibonacci(24)))))
    sixteen = HuffmanTable.from_counts(counts_from({i: 1 for i in range(16)}))
    zero_first = HuffmanTable.from_counts(counts_from({0: 12, 1: 2, 2: 1, 3: 1}))
    return {
        "random": (
            HuffmanTable.from_counts(np.bincount(squares, minlength=256)),
            squares, [300, 0, 1, 399], 7,
        ),
        "lone-symbol": (HuffmanTable.from_counts(counts_from({7: 1})), [7] * 21, [5, 8, 0, 8], 1),
        "15-bit": (fib, rng.permutation(np.repeat(np.arange(24), 3)), [30, 0, 42], 15),
        # symbol 0 holds the all-zero codeword: a segment of it is all zero bytes
        "zero-values": (zero_first, [0] * 17 + [1, 0, 2, 3, 0], [17, 5], 3),
        "all-empty": (fib, [], [0, 0, 0], 0),
        # 4-bit codes: the first three segments end on byte boundaries
        "byte-boundary": (sixteen, rng.permutation(16), [2, 4, 1, 9], 4),
    }


@pytest.mark.parametrize("case", list(_encoder_cases()))
def test_vectorized_encoder_matches_bit_writer(case):
    table, data, sizes, longest = _encoder_cases()[case]
    data = np.asarray(data, dtype=np.uint8)
    assert int(table.lengths[data].max(initial=0)) == longest
    payload, off = pack_codes(table.lengths[data], table.codes[data], sizes)
    w_slow = BitWriter()
    slow_off = [0]
    for seg in np.split(data, np.cumsum(sizes)[:-1]):
        for v in seg:
            w_slow.write_code(int(table.codes[v]), int(table.lengths[v]))
        w_slow.flush_to_byte_boundary()
        slow_off.append(len(w_slow.data))
    assert payload == bytes(w_slow.data)
    assert off.tolist() == slow_off
    assert int(off[-1]) * 8 == w_slow.bit_len


def test_truncated_stream_detected():
    table = HuffmanTable.from_counts(counts_from({3: 1, 5: 1}))
    with pytest.raises(CorruptArchiveError, match="truncated"):
        decode_chains(pack(table, [3, 5, 3]), table, [0], [100])

    # A last codeword cut at the buffer end must not decode from the zero
    # padding past it: [5, 6, 7] in 3-bit codes would read back [5, 6, 6].
    t3 = HuffmanTable.from_counts(counts_from({i: 1 for i in range(8)}))
    cut = pack(t3, [5, 6, 7])[:1]
    # symbol 5 carries 9 extra bits: records 6 and 5 take 3 + 3 + 9 bits
    x3 = HuffmanTable(t3.lengths, (np.arange(256) == 5).astype(np.uint8) * 9)
    rec, _ = pack_codes(np.array([3, 3, 9]), np.array([t3.codes[6], t3.codes[5], 0x155]), [3])
    rec = np.frombuffer(rec, dtype=np.uint8)
    cases = [
        (cut, t3, [3], None),  # a codeword cut at the buffer end
        (rec[:1], x3, [2], None),  # extra bits cut at the buffer end
        # the same chain after an empty and a whole chain
        (np.concatenate([pack(t3, [6]), rec[:1]]), x3, [0, 1, 2], None),
        # a whole buffer, but the chain must end after its first byte
        (rec, x3, [2], [8]),
        # the first of two chains runs into the second's bytes
        (np.concatenate([rec[:1], rec]), x3, [2, 2], [8, 24]),
    ]
    for buf, table, counts, ends in cases:
        starts = [0, 0, 8][: len(counts)] if len(counts) != 2 or ends is None else [0, 8]
        with pytest.raises(CorruptArchiveError, match="truncated"):
            decode_chains(buf, table, starts, counts, ends)
    # the whole record chain decodes, its extra bits read back
    syms, _, extra = decode_chains(rec, x3, [0], [2], [16])
    assert syms.tolist() == [6, 5] and extra.tolist() == [0, 0x155]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 255), st.integers(0, (1 << 30) - 1)), max_size=60),
       st.lists(st.integers(0, 30), min_size=256, max_size=256))
def test_records_with_extra_bits_match_bit_writer(records, nbits):
    """Codewords with up to 30 extra bits each, written bit by bit, decode
    to their symbols and extra bits."""
    extra_bits = np.array(nbits, dtype=np.uint8)
    counts = np.bincount([r[0] for r in records], minlength=256) + 1
    table = HuffmanTable.from_counts(counts, extra_bits)
    w = BitWriter()
    for sym, x in records:
        w.write_code(int(table.codes[sym]), int(table.lengths[sym]))
        w.write_code(x & ((1 << nbits[sym]) - 1), nbits[sym])
    buf = np.frombuffer(bytes(w.data), dtype=np.uint8)
    syms, _, extra = decode_chains(buf, table, [0], [len(records)])
    assert syms.tolist() == [r[0] for r in records]
    assert extra.tolist() == [x & ((1 << nbits[s]) - 1) for s, x in records]


def test_invalid_codeword_detected():
    # single-symbol table: a 1 bit cannot start any codeword
    table = HuffmanTable.from_counts(counts_from({0: 4}))
    with pytest.raises(CorruptArchiveError):
        decode_chains(np.frombuffer(b"\xff", dtype=np.uint8), table, [0], [3])


def test_serialize_single_symbol_layout():
    table = HuffmanTable.from_counts(counts_from({7: 3}))
    blob = table.serialize()
    assert len(blob) == 128
    assert blob[3] == 0x10  # symbol 7 = high nibble of byte 3
    assert sum(blob) == 0x10


def test_serialize_roundtrip_100_random_tables():
    rng = np.random.default_rng(17)
    for _ in range(100):
        nsyms = int(rng.integers(1, 40))
        syms = rng.choice(256, nsyms, replace=False)
        counts = counts_from({int(s): int(rng.integers(1, 1000)) for s in syms})
        table = HuffmanTable.from_counts(counts)
        assert HuffmanTable.deserialize(table.serialize()) == table


def test_deserialize_rejects_all_zero():
    with pytest.raises(CorruptArchiveError, match="no symbols"):
        HuffmanTable.deserialize(bytes(128))


def test_deserialize_rejects_kraft_violation():
    lengths = np.zeros(256, dtype=np.uint8)
    lengths[0] = 2
    lengths[1] = 2
    lengths[2] = 2  # Kraft sum 3/4 != 1
    table = HuffmanTable(lengths)
    with pytest.raises(CorruptArchiveError, match="Kraft"):
        HuffmanTable.deserialize(table.serialize())


def scalar_canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Canonical codes assigned one symbol at a time in (length, symbol)
    order: the oracle for :attr:`HuffmanTable.codes`."""
    codes = np.zeros(256, dtype=np.uint16)
    syms = np.flatnonzero(lengths)
    order = sorted(syms, key=lambda s: (lengths[s], s))
    code = 0
    prev = int(lengths[order[0]])
    for s in order:
        code <<= int(lengths[s]) - prev
        prev = int(lengths[s])
        codes[s] = code
        code += 1
    return codes


def scalar_decode_tables(lengths: np.ndarray, codes: np.ndarray):
    """Each code's span of 15-bit windows filled one symbol at a time:
    the oracle for ``HuffmanTable._decode_tables``."""
    dsym = np.full(1 << MAX_CODE_LEN, -1, dtype=np.int16)
    dlen = np.zeros(1 << MAX_CODE_LEN, dtype=np.uint8)
    for s in np.flatnonzero(lengths):
        ln = int(lengths[s])
        lo = int(codes[s]) << (MAX_CODE_LEN - ln)
        hi = lo + (1 << (MAX_CODE_LEN - ln))
        dsym[lo:hi] = s
        dlen[lo:hi] = ln
    return dsym, dlen


def kraft_tight_lengths(rng, n_leaves: int, deepest: bool) -> np.ndarray:
    """Code lengths of a random full binary tree of ``n_leaves`` leaves
    at most 15 deep, on random symbols.  ``deepest`` always splits the
    deepest leaf that may split, which reaches length 15 early."""
    depths = [1, 1]
    while len(depths) < n_leaves:
        free = [i for i, d in enumerate(depths) if d < MAX_CODE_LEN]
        i = max(free, key=lambda j: depths[j]) if deepest else free[rng.integers(len(free))]
        d = depths.pop(i)
        depths += [d + 1, d + 1]
    lengths = np.zeros(256, dtype=np.uint8)
    lengths[rng.choice(256, n_leaves, replace=False)] = depths
    return lengths


def oracle_tables() -> list[np.ndarray]:
    rng = np.random.default_rng(43)
    lone = np.zeros(256, dtype=np.uint8)
    lone[200] = 1
    ladder = np.zeros(256, dtype=np.uint8)
    ladder[:16] = list(range(1, 16)) + [15]  # lengths 1..15, then 15 again
    cases = [lone, np.full(256, 8, dtype=np.uint8), ladder]
    for n in (2, 3, 17, 100, 255, 256):
        cases += [kraft_tight_lengths(rng, n, deepest) for deepest in (False, True)]
    cases += [
        kraft_tight_lengths(rng, int(rng.integers(2, 257)), bool(rng.integers(2)))
        for _ in range(40)
    ]
    return cases


def test_tables_match_the_per_symbol_oracle():
    cases = oracle_tables()
    assert any(c.max() == MAX_CODE_LEN for c in cases)
    assert any(np.count_nonzero(c) == 256 for c in cases)
    for lengths in cases:
        table = HuffmanTable.from_lengths(lengths)  # the cases are valid tables
        want_codes = scalar_canonical_codes(lengths)
        assert np.array_equal(table.codes, want_codes)
        want_sym, want_len = scalar_decode_tables(lengths, want_codes)
        dsym, dlen = table._decode_tables()
        assert dsym.dtype == want_sym.dtype and dlen.dtype == want_len.dtype
        assert np.array_equal(dsym, want_sym)
        assert np.array_equal(dlen, want_len)


def test_every_window_decodes_to_the_code_that_prefixes_it():
    window = np.arange(1 << MAX_CODE_LEN)
    for lengths in oracle_tables():
        table = HuffmanTable.from_lengths(lengths)
        dsym, dlen = table._decode_tables()
        hit = dsym >= 0
        sym, ln = dsym[hit], dlen[hit].astype(np.int64)
        assert np.array_equal(ln, table.lengths[sym])
        assert np.array_equal(window[hit] >> (MAX_CODE_LEN - ln), table.codes[sym])
        # only a lone symbol's one-bit code leaves windows that start no code
        lone = np.count_nonzero(lengths) == 1
        assert np.count_nonzero(~hit) == (1 << (MAX_CODE_LEN - 1) if lone else 0)
        assert not dlen[~hit].any()


def test_canonical_determinism():
    counts = counts_from({10: 5, 20: 5, 30: 5, 40: 7})
    t1 = HuffmanTable.from_counts(counts)
    t2 = HuffmanTable.from_counts(counts.copy())
    assert t1 == t2
    assert np.array_equal(t1.codes, t2.codes)


def test_pack_codes_segment_alignment():
    table = HuffmanTable.from_counts(counts_from({1: 3, 2: 1}))
    data = np.array([1, 1, 1, 2, 2, 1], dtype=np.uint8)
    payload, off = pack_codes(
        table.lengths[data], table.codes[data], np.array([3, 0, 3])
    )
    # segment 1: three 1-bit codes -> 1 byte; segment 2: empty -> 0 bytes
    assert off.tolist() == [0, 1, 1, 2]
    vals, bounds, _ = decode_chains(
        np.frombuffer(payload, dtype=np.uint8), table, [0, 8, 8], [3, 0, 3]
    )
    assert vals.tolist() == data.tolist()
    assert bounds.tolist() == [0, 3, 3, 6]


def test_decode_chains_many_small_windows():
    rng = np.random.default_rng(23)
    table = HuffmanTable.from_counts(counts_from({i: int(c) for i, c in enumerate(rng.integers(1, 100, 20))}))
    segs = [rng.integers(0, 20, int(rng.integers(0, 60))).astype(np.uint8) for _ in range(50)]
    data = np.concatenate(segs) if segs else np.zeros(0, np.uint8)
    sizes = np.array([len(s) for s in segs])
    payload, off = pack_codes(table.lengths[data], table.codes[data], sizes)
    buf = np.frombuffer(payload, dtype=np.uint8)
    vals, bounds, _ = decode_chains(buf, table, off[:-1] * 8, sizes)
    assert np.array_equal(vals, data)


def walk_chains(jump, starts, counts) -> np.ndarray:
    """One chain at a time, one step at a time: the oracle for
    :func:`follow_chains`."""
    out = []
    for p, n in zip(starts.tolist(), counts.tolist()):
        for _ in range(n):
            out.append(p)
            p = int(jump[p])
    return np.array(out, dtype=np.int64)


def test_follow_chains_strategies_agree():
    from rlzg.huffman import follow_chains

    rng = np.random.default_rng(31)
    # short tables with chains of up to 49 records mostly take jump
    # doubling; 1-4-record chains over thousands of positions, the shape
    # of a checkpoint window's chains, walk in lockstep
    shapes = [(2, 400, 0, 50)] * 50 + [(1000, 8000, 1, 5)] * 50
    for lo, hi, min_count, max_count in shapes:
        size = int(rng.integers(lo, hi))
        jump = np.minimum(
            np.arange(size, dtype=np.int64) + rng.integers(1, 9, size), size
        )
        jump = np.append(jump, size)  # sentinel
        n_chains = int(rng.integers(1, 12))
        starts = rng.integers(0, size, n_chains)
        starts[0] = size - 1  # a chain that runs off the table
        counts = rng.integers(min_count, max_count, n_chains)
        got, bounds = follow_chains(jump, starts.astype(np.int64), counts.astype(np.int64))
        assert np.array_equal(got, walk_chains(jump, starts, counts))
        assert np.array_equal(bounds, np.concatenate([[0], np.cumsum(counts)]))


def test_decode_mid_byte_start():
    table = HuffmanTable.from_counts(counts_from({3: 1, 5: 1}))
    data = np.array([3, 5, 3, 5, 5], dtype=np.uint8)
    second = int(table.lengths[data[:2]].sum())
    vals, bounds, _ = decode_chains(pack(table, data), table, [0, second], [2, 3])
    assert vals[: bounds[1]].tolist() == [3, 5]
    assert vals[bounds[1] :].tolist() == [3, 5, 5]


@pytest.mark.parametrize("blocks", [1, 4, 8, 16])
def test_reference_blocks_walk_by_doubling(blocks):
    """A reference block is one chain of 2,731 codewords: lockstep takes a
    vector step per codeword, and its walk takes about 20 times as long as
    jump doubling's on one block and twice as long on 16, so every such
    decode doubles."""
    ref = random_reference(np.random.default_rng(33), blocks * BLOCK_SIZE)
    packed = pack_reference(ref)
    rb = encode_reference(packed, HuffmanTable.from_counts(packed_block_counts(packed)))
    counts = np.full(blocks, -(-BLOCK_SIZE // 3))
    assert not _walks_in_lockstep(int(rb.offsets[-1]) * 8 + 1, counts)
    assert np.array_equal(decode_reference_range(rb, 0, len(ref)), ref)


def test_short_window_walks_in_lockstep():
    """A checkpoint window's 3-record chain over a few bytes takes two
    lockstep steps, against two doubling rounds of fixed cost."""
    assert _walks_in_lockstep(25, np.array([3]))
