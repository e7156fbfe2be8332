"""Corruption and concurrency hardening checks."""
import functools
import itertools
import struct
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlzg import Archive, Collection, CorruptArchiveError, RlzgError, Sequence, compress, decompress
from rlzg.archive import (
    _PARAMS_FORMAT,
    _SEC_MODELS,
    _SEC_PARAMS,
    _SEC_SEQTABLE,
    _SEC_STREAMPAYLOAD,
    _checkpoint_block,
    _Reader,
    _read_varints,
    _write_varint,
)
from rlzg.genome import N
from rlzg.parse import LITERAL, MATCH, NRUN, RESERVOIR, ParseParams
from rlzg.streams import LEN, LIT, OFF
from rlzg.synthetic import apply_snps, make_collection, random_reference

from sealing import reframe, reseal


def test_metadata_corruption_never_crashes_uncontrolled():
    rng = np.random.default_rng(110)
    coll = make_collection(rng, ref_len=6000, n_derived=2, max_n_run=500)
    data = bytearray(compress(coll).to_bytes())
    flips = rng.integers(6, len(data), 400)
    for at in flips.tolist():
        mutated = bytearray(data)
        mutated[at] ^= 0x55
        try:
            mutated = bytearray(reseal(mutated))
        except (CorruptArchiveError, KeyError):
            continue  # corrupted the framing itself; loader must still cope
        try:
            arc = Archive.from_bytes(bytes(mutated))
            decompress(arc)
            for e in arc.entries:
                if e.length:
                    arc.extract(e.name, 0, min(e.length, 64))
        except (CorruptArchiveError, RlzgError, ValueError, KeyError):
            pass  # controlled rejection is fine; silent nonsense is fine too
        # anything else (IndexError, segfault-adjacent numpy errors) fails the test


def test_truncations_always_rejected_cleanly():
    rng = np.random.default_rng(111)
    coll = make_collection(rng, ref_len=4000, n_derived=1)
    data = compress(coll).to_bytes()
    for cut in range(0, len(data), max(len(data) // 97, 1)):
        with pytest.raises((CorruptArchiveError, ValueError)):
            Archive.from_bytes(data[:cut])


def test_concurrent_extracts_are_consistent():
    rng = np.random.default_rng(112)
    coll = make_collection(rng, ref_len=120_000, n_derived=3)
    arc = Archive.from_bytes(compress(coll).to_bytes())
    full = {s.name: s.data for s in decompress(arc).sequences}
    jobs = []
    for _ in range(200):
        s = coll.sequences[int(rng.integers(0, len(coll.sequences)))]
        n = len(full[s.name])
        lo = int(rng.integers(0, n + 1))
        hi = int(rng.integers(lo, min(n, lo + 2000) + 1))
        jobs.append((s.name, lo, hi))

    def run(job):
        name, lo, hi = job
        return np.array_equal(arc.extract(name, lo, hi), full[name][lo:hi])

    with ThreadPoolExecutor(max_workers=8) as pool:
        assert all(pool.map(run, jobs))


def test_concurrent_first_touches_of_a_damaged_member_all_raise():
    # units open lazily under contention: every extract that touches the
    # damaged last member raises, every other one returns its symbols
    rng = np.random.default_rng(114)
    coll = make_collection(rng, ref_len=60_000, n_derived=3)
    data = bytearray(compress(coll).to_bytes())
    data[-3] ^= 0x01
    arc = Archive.from_bytes(bytes(data))
    damaged = coll.sequences[-1].name
    jobs = [coll.sequences[j % len(coll.sequences)] for j in range(200)]

    def run(s):
        try:
            got = arc.extract(s.name, 1000, 3000)
        except CorruptArchiveError:
            return s.name == damaged
        return s.name != damaged and np.array_equal(got, s.data[1000:3000])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            assert all(pool.map(run, jobs, timeout=120))
    finally:
        sys.setswitchinterval(old)
    assert arc.entries[-1]._coded is None


@settings(max_examples=25, deadline=None)
@given(
    seqs=st.lists(
        st.binary(min_size=0, max_size=600).map(
            lambda b: np.frombuffer(b, dtype=np.uint8) % 5
        ),
        min_size=1,
        max_size=5,
    ),
    ref=st.integers(min_value=0, max_value=4),
)
def test_archive_roundtrip_property(seqs, ref):
    coll = Collection(
        [Sequence(f"s{i}", d.astype(np.uint8)) for i, d in enumerate(seqs)],
        reference_index=min(ref, len(seqs) - 1),
    )
    arc = Archive.from_bytes(compress(coll).to_bytes())
    assert decompress(arc) == coll



@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    m1=st.integers(min_value=5, max_value=16),
    m3_extra=st.integers(min_value=0, max_value=24),
    cap=st.integers(min_value=1, max_value=8),
    interval=st.integers(min_value=1, max_value=64) | st.integers(min_value=65, max_value=8192),
    n_members=st.integers(min_value=2, max_value=4),
    n_novel=st.integers(min_value=1, max_value=3),
    per_record=st.booleans(),
    draw=st.data(),
)
def test_shared_novel_roundtrip_and_extract_property(
    seed, m1, m3_extra, cap, interval, n_members, n_novel, per_record, draw
):
    """Members of a small collection carry novel segments from a shared
    pool, so later members match earlier ones' literal runs in the
    reservoir, and with short checkpoint windows those runs span
    windows; they also hold an N-run and a tandem repeat.  In per-record
    mode the first member's file has a second record with no reference
    counterpart, an orphan matched against its reservoir alone.

    Decompression is exact, extracts on a fresh reader give the slices,
    and every digest verifies.  An opened archive writes back the same
    bytes, and ``stats()`` reads the same before the first ``to_bytes``,
    after it and on the opened archive."""
    m2 = draw.draw(st.integers(min_value=1, max_value=m1 - 1), label="m2")
    rng = np.random.default_rng(seed)
    ref = random_reference(rng, int(rng.integers(400, 1500)))
    pool = [random_reference(rng, int(rng.integers(48, 160))) for _ in range(n_novel)]
    seqs = [Sequence("ref", ref, "chr1", "ref")]
    for i in range(n_members):
        parts = []
        for _ in range(int(rng.integers(2, 5))):
            lo = int(rng.integers(0, len(ref) - 100))
            parts.append(apply_snps(rng, ref[lo : lo + int(rng.integers(50, 400))], 0.01))
            parts.append(pool[int(rng.integers(0, n_novel))])
        unit = random_reference(rng, int(rng.integers(1, 7)))
        tandem = np.tile(unit, -(-int(rng.integers(20, 120)) // len(unit)))
        nrun = np.full(int(rng.integers(1, 80)), N, dtype=np.uint8)
        for extra in (tandem, nrun):
            parts.insert(int(rng.integers(0, len(parts) + 1)), extra)
        seqs.append(Sequence(f"m{i}/chr1", np.concatenate(parts), "chr1", f"m{i}"))
    orphan = np.concatenate((random_reference(rng, 60), pool[0], random_reference(rng, 30)))
    seqs.append(Sequence("m0/plasmid", orphan, "plasmid", "m0"))
    coll = Collection(seqs, 0, "record" if per_record else "whole")
    params = ParseParams(m1, m2, m1 + m3_extra, cap, interval)
    arc = compress(coll, params)
    data = arc.to_bytes()
    assert arc.verify() == Archive.from_bytes(data).verify() > 0
    assert arc.stats() == Archive.from_bytes(data).stats()
    assert decompress(Archive.from_bytes(data)) == coll

    ranges = []
    for s in seqs[1:]:
        n = len(s.data)
        for _ in range(4):
            lo = int(rng.integers(0, n))
            ranges.append((s.name, lo, int(rng.integers(lo, n + 1))))
        for pos, f in arc.iter_factors(s.name):
            if f.kind == RESERVOIR:
                ranges.append((s.name, pos, pos + f.advance))
                ranges.append((s.name, max(pos - 3, 0), min(pos + f.advance // 2, n)))
    reader = Archive.from_bytes(data)
    full = {s.name: s.data for s in seqs}
    for name, lo, hi in ranges:
        assert np.array_equal(reader.extract(name, lo, hi), full[name][lo:hi]), (name, lo, hi)
    assert reader.verify() > 0


def _flip_collection() -> Collection:
    """A reference and two members of a few hundred symbols: SNPs make
    gapped matches, the first member holds an N-run and a novel segment
    that the second member matches in the reservoir."""
    rng = np.random.default_rng(113)
    ref = random_reference(rng, 1500)
    novel = random_reference(rng, 120)
    a = apply_snps(rng, ref[:900], 0.01)
    a[300:340] = N
    a = np.concatenate((a[:600], novel, a[600:]))
    b = np.concatenate((apply_snps(rng, ref[200:1000], 0.01), novel, ref[1000:1200]))
    return Collection([Sequence("ref", ref), Sequence("a", a), Sequence("b", b)], 0)


def test_every_flipped_byte_raises_or_decodes_exactly():
    """Flip the low bit, then the high bit, of each byte of a small
    archive in turn: a value one off slips past structural checks most
    often, and the high bit of a varint byte moves everything after it.
    Opening it, decompressing it and extracting every sequence whole
    must each raise CorruptArchiveError or give the original symbols.
    Wrong symbols, or another error (a renamed or resized sequence),
    fail."""
    coll = _flip_collection()
    arc = compress(coll, ParseParams(checkpoint_interval=256))
    assert {f.kind for s in coll.sequences[1:] for _, f in arc.iter_factors(s.name)} == {
        LITERAL, MATCH, NRUN, RESERVOIR
    }
    data = arc.to_bytes()
    assert len(data) < 2048
    want = {s.name: s.data for s in coll.sequences}

    def decompressed(reader):
        return {s.name: s.data for s in reader.decompress().sequences}

    def extracted(reader):
        return {name: reader.extract(name, 0, len(v)) for name, v in want.items()}

    failed = []
    for at, bit in itertools.product(range(len(data)), (0x01, 0x80)):
        damaged = bytearray(data)
        damaged[at] ^= bit
        try:
            Archive.from_bytes(bytes(damaged))
        except CorruptArchiveError:
            continue
        # extracts run on a reader of their own, which decompress left alone
        for op in (decompressed, extracted):
            try:
                got = op(Archive.from_bytes(bytes(damaged)))
            except CorruptArchiveError:
                continue
            except Exception as exc:
                failed.append((at, bit, op.__name__, repr(exc)))
                continue
            if got.keys() != want.keys() or any(
                not np.array_equal(got[k], v) for k, v in want.items()
            ):
                failed.append((at, bit, op.__name__, "wrong symbols"))
    assert not failed, f"damage not caught at (byte, bit, operation, outcome): {failed}"


def _varint(v: int) -> bytes:
    buf = bytearray()
    _write_varint(buf, v)
    return bytes(buf)


def _patch(at_of, value: int):
    """An edit that sets the byte ``at_of(body)`` of a section to ``value``."""

    def edit(body):
        out = bytearray(body)
        out[at_of(body)] = value
        return bytes(out)

    return edit


def _params_with(field: int, value: int):
    def edit(body):
        values = list(struct.unpack(_PARAMS_FORMAT, body))
        values[field] = value
        return struct.pack(_PARAMS_FORMAT, *values)

    return edit


# In the sequence table of the _flip_collection archive, the reference
# entry "ref" (1,500 symbols) is three name strings and its length,
# then its role byte, group varint and payload base varint, each 0.
_REF_ENTRY = _varint(3) + b"ref" + _varint(3) + b"ref" + _varint(3) + b"ref" + _varint(1500)


def _after_ref_entry(k: int):
    return lambda body: body.index(_REF_ENTRY) + len(_REF_ENTRY) + k


@functools.cache
def _flip_archive(interval: int = 256) -> Archive:
    return compress(_flip_collection(), ParseParams(checkpoint_interval=interval))


def _grow_checkpoint_block(body):
    """An edit of the sequence table that appends a varint to member
    "a"'s checkpoint block and adds 1 to the block's stored length."""
    block = _checkpoint_block(_flip_archive().entries[1].coded)
    framed = _varint(len(block)) + block
    return body.replace(framed, _varint(len(block) + 1) + block + b"\0", 1)


def _shift_checkpoint(member: int, shifts: dict, interval: int = 256):
    """An edit of the sequence table that changes deltas of the
    checkpoint block of entry ``member`` of ``_flip_archive(interval)``:
    ``shifts`` maps (row, window) to what it adds, a row being 0 for the
    window starts, then per stream its symbol counts and byte offsets."""

    def edit(body):
        coded = _flip_archive(interval).entries[member].coded
        block = _checkpoint_block(coded)
        deltas = _read_varints(_Reader(block), 9 * coded.n_windows)
        for (row, window), by in shifts.items():
            deltas[row * coded.n_windows + window] += by
        new = b"".join(map(_varint, deltas.tolist()))
        framed = _varint(len(block)) + block
        assert framed in body
        return body.replace(framed, _varint(len(new)) + new, 1)

    return edit


def _stream_table(which: int, symbols: tuple[int, int]):
    """An edit of the model section that replaces the model of stream
    ``which`` by a code of two 1-bit codewords: 0 for the first of
    ``symbols``, 1 for the second."""
    lengths = np.zeros(256, dtype=np.uint8)
    lengths[list(symbols)] = 1
    at = 128 + which * 128  # after the reference table
    blob = (lengths[0::2] | lengths[1::2] << 4).tobytes()
    return lambda body: body[:at] + blob + body[at + 128 :]


# member "a"'s third window (interval 256) holds four LEN records in four
# bytes; the last one's codeword ends in the third byte and its four
# extra bits in the fourth, so a window one byte shorter cuts them
_SHORT_LEN_WINDOW = {(2 + 2 * LEN, 2): -1, (2 + 2 * LEN, 3): 1}


@pytest.mark.parametrize(
    "sec_id, edit, message",
    [
        (_SEC_PARAMS, lambda b: b + b"\0", "malformed params section"),
        (_SEC_PARAMS, _params_with(5, 0), "invalid stored parameters"),
        (_SEC_MODELS, lambda b: b[:-1], "malformed model section"),
        # the reference table holds one symbol, coded with 2 bits
        (_SEC_MODELS, lambda b: b"\2" + bytes(127) + b[128:], "single-symbol table must use length 1"),
        (_SEC_SEQTABLE, _patch(_after_ref_entry(1), 5), "sequence points at a missing group"),
        (_SEC_SEQTABLE, _patch(_after_ref_entry(2), 1), "reference payload out of bounds"),
        (_SEC_SEQTABLE, _patch(_after_ref_entry(0), 2), "unknown sequence role 2"),
        (_SEC_SEQTABLE, _patch(lambda b: 0, 0), "archive holds no sequences"),
        (_SEC_SEQTABLE, _patch(lambda b: 1, 3), "reference index out of range"),
        (_SEC_STREAMPAYLOAD, lambda b: b + b"\0", "payload bytes outside every sequence"),
        (_SEC_SEQTABLE, _grow_checkpoint_block, "checkpoint block longer than its windows"),
        (_SEC_SEQTABLE, lambda b: b"\x80" * 10 + b, "varint overflow"),
        (_SEC_SEQTABLE, _shift_checkpoint(1, {(0, 0): 1}), "first checkpoint window"),
        # member "a"'s first window holds one literal byte, for the gap of its first match
        (_SEC_SEQTABLE, _shift_checkpoint(1, {(1 + 2 * LIT, 0): -1}), "literal stream exhausted"),
        # every 1 bit of the payload now decodes to a symbol past the classes
        (_SEC_MODELS, _stream_table(LEN, (0, 200)), "length class past the class table"),
        (_SEC_MODELS, _stream_table(OFF, (0, 240)), "offset class past the class table"),
        # in one batch, the window's last record reads on into the next one's bytes
        (_SEC_SEQTABLE, _shift_checkpoint(1, _SHORT_LEN_WINDOW), "truncated at a chain's end"),
    ],
    ids=[
        "params-length", "params-invalid", "models-length", "single-symbol-length-2",
        "missing-group", "reference-base", "unknown-role", "no-sequences", "reference-index",
        "stray-payload", "long-checkpoint-block", "varint-overflow", "first-window-start",
        "literal-exhausted", "length-class-past-table", "offset-class-past-table",
        "extra-bits-past-chain-end",
    ],
)
def test_resealed_damage_reaches_each_reader_check(sec_id, edit, message):
    """Each damage is resealed, so the digests pass and the named check
    of the reader must reject it: at the open, or for a checkpoint block
    when its member is first touched.  (A code length above 15 cannot be
    written in a 4-bit nibble, so that table check has no case here.)"""
    data = _flip_archive().to_bytes()
    damaged = reseal(reframe(data, sec_id, edit))
    assert reframe(data, sec_id, lambda b: b) == data and damaged != data
    with pytest.raises(CorruptArchiveError, match=message):
        Archive.from_bytes(damaged).decompress()


def _record_collection_with_orphan() -> Collection:
    """Record granularity: "g/c1" pairs with the reference record "c1",
    and "g/x", which has no counterpart, forms a reference-less group."""
    rng = np.random.default_rng(114)
    r1 = random_reference(rng, 1500)
    return Collection(
        [
            Sequence("ref/c1", r1, "c1", "ref"),
            Sequence("g/c1", apply_snps(rng, r1, 0.01), "c1", "g"),
            Sequence("g/x", random_reference(rng, 200), "x", "g"),
        ],
        0,
        "record",
    )


def _move_to_orphan_group(body):
    """An edit of the sequence table that moves "g/c1" (a member of group
    0, whose factors match the reference) into group 1, which has none."""
    entry = b"".join(_varint(len(v)) + v for v in (b"g/c1", b"c1", b"g")) + _varint(1500)
    at = body.index(entry) + len(entry) + 1  # past the role byte
    assert body[at] == 0
    return body[:at] + b"\1" + body[at + 1 :]


@pytest.mark.parametrize(
    "make, sec_id, edit, query, message",
    [
        # member "b"'s factor [9, 464) spans windows 1 and 2, so the walk from
        # window 0 jumps to window 3; it resumes one symbol late, and window 4
        # one symbol sooner after it
        (
            lambda: _flip_archive(128),
            _SEC_SEQTABLE,
            _shift_checkpoint(2, {(0, 3): 1, (0, 4): -1}, 128),
            ("b", 0, 500),
            "checkpoint windows do not tile the sequence",
        ),
        # decoded alone, the shortened window's last extra bits lie past its buffer
        (
            _flip_archive,
            _SEC_SEQTABLE,
            _shift_checkpoint(1, _SHORT_LEN_WINDOW),
            ("a", 600, 620),
            "truncated at a chain's end",
        ),
        (
            lambda: compress(_record_collection_with_orphan()),
            _SEC_SEQTABLE,
            _move_to_orphan_group,
            ("g/c1", 0, 100),
            "match against a missing reference",
        ),
    ],
    ids=["windows-do-not-tile", "extra-bits-past-buffer", "missing-reference"],
)
def test_resealed_damage_reaches_each_extract_check(make, sec_id, edit, query, message):
    """Resealed damage that only an extract's path meets in the named
    check; a decompression refuses it too, at a check of its own."""
    data = make().to_bytes()
    damaged = reseal(reframe(data, sec_id, edit))
    assert damaged != data
    with pytest.raises(CorruptArchiveError, match=message):
        Archive.from_bytes(damaged).extract(*query)
    with pytest.raises(CorruptArchiveError):
        Archive.from_bytes(damaged).decompress()
