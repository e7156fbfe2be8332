"""Corruption and concurrency hardening checks."""
import itertools
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlzg import Archive, Collection, CorruptArchiveError, RlzgError, Sequence, compress, decompress
from rlzg.genome import N
from rlzg.parse import LITERAL, MATCH, NRUN, RESERVOIR, ParseParams
from rlzg.synthetic import apply_snps, make_collection, random_reference

from sealing import reseal


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



@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    m1=st.integers(min_value=8, max_value=13),
    m3_extra=st.integers(min_value=0, max_value=24),
    interval=st.sampled_from([16, 24, 40, 64, 128]),
    n_members=st.integers(min_value=2, max_value=4),
    n_novel=st.integers(min_value=1, max_value=3),
)
def test_shared_novel_roundtrip_and_extract_property(
    seed, m1, m3_extra, interval, n_members, n_novel
):
    """Members of a small collection carry novel segments from a shared
    pool, so later members match earlier ones' literal runs in the
    reservoir, and with short checkpoint windows those runs span
    windows.  Decompression is exact, extracts on a fresh reader give
    the slices, and every digest verifies."""
    rng = np.random.default_rng(seed)
    ref = random_reference(rng, int(rng.integers(400, 1500)))
    pool = [random_reference(rng, int(rng.integers(48, 160))) for _ in range(n_novel)]
    seqs = [Sequence("ref", ref)]
    for i in range(n_members):
        parts = []
        for _ in range(int(rng.integers(2, 5))):
            lo = int(rng.integers(0, len(ref) - 100))
            parts.append(apply_snps(rng, ref[lo : lo + int(rng.integers(50, 400))], 0.01))
            parts.append(pool[int(rng.integers(0, n_novel))])
        seqs.append(Sequence(f"m{i}", np.concatenate(parts)))
    coll = Collection(seqs, 0)
    params = ParseParams(m1=m1, m2=4, m3=m1 + m3_extra, checkpoint_interval=interval)
    arc = compress(coll, params)
    data = arc.to_bytes()
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
