import hashlib
import struct
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from rlzg import (
    Archive,
    Collection,
    CorruptArchiveError,
    Sequence,
    UnsupportedVersionError,
    compress,
    decompress,
    select_reference,
)
from rlzg.genome import N, encode_symbols
from rlzg.kmer import n_free_grams
from rlzg.parse import MATCH, NRUN, RESERVOIR
from rlzg.refstore import BLOCK_SIZE, GROUP_BLOCKS, resolve_reservoir_range
from rlzg.synthetic import make_collection, random_reference, apply_snps
from rlzg.archive import (
    _SEC_PROVENANCE,
    _SEC_REFPAYLOAD,
    _SEC_STREAMPAYLOAD,
    ROLE_REFERENCE,
    VERSION,
    _Reader,
    _read_varints,
    _running_sums,
    _write_varint,
    matching_groups,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import corpus  # noqa: E402
from sealing import reseal, section_spans  # noqa: E402


def roundtrip(collection, params=None):
    arc = compress(collection, params)
    arc2 = Archive.from_bytes(arc.to_bytes())
    back = decompress(arc2)
    assert back == collection
    return arc2


def test_single_sequence_collection():
    rng = np.random.default_rng(60)
    coll = Collection([Sequence("only", random_reference(rng, 5000))])
    arc = compress(coll)
    data = arc.to_bytes()
    arc2 = Archive.from_bytes(data)
    assert decompress(arc2) == coll
    stats = arc2.stats()
    assert stats["relative_bytes"] == 0
    assert stats["reference_bytes"] > 0


def test_identical_copy_single_factor_tiny_payload():
    rng = np.random.default_rng(61)
    ref = random_reference(rng, 1_000_000)
    coll = Collection([Sequence("ref", ref), Sequence("copy", ref.copy())])
    arc = roundtrip(coll)
    factors = [f for _, f in arc.iter_factors("copy")]
    assert len(factors) == 1
    payload = sum(len(p) for p in arc.entries[1].coded.payloads)
    assert payload < 64


def test_roundtrip_fuzz_small_collections():
    rng = np.random.default_rng(62)
    for _ in range(8):
        coll = make_collection(
            rng,
            ref_len=int(rng.integers(2000, 30_000)),
            n_derived=int(rng.integers(1, 5)),
            max_n_run=2000,
        )
        roundtrip(coll)


def test_archive_is_deterministic():
    rng = np.random.default_rng(63)
    coll = make_collection(rng, ref_len=20_000, n_derived=3)
    a = compress(coll).to_bytes()
    b = compress(coll).to_bytes()
    assert a == b


def test_truncated_archive_rejected():
    rng = np.random.default_rng(64)
    coll = make_collection(rng, ref_len=5000, n_derived=2)
    data = compress(coll).to_bytes()
    for cut in (3, 5, len(data) // 2, len(data) - 1):
        with pytest.raises(CorruptArchiveError):
            Archive.from_bytes(data[:cut])


def test_bad_magic_and_version():
    rng = np.random.default_rng(65)
    coll = make_collection(rng, ref_len=5000, n_derived=1)
    data = bytearray(compress(coll).to_bytes())
    with pytest.raises(CorruptArchiveError):
        Archive.from_bytes(b"XXXX" + bytes(data[4:]))
    for version in (VERSION + 1, 1):  # a newer format, and the old v1 one
        data[4] = version
        with pytest.raises(UnsupportedVersionError):
            Archive.from_bytes(bytes(data))


_PARAMS_FORMAT = "<HHIBIIIII"  # m1 m2 m3 gap cheap slack cap interval block size


@pytest.mark.parametrize(
    "field, value",
    [(3, 3), (4, 65), (5, 29), (8, 0), (8, 4096)],
    ids=["gap-limit-3", "offset-bound-65", "length-slack-29", "block-size-0", "block-size-4096"],
)
def test_damaged_params_rejected(field, value):
    # the params section is written first; the digests are re-sealed so
    # the reader's check of the fixed values is what must reject it
    rng = np.random.default_rng(65)
    data = compress(make_collection(rng, ref_len=5000, n_derived=1)).to_bytes()
    size = struct.calcsize(_PARAMS_FORMAT)
    assert data[7:9] == bytes([1, size])
    values = list(struct.unpack(_PARAMS_FORMAT, data[9 : 9 + size]))
    values[field] = value
    patched = data[:9] + struct.pack(_PARAMS_FORMAT, *values) + data[9 + size :]
    with pytest.raises(CorruptArchiveError, match="metadata digest"):
        Archive.from_bytes(patched)
    with pytest.raises(CorruptArchiveError, match="the format fixes"):
        Archive.from_bytes(reseal(patched))


@pytest.mark.parametrize(
    "row",
    [
        lambda a, i: (a.reference_index, 0, 40),  # not a member
        lambda a, i: (i, 0, a.params.m3 - 1),  # shorter than m3
        lambda a, i: (i, a.entries[i].length - 40, 41),  # past the member's end
    ],
    ids=["reference", "short", "past-end"],
)
def test_damaged_provenance_rejected(row):
    rng = np.random.default_rng(70)
    ref = random_reference(rng, 30_000)
    novel = random_reference(rng, 400)
    a = np.concatenate([ref[:10_000], novel, ref[10_000:]])
    b = np.concatenate([ref[5_000:25_000], novel, ref[25_000:]])
    coll = Collection([Sequence("ref", ref), Sequence("a", a), Sequence("b", b)])
    arc = compress(coll)
    prov = arc.provenances[0]
    assert len(prov.rows), "expected a reservoir phrase"
    Archive.from_bytes(arc.to_bytes())
    prov.rows[0] = row(arc, prov.rows[0, 0])
    with pytest.raises(CorruptArchiveError):
        Archive.from_bytes(arc.to_bytes())


def test_shifted_provenance_row_fails_decompress():
    # a row one symbol off still names a literal run of a member, so
    # from_bytes accepts it; decompress replays the runs and must refuse
    rng = np.random.default_rng(70)
    ref = random_reference(rng, 30_000)
    novel = random_reference(rng, 400)
    a = np.concatenate([ref[:10_000], novel, ref[10_000:]])
    b = np.concatenate([ref[5_000:25_000], novel, ref[25_000:]])
    coll = Collection([Sequence("ref", ref), Sequence("a", a), Sequence("b", b)])
    arc = compress(coll)
    prov = arc.provenances[0]
    assert len(prov.rows), "expected a reservoir phrase"
    assert Archive.from_bytes(arc.to_bytes()).decompress() == coll
    seq, pos, length = prov.rows[0]
    prov.rows[0] = (seq, pos + 1, length)
    damaged = Archive.from_bytes(arc.to_bytes())
    with pytest.raises(CorruptArchiveError, match="provenance"):
        damaged.decompress()


def test_provenance_row_off_a_literal_run_fails_extract():
    # a row moved onto a[100:500], a reference copy, still names a span
    # of a member, so from_bytes accepts it; a hop into it must refuse
    rng = np.random.default_rng(70)
    ref = random_reference(rng, 30_000)
    novel = random_reference(rng, 400)
    a = np.concatenate([ref[:10_000], novel, ref[10_000:]])
    b = np.concatenate([ref[5_000:25_000], novel, ref[25_000:]])
    coll = Collection([Sequence("ref", ref), Sequence("a", a), Sequence("b", b)])
    arc = compress(coll)
    prov = arc.provenances[0]
    assert len(prov.rows) == 1 and prov.rows[0, 2] == 400
    intact = Archive.from_bytes(arc.to_bytes())
    assert np.array_equal(intact.extract("b", 20_001, 20_400), b[20_001:20_400])
    prov.rows[0] = (1, 100, 400)
    damaged = Archive.from_bytes(arc.to_bytes())
    for lo, hi in ((20_001, 20_400), (20_100, 20_110)):
        with pytest.raises(CorruptArchiveError, match="literal run"):
            damaged.extract("b", lo, hi)


def test_shifted_provenance_row_in_bytes_rejected():
    # the same shift made in the archive bytes: the metadata digest
    # covers the provenance section, so the open refuses it
    rng = np.random.default_rng(70)
    ref = random_reference(rng, 30_000)
    novel = random_reference(rng, 400)
    a = np.concatenate([ref[:10_000], novel, ref[10_000:]])
    b = np.concatenate([ref[5_000:25_000], novel, ref[25_000:]])
    coll = Collection([Sequence("ref", ref), Sequence("a", a), Sequence("b", b)])
    data = bytearray(compress(coll).to_bytes())
    at, n = section_spans(data)[_SEC_PROVENANCE]
    t = _Reader(bytes(data[at : at + n]))
    assert t.varint() > 0, "expected a reservoir phrase"
    t.varint()  # the first row's sequence
    pos_at = at + t.pos
    pos = t.varint()
    assert pos & 0x7F != 0x7F  # the shifted position keeps its varint size
    data[pos_at] += 1
    with pytest.raises(CorruptArchiveError, match="metadata digest"):
        Archive.from_bytes(bytes(data))
    # re-sealed, the row still names a literal run, and decompress refuses it
    with pytest.raises(CorruptArchiveError, match="provenance"):
        Archive.from_bytes(reseal(data)).decompress()


def test_group_reference_mismatch_rejected():
    # two reference records; a group naming the other group's reference
    # would hand extract the wrong reference symbols
    rng = np.random.default_rng(71)
    r1, r2 = random_reference(rng, 3000), random_reference(rng, 2000)
    seqs = [
        Sequence("ref/c1", r1, record_name="c1", file_tag="ref"),
        Sequence("ref/c2", r2, record_name="c2", file_tag="ref"),
        Sequence("g/c1", apply_snps(rng, r1, 0.01), record_name="c1", file_tag="g"),
        Sequence("g/c2", apply_snps(rng, r2, 0.01), record_name="c2", file_tag="g"),
    ]
    arc = compress(Collection(seqs, 0, "record"))
    arc.groups[0].reference = arc.groups[1].reference
    with pytest.raises(CorruptArchiveError):
        Archive.from_bytes(arc.to_bytes())


def test_payload_corruption_detected_by_checksum():
    # the last member's payload is damaged: the open hashes no payload,
    # and every touch of that member, never of the others, raises
    rng = np.random.default_rng(66)
    coll = make_collection(rng, ref_len=5000, n_derived=2)
    data = bytearray(compress(coll).to_bytes())
    data[-3] ^= 0xFF
    arc = Archive.from_bytes(bytes(data))
    last = coll.sequences[-1]
    for _ in range(2):  # nothing of a unit that failed is kept
        with pytest.raises(CorruptArchiveError, match="member digest"):
            arc.extract(last.name, 0, 100)
        with pytest.raises(CorruptArchiveError, match="member digest"):
            arc.decompress()
    assert arc.entries[-1].sealed is not None and arc.entries[-1]._coded is None
    for s in coll.sequences[:-1]:
        assert np.array_equal(arc.extract(s.name, 0, len(s.data)), s.data)


def test_reference_corruption_detected_in_its_block_group():
    # a reference of 3 block groups, its middle group damaged: only
    # ranges that decode a block of that group raise
    rng = np.random.default_rng(66)
    ref = random_reference(rng, 20 * BLOCK_SIZE)
    coll = Collection([Sequence("ref", ref)])
    data = bytearray(compress(coll).to_bytes())
    offsets = Archive.from_bytes(bytes(data)).entries[0].refblocks.offsets
    at = section_spans(data)[_SEC_REFPAYLOAD][0]
    data[at + int(offsets[GROUP_BLOCKS]) + 5] ^= 0x01
    arc = Archive.from_bytes(bytes(data))
    edge = GROUP_BLOCKS * BLOCK_SIZE
    for _ in range(2):
        with pytest.raises(CorruptArchiveError, match="group 1"):
            arc.extract("ref", edge - 10, edge + 10)
    assert np.array_equal(arc.extract("ref", 0, edge), ref[:edge])
    assert np.array_equal(arc.extract("ref", 2 * edge, len(ref)), ref[2 * edge :])
    with pytest.raises(CorruptArchiveError, match="group 1"):
        arc.verify()


def test_extract_matches_decompressed_slices():
    rng = np.random.default_rng(67)
    coll = make_collection(rng, ref_len=40_000, n_derived=3, max_n_run=5000)
    arc = roundtrip(coll)
    full = {s.name: s.data for s in decompress(arc).sequences}
    for _ in range(300):
        s = coll.sequences[int(rng.integers(0, len(coll.sequences)))]
        n = len(full[s.name])
        lo = int(rng.integers(0, n + 1))
        hi = int(rng.integers(lo, min(n, lo + 3000) + 1))
        got = arc.extract(s.name, lo, hi)
        assert np.array_equal(got, full[s.name][lo:hi]), (s.name, lo, hi)


def test_extract_clips_at_factor_edges():
    # one- and two-gap matches, an N-run, and in b a reservoir match over
    # the tail of a's first literal run and the head of its second
    rng = np.random.default_rng(72)
    ref = random_reference(rng, 20_000)
    n1, n2 = random_reference(rng, 200), random_reference(rng, 200)
    # neither run may start with the symbol the reference has there, or
    # the match before it would take that symbol and shift the row
    n1[0], n2[0] = (ref[8000] + 1) % 4, (ref[9000] + 1) % 4
    a = np.concatenate(
        [
            apply_snps(rng, ref[:8000], 0.01),
            n1,
            ref[8000:9000],
            n2,
            np.full(300, N, dtype=np.uint8),
            apply_snps(rng, ref[9000:15_000], 0.01),
        ]
    )
    b = np.concatenate([ref[2000:6000], n1[100:], n2[:100], apply_snps(rng, ref[15_000:], 0.02)])
    coll = Collection([Sequence("ref", ref), Sequence("a", a), Sequence("b", b)])
    arc = roundtrip(coll)
    full = {s.name: s.data for s in coll.sequences}
    seen = set()
    for name in ("a", "b"):
        n = len(full[name])
        for start, f in arc.iter_factors(name):
            end = start + f.advance
            if f.kind == RESERVOIR:
                rows = resolve_reservoir_range(arc.provenances[0], f.position, f.advance)
                seen.add(("reservoir rows", min(len(rows), 2)))
            seen.add((f.kind, len(f.gap_symbols)))
            gaps = start + np.cumsum(f.lengths[:-1]) + np.arange(len(f.gap_symbols))
            ranges = [(start, start + 1), (end - 1, end)] + [(g, g + 1) for g in gaps.tolist()]
            ranges += [(max(start - 1, 0), start + 1), (end - 1, min(end + 1, n))]
            for lo, hi in ranges:
                assert np.array_equal(arc.extract(name, lo, hi), full[name][lo:hi]), (name, lo, hi)
    assert {(MATCH, 1), (MATCH, 2), (NRUN, 0), ("reservoir rows", 2)} <= seen, seen


def test_extract_bounded_work():
    rng = np.random.default_rng(68)
    coll = make_collection(rng, ref_len=500_000, n_derived=2, max_n_run=1000)
    arc = Archive.from_bytes(compress(coll).to_bytes())
    name = coll.sequences[1].name
    _, bytes_read = arc.extract_report(name, 100_000, 100_200)
    stats = arc.stats()
    # a 200-symbol window must touch far less than the whole archive
    assert bytes_read < stats["total_bytes"] / 20


def test_open_builds_decode_tables_on_first_use():
    # a one-shot extract pays only for the tables its ranges decode through
    rng = np.random.default_rng(71)
    ref = random_reference(rng, 30_000)
    coll = Collection([Sequence("ref", ref), Sequence("m", apply_snps(rng, ref, 0.01))], 0)
    arc = Archive.from_bytes(compress(coll).to_bytes())
    models = arc.models.tables()
    assert all(t._dec is None and t._codes is None for t in [arc.ref_table, *models])
    assert np.array_equal(arc.extract("ref", 1000, 2000), ref[1000:2000])
    assert arc.ref_table._dec is not None
    assert all(t._dec is None for t in models)
    assert all(t._codes is None for t in [arc.ref_table, *models])  # only encoders read codes


def test_open_checks_and_decodes_units_on_first_touch():
    # the open hashes no payload and decodes no checkpoint block; an
    # extract checks the units it reads, and decompress checks them all
    rng = np.random.default_rng(72)
    ref = random_reference(rng, 3 * GROUP_BLOCKS * BLOCK_SIZE)
    coll = Collection(
        [Sequence("ref", ref)]
        + [Sequence(f"m{j}", apply_snps(rng, ref, 0.001)) for j in range(2)], 0
    )
    arc = Archive.from_bytes(compress(coll).to_bytes())
    rb, m0, m1 = arc.entries[0].refblocks, arc.entries[1], arc.entries[2]
    assert rb.n_groups == 3 and not rb._checked
    assert m0._coded is None and m1._coded is None
    assert np.array_equal(arc.extract("m0", 10, 1010), coll.sequences[1].data[10:1010])
    assert m0._coded is not None and m1._coded is None
    assert rb._checked == {0}
    assert decompress(arc) == coll
    assert m1._coded is not None and rb._checked == {0, 1, 2}
    assert arc.verify() == 5


def test_extract_errors():
    rng = np.random.default_rng(69)
    coll = make_collection(rng, ref_len=3000, n_derived=1)
    arc = compress(coll)
    arc.to_bytes()
    with pytest.raises(KeyError):
        arc.extract("nope", 0, 1)
    with pytest.raises(ValueError):
        arc.extract("ref", 0, 10**9)
    assert len(arc.extract("ref", 5, 5)) == 0


def test_extract_range_covered_by_reservoir_match():
    rng = np.random.default_rng(70)
    ref = random_reference(rng, 30_000)
    novel = random_reference(rng, 400)
    a = np.concatenate([ref[:10_000], novel, ref[10_000:]])
    b = np.concatenate([ref[5_000:25_000], novel, ref[25_000:]])
    coll = Collection(
        [Sequence("ref", ref), Sequence("a", a), Sequence("b", b)], reference_index=0
    )
    arc = roundtrip(coll)
    spans = [
        (pos, pos + f.advance) for pos, f in arc.iter_factors("b") if f.kind == RESERVOIR
    ]
    assert spans, "expected a reservoir match in sequence b"
    lo, hi = spans[0]
    mid = (lo + hi) // 2
    got = arc.extract("b", lo, hi)
    assert np.array_equal(got, b[lo:hi])
    got = arc.extract("b", mid - 5, mid + 5)
    assert np.array_equal(got, b[mid - 5 : mid + 5])


def test_decompress_threads_matches_sequential():
    rng = np.random.default_rng(71)
    coll = make_collection(rng, ref_len=30_000, n_derived=4)
    arc = Archive.from_bytes(compress(coll).to_bytes())
    seq = decompress(arc)
    par = decompress(arc, threads=4)
    assert seq == par == coll


def test_select_reference_examples():
    rng = np.random.default_rng(72)
    all_n = Sequence("n", np.full(1000, N, dtype=np.uint8))
    acgt = Sequence("a", random_reference(rng, 1000))
    assert select_reference(Collection([all_n, acgt]), 13) == 1

    long = Sequence("long", np.tile(encode_symbols("ACGT"), 100))
    short = Sequence("short", np.tile(encode_symbols("ACGT"), 50))
    assert select_reference(Collection([long, short]), 13) == 0

    clean = random_reference(rng, 1001)
    dirty = clean.copy()
    dirty[500] = N
    c1 = int(n_free_grams(clean, 13).sum())
    c2 = int(n_free_grams(dirty, 13).sum())
    assert c1 - c2 == 13  # one central N kills exactly m1 windows
    assert select_reference(
        Collection([Sequence("d", dirty), Sequence("c", clean)]), 13
    ) == 1

    # per record: the file whose records hold the most windows in total
    # wins, represented by its first record
    records = [
        Sequence(f"{tag}/{i}", random_reference(rng, n), record_name=str(i), file_tag=tag)
        for tag, i, n in (("a", 1, 600), ("a", 2, 100), ("b", 1, 400), ("b", 2, 400))
    ]
    assert select_reference(Collection(records, 0, "record"), 13) == 2
    assert select_reference(Collection(records, 0, "whole"), 13) == 0


def test_select_reference_tie_breaks_low_index():
    rng = np.random.default_rng(73)
    data = random_reference(rng, 500)
    coll = Collection([Sequence("x", data), Sequence("y", data.copy())])
    assert select_reference(coll, 13) == 0


def test_per_record_mode_matches_by_name_and_ordinal():
    rng = np.random.default_rng(74)
    chr1 = random_reference(rng, 8000)
    chr2 = random_reference(rng, 6000)
    seqs = [
        Sequence("ref/chr1", chr1, record_name="chr1", file_tag="ref"),
        Sequence("ref/chr2", chr2, record_name="chr2", file_tag="ref"),
        # name match, listed in swapped order
        Sequence("g1/chr2", apply_snps(rng, chr2, 0.005), record_name="chr2", file_tag="g1"),
        Sequence("g1/chr1", apply_snps(rng, chr1, 0.005), record_name="chr1", file_tag="g1"),
        # ordinal match (record names unknown in the reference)
        Sequence("g2/scaffold1", apply_snps(rng, chr1, 0.01), record_name="scaffold1", file_tag="g2"),
        Sequence("g2/scaffold2", apply_snps(rng, chr2, 0.01), record_name="scaffold2", file_tag="g2"),
    ]
    coll = Collection(seqs, reference_index=0, granularity="record")
    groups = matching_groups(coll)
    assert [g.reference for g in groups] == [0, 1]
    assert groups[0].members == [3, 4]
    assert groups[1].members == [2, 5]
    arc = roundtrip(coll)
    assert arc.granularity == "record"
    # cross-check the pairing actually compressed well (same-chromosome match)
    st = arc.stats()
    assert st["bpb_relative"] < 0.5


def test_per_record_orphans_get_reference_less_group():
    rng = np.random.default_rng(75)
    chr1 = random_reference(rng, 4000)
    extra = random_reference(rng, 3000)
    seqs = [
        Sequence("ref/chr1", chr1, record_name="chr1", file_tag="ref"),
        Sequence("g/chr1", apply_snps(rng, chr1, 0.01), record_name="chr1", file_tag="g"),
        Sequence("g/plasmid", extra, record_name="plasmid", file_tag="g"),
    ]
    coll = Collection(seqs, reference_index=0, granularity="record")
    groups = matching_groups(coll)
    assert groups[-1].reference is None and groups[-1].members == [2]
    roundtrip(coll)


def test_per_record_interleaved_groups_with_orphans_roundtrip():
    """Members of three groups, one reference-less, interleave in
    collection order; compress parses them group by group, and the
    second plasmid matches the first one's reservoir phrase.  The pinned
    bytes show that the group order leaves the archive as it was when
    members were parsed in collection order."""
    rng = np.random.default_rng(78)
    chr1 = random_reference(rng, 5000)
    chr2 = random_reference(rng, 4000)
    plasmid = random_reference(rng, 3000)
    novel = random_reference(rng, 400)
    seqs = [Sequence("ref/chr1", chr1, record_name="chr1", file_tag="ref"),
            Sequence("ref/chr2", chr2, record_name="chr2", file_tag="ref")]
    records = [
        ("g1", "chr1", np.concatenate((apply_snps(rng, chr1, 0.01), novel))),
        ("g1", "chr2", apply_snps(rng, chr2, 0.01)),
        ("g1", "plasmid", plasmid),
        ("g2", "chr2", apply_snps(rng, chr2, 0.01)),
        ("g2", "chr1", np.concatenate((novel, apply_snps(rng, chr1, 0.01)))),
        ("g2", "plasmid", apply_snps(rng, plasmid, 0.01)),
    ]
    seqs += [Sequence(f"{t}/{r}", d, record_name=r, file_tag=t) for t, r, d in records]
    coll = Collection(seqs, reference_index=0, granularity="record")
    groups = matching_groups(coll)
    assert [(g.reference, g.members) for g in groups] == [(0, [2, 6]), (1, [3, 5]), (None, [4, 7])]
    assert _pins(compress(coll).to_bytes()) == (
        4786,
        "3567f1df5cde203d091ca23e4c9246bb02479d058e7aeebdf687cbf72dab2f4f",
        "45f7a5de8109d6a427db8a3066c70487d21e090acb9f77aafafdd7583a3903f9",
        "271052716c3b4d5ed52d2296c8990d76a60619662f621188d3d017001d5a6813",
    )
    arc = roundtrip(coll)
    for name in ("g2/chr1", "g2/plasmid"):
        assert RESERVOIR in [f.kind for _, f in arc.iter_factors(name)], name


def _pins(data: bytes) -> tuple[int, str, str, str]:
    """Size and sha256 of an archive, then the sha256 of its reference
    payload and stream payload sections.  The payload pins date from
    format v1: the digests of v2 moved the archive pins, not the coding."""
    spans = section_spans(data)
    return (len(data), hashlib.sha256(data).hexdigest()) + tuple(
        hashlib.sha256(data[at : at + n]).hexdigest()
        for at, n in (spans[_SEC_REFPAYLOAD], spans[_SEC_STREAMPAYLOAD])
    )


def test_archive_bytes_pinned():
    """The archive bytes of a small seeded collection are the contract: a
    parser, index or codec change that moves them must update this pin
    and say why."""
    coll = make_collection(
        np.random.default_rng(3), ref_len=40_000, n_derived=3, novel_pool=1, novel_len=(500, 1500)
    )
    arc = compress(coll)
    kinds = [f.kind for s in coll.sequences[1:] for _, f in arc.iter_factors(s.name)]
    assert kinds.count(RESERVOIR) == 4
    assert _pins(arc.to_bytes()) == (
        14047,
        "5753d717ecd1c4581f90f7296aab9d6e3c6fa26926d3f9d5d1b198465e7b702d",
        "a674ad9c7c9cc04c2f2e9e83be251f8586583ffad684eaa4b6955ccfdfa19003",
        "860da97108f941ab212a3ac13ad276fa1eb149babd8d18c216e6fe5ad2e09530",
    )


_CORPUS_PINS = {
    "mixed": (
        33_928,
        "46cc3dd3d8f8046c1ac24427baed0a07d0db22cfae747368c256434c9f5e44b8",
        "ea5765883ec4ee06f741b647d66c37ea73761a2fe289072c7bfa16c781ea2489",
        "47456d10bdaed8cac1434b0ecc6f260a268c2ef633d9a1dea16deef6cb211379",
    ),
    "low_snp": (
        28_724,
        "5461272bcc2d8c12717d5cb2638427e26263242f37abbbce58cb604614817702",
        "ea5765883ec4ee06f741b647d66c37ea73761a2fe289072c7bfa16c781ea2489",
        "2ca62a02446e780522e016bd8467d946809425a1e307520eff425eed2649be13",
    ),
    "shared_novel": (
        24_075,
        "9a0d111936bed841eb2f62080a5ecd420c80bfcf7d1570226d3319a4cbdd1062",
        "682c2e79dc7d6feb30ec8663b10f56139d4deabcf6f5393bd3b8b61fd3d40a6f",
        "279fe10d38760e3082cc99445e769fa9e0712c85ec8ba7e2052fb8d1e1955db4",
    ),
}


@pytest.mark.parametrize("workload", list(_CORPUS_PINS))
def test_benchmark_corpus_bytes_pinned(workload):
    """The benchmark's workloads (``perfbench/corpus.py``, seed 1, at a
    twentieth of their size) compress to these bytes.  A change that
    moves them changes what the benchmark's size figures measure, so it
    must update the pins and say why."""
    c = corpus.make_corpus(workload, 1, 0.05)
    coll = Collection([Sequence(n, a) for n, a in zip(c.names, c.arrays)], 0)
    assert _pins(compress(coll).to_bytes()) == _CORPUS_PINS[workload]


def test_empty_and_tiny_sequences():
    rng = np.random.default_rng(76)
    coll = Collection(
        [
            Sequence("ref", random_reference(rng, 2000)),
            Sequence("empty", np.zeros(0, dtype=np.uint8)),
            Sequence("tiny", encode_symbols("ACG")),
        ]
    )
    arc = roundtrip(coll)
    assert len(arc.extract("empty", 0, 0)) == 0
    assert np.array_equal(arc.extract("tiny", 1, 3), encode_symbols("CG"))


def test_all_n_reference_payload_empty():
    rng = np.random.default_rng(77)
    ref = np.full(100_000, N, dtype=np.uint8)
    derived = random_reference(rng, 5000)
    coll = Collection([Sequence("ref", ref), Sequence("d", derived)])
    arc = roundtrip(coll)
    assert len(arc.entries[0].refblocks.payload) == 0


def test_compress_empty_collection_rejected():
    with pytest.raises(ValueError):
        compress(Collection([]))


def test_unknown_trailing_section_is_skipped():
    rng = np.random.default_rng(79)
    coll = make_collection(rng, ref_len=4000, n_derived=1)
    data = compress(coll).to_bytes()
    # append an unknown section (id 99) and bump the section count
    head, count_byte, rest = data[:6], data[6], data[7:]
    extra_body = b"future-extension"
    extra = bytes([99, len(extra_body)]) + extra_body
    patched = head + bytes([count_byte + 1]) + rest + extra
    assert decompress(Archive.from_bytes(patched)) == coll


def test_stats_keys_and_consistency():
    rng = np.random.default_rng(78)
    coll = make_collection(rng, ref_len=10_000, n_derived=2)
    arc = compress(coll)
    data = arc.to_bytes()
    st = arc.stats()
    assert st["total_bytes"] == len(data)
    assert st["input_symbols"] == sum(len(s.data) for s in coll.sequences)
    assert st["header_bytes"] + st["reference_bytes"] + st["relative_bytes"] == st["total_bytes"]


def _distinct_units(arc, i, start, end, units):
    """Reference blocks and stream windows extract(i, start, end) needs,
    found from the factor list (an oracle independent of extract)."""
    e = arc.entries[i]
    if start == end:
        return
    if e.role == ROLE_REFERENCE:
        bs = e.refblocks.block_size
        units.update(("ref", i, b) for b in range(start // bs, -(-end // bs)))
        return
    interval = arc.params.checkpoint_interval
    first = int(e.coded.start_source[e.coded.checkpoint_for(start)])
    for pos, f in arc.iter_factors(e.name):
        if not first <= pos < end:
            continue
        units.add(("win", i, pos // interval))
        lo, hi = max(pos, start), min(pos + f.advance, end)
        if hi <= lo:
            continue
        if f.kind == MATCH:
            r = arc.groups[e.group].reference
            bs = arc.entries[r].refblocks.block_size
            a, b = f.position + lo - pos, f.position + hi - pos
            units.update(("ref", r, blk) for blk in range(a // bs, -(-b // bs)))
        elif f.kind == RESERVOIR:
            prov = arc.provenances[e.group]
            for j, p, n in resolve_reservoir_range(prov, f.position + lo - pos, hi - lo):
                _distinct_units(arc, j, p, p + n, units)


def _unit_bytes(arc, units):
    total = 0
    for kind, i, k in units:
        e = arc.entries[i]
        if kind == "ref":
            total += int(e.refblocks.offsets[k + 1] - e.refblocks.offsets[k])
        else:
            total += sum(int(o[k + 1] - o[k]) for o in e.coded.byte_offs)
    return total


def test_extract_report_counts_distinct_blocks_and_windows():
    rng = np.random.default_rng(80)
    coll = make_collection(rng, ref_len=200_000, n_derived=4, max_n_run=2000)
    arc = Archive.from_bytes(compress(coll).to_bytes())
    assert any(f.kind == RESERVOIR for s in coll.sequences[1:] for _, f in arc.iter_factors(s.name))
    checked = 0
    for _ in range(150):
        i = int(rng.integers(0, len(coll.sequences)))
        n = len(coll.sequences[i].data)
        lo = int(rng.integers(0, n))
        hi = min(n, lo + int(rng.integers(1, 5000)))
        units = set()
        _distinct_units(arc, i, lo, hi, units)
        _, reported = arc.extract_report(coll.sequences[i].name, lo, hi)
        assert reported == _unit_bytes(arc, units), (i, lo, hi)
        checked += len(units) > 1
    assert checked


def test_concurrent_extract_reports_do_not_mix():
    rng = np.random.default_rng(81)
    coll = make_collection(rng, ref_len=100_000, n_derived=3)
    data = compress(coll).to_bytes()
    jobs = []
    for _ in range(300):
        s = coll.sequences[int(rng.integers(0, len(coll.sequences)))]
        lo = int(rng.integers(0, len(s.data) - 3000))
        jobs.append((s.name, lo, lo + int(rng.integers(1, 3000))))
    solo = Archive.from_bytes(data)
    want = [solo.extract_report(*job)[1] for job in jobs]

    shared = Archive.from_bytes(data)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda job: shared.extract_report(*job)[1], jobs, timeout=120))
    finally:
        sys.setswitchinterval(old)
    assert got == want


def test_vector_varints_match_the_scalar_reader():
    rng = np.random.default_rng(82)
    values = []
    buf = bytearray()
    for size in rng.integers(1, 10, 3000).tolist():
        lo = 0 if size == 1 else 1 << (7 * (size - 1))
        v = int(rng.integers(lo, 1 << min(7 * size, 63)))
        values.append(v)
        _write_varint(buf, v)
    fast, slow = _Reader(bytes(buf)), _Reader(bytes(buf))
    assert _read_varints(fast, len(values)).tolist() == [slow.varint() for _ in values] == values
    assert fast.pos == slow.pos == len(buf)


@pytest.mark.parametrize(
    "raw, n",
    [
        (b"\xff" * 9 + b"\x01", 1),  # 2**64 - 1 does not fit int64
        (b"\x80" * 12, 1),  # no terminator
        (b"\x05\x83", 2),  # truncated mid-varint
        (b"\xff" * 8 + b"\x7f" + b"\x01", 2),  # 2**63 - 1 plus 1 overflows the sum
    ],
)
def test_bad_varint_runs_raise_corrupt_archive(raw, n):
    with pytest.raises(CorruptArchiveError):
        _running_sums(_read_varints(_Reader(raw), n))
