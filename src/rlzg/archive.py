"""The archive container and the top-level algorithms.

File layout (all integers little-endian, varints are unsigned LEB128):

    magic "RLZG" | version u8 (3) | flags u8 (bit 0: per-record matching)
    section count varint, then per section: id varint, length varint, body

Sections: 1 params (m1 u16, m2 u16, m3 u32, gap limit u8, candidate
cap u32, checkpoint interval u32, block size u32), 7 metadata digest,
3 Huffman tables (reference table plus the four stream models, 640
bytes), 2 sequence table, 4 reservoir provenance, 5 reference payloads,
6 stream payloads.
Readers skip unknown section ids, so the format can grow trailing
sections without breaking old readers.

Every byte a reader uses is covered by a blake2b-64 digest (RFC 7693),
one per unit in the manner of zstd's per-frame checksum (RFC 8878,
3.1.1); the framing is checked by structure alone:

- the metadata: the header, params, models, sequence table and
  provenance, whose digest is section 7;
- a member: its checkpoint block and its four stream payloads;
- a reference block group: the payload of ``GROUP_BLOCKS`` blocks.

Unit digests sit in the sequence table, next to the checkpoint block
(whose byte length is stored, so it can be skipped) or the block index.
An archive is written once, by :func:`compress`, and only read after:
``compress`` returns ``Archive.from_bytes`` of the bytes it wrote, and
``to_bytes`` returns the bytes an archive was opened from, so an
archive changed in memory is never written again.
``from_bytes`` checks the metadata digest and the structure, and hashes
no payload.  A member's digest is checked, and its checkpoint block
decoded, on its first access; a block group's before any of its blocks
decodes.  A unit that fails raises :class:`CorruptArchiveError` on every
touch and is never cached.

The archive is self-describing: decompression and extraction need no
side information.  Reservoir content is never stored twice; a reservoir
match resolves through the provenance table to literal runs of its
origin members, and an extract reads each piece from its origin's
decoded literals, checking that it lands inside one literal run.

Compression and decompression each walk the matching groups once.  A
group's members are parsed, and later rebuilt, in collection order
against the group's reference and its reservoir, which grows by each
member's literal runs of at least m3 symbols.  Decompression decodes a
member's factor columns in one batch and checks the runs it replays
against the provenance table.
"""
from __future__ import annotations

import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import refstore
from .errors import CorruptArchiveError, UnsupportedVersionError
from .genome import N, Collection, Sequence
from .huffman import HuffmanTable, _cat_ranges, _placeholder
from .kmer import KmerIndex, n_free_grams
from .parse import (
    GAP_LIMIT,
    LITERAL,
    MATCH,
    NRUN,
    RESERVOIR,
    FactorColumns,
    ParseParams,
    apply_factor,  # noqa: F401  perfbench's tracer counts calls made through this name
    parse_sequence,
)
from .refstore import (
    BLOCK_SIZE,
    GROUP_BLOCKS,
    RefBlocks,
    ReservoirProvenance,
    append_reservoir_phrase,
    decode_reference_range,
    digest64,
    encode_reference,
    pack_reference,
    packed_block_counts,
    range_payload_bytes,
)
from .streams import (
    N_MODELS,
    CodedSequence,
    ModelSet,
    RawStreams,
    SequenceDecoder,
    build_models,
    compress_streams,
    encode_parse,
)

MAGIC = b"RLZG"
VERSION = 3

_SEC_PARAMS = 1
_SEC_SEQTABLE = 2
_SEC_MODELS = 3
_SEC_PROVENANCE = 4
_SEC_REFPAYLOAD = 5
_SEC_STREAMPAYLOAD = 6
_SEC_DIGEST = 7
# the sections the metadata digest covers, in digest order
_METADATA = (_SEC_PARAMS, _SEC_MODELS, _SEC_SEQTABLE, _SEC_PROVENANCE)
# the writer's section order; a reader finds sections by id, in any order
_SECTION_ORDER = (_SEC_PARAMS, _SEC_DIGEST, *_METADATA[1:], _SEC_REFPAYLOAD, _SEC_STREAMPAYLOAD)
_PARAMS_FORMAT = "<HHIBIII"

ROLE_REFERENCE = 0
ROLE_MEMBER = 1


def _write_varint(buf: bytearray, v: int) -> None:
    if v < 0:
        raise ValueError("varints are unsigned")
    while True:
        b = v & 0x7F
        v >>= 7
        if v:
            buf.append(b | 0x80)
        else:
            buf.append(b)
            return


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def varint(self) -> int:
        shift = 0
        out = 0
        while True:
            if self.pos >= len(self.data):
                raise CorruptArchiveError("truncated archive")
            b = self.data[self.pos]
            self.pos += 1
            out |= (b & 0x7F) << shift
            if not b & 0x80:
                return out
            shift += 7
            if shift > 63:
                raise CorruptArchiveError("varint overflow")

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CorruptArchiveError("truncated archive")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]


def _write_str(buf: bytearray, s: str) -> None:
    raw = s.encode("utf-8")
    _write_varint(buf, len(raw))
    buf.extend(raw)


def _read_str(r: _Reader) -> str:
    n = r.varint()
    try:
        return str(r.take(n), "utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptArchiveError("undecodable name in sequence table") from exc


def _read_varints(r: _Reader, n: int) -> np.ndarray:
    """The next ``n`` varints as int64, decoded together.  A varint
    longer than nine bytes (more than 63 bits) is rejected; the writer
    never emits one."""
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    avail = min(len(r.data) - r.pos, 10 * n)
    buf = np.frombuffer(r.data, dtype=np.uint8, count=avail, offset=r.pos)
    ends = np.flatnonzero(buf < 0x80)[:n]
    if len(ends) < n:
        raise CorruptArchiveError("truncated archive")
    sizes = np.diff(ends, prepend=-1)
    if int(sizes.max()) > 9:
        raise CorruptArchiveError("varint does not fit a 64-bit integer")
    used = int(ends[-1]) + 1
    firsts = ends - sizes + 1
    shifts = 7 * (np.arange(used, dtype=np.int64) - np.repeat(firsts, sizes))
    groups = (buf[:used] & 0x7F).astype(np.int64) << shifts
    r.pos += used
    return np.add.reduceat(groups, firsts)


def _running_sums(deltas: np.ndarray) -> np.ndarray:
    """Running sums along the last axis of ``deltas`` as read by
    :func:`_read_varints`, each row starting from a leading 0 (see
    :func:`_checkpoint_block`)."""
    out = np.zeros(deltas.shape[:-1] + (deltas.shape[-1] + 1,), dtype=np.int64)
    np.cumsum(deltas, axis=-1, out=out[..., 1:])
    # every delta is below 2**63, so a sum past int64 wraps negative first
    if out.min() < 0:
        raise CorruptArchiveError("delta sum does not fit a 64-bit integer")
    return out


@dataclass
class Group:
    """One matching universe: a reference record and its members."""

    reference: int | None
    members: list[int] = field(default_factory=list)


def matching_groups(collection: Collection) -> list[Group]:
    """Partition the collection into matching universes.

    Whole-sequence mode yields one group.  Per-record mode pairs every
    record with its counterpart in the reference file, by record name
    first, by ordinal within its file second; records with no
    counterpart share one reference-less group.
    """
    if collection.granularity == "whole":
        ref = collection.reference_index
        members = [i for i in range(len(collection.sequences)) if i != ref]
        return [Group(ref, members)]
    seqs = collection.sequences
    ref_tag = seqs[collection.reference_index].file_tag
    ref_records = [i for i, s in enumerate(seqs) if s.file_tag == ref_tag]
    by_name: dict[str, int] = {}
    for gi, i in enumerate(ref_records):
        by_name.setdefault(seqs[i].record_name, gi)
    groups = [Group(i) for i in ref_records]
    orphan: Group | None = None
    ordinal: dict[str, int] = {}
    for i, s in enumerate(seqs):
        if s.file_tag == ref_tag:
            continue
        j = ordinal.get(s.file_tag, 0)
        ordinal[s.file_tag] = j + 1
        gi = by_name.get(s.record_name)
        if gi is None and j < len(ref_records):
            gi = j
        if gi is None:
            if orphan is None:
                orphan = Group(None)
            orphan.members.append(i)
        else:
            groups[gi].members.append(i)
    if orphan is not None:
        groups.append(orphan)
    return groups


def reference_scores(collection: Collection, m1: int = 13) -> list[int]:
    """Per sequence, the score :func:`select_reference` maximizes: its
    N-free m1-windows, or in record granularity those of all records of
    its file (``file_tag``).  Raises ValueError when ``m1`` < 1."""
    if m1 < 1:
        raise ValueError(f"m1 must be positive, got {m1}")
    seqs = collection.sequences
    counts = [int(n_free_grams(s.data, m1).sum()) for s in seqs]
    if collection.granularity == "whole":
        return counts
    totals: dict[str, int] = {}
    for s, c in zip(seqs, counts):
        totals[s.file_tag] = totals.get(s.file_tag, 0) + c
    return [totals[s.file_tag] for s in seqs]


def select_reference(collection: Collection, m1: int = 13) -> int:
    """Index of the suggested reference (advisory; compress takes
    whatever reference_index says): the sequence with the most N-free
    m1-windows, or in record granularity the first record of the file
    whose records hold the most.  The lowest index wins ties."""
    return int(np.argmax(reference_scores(collection, m1)))


def _metadata_digest(head, bodies: dict) -> bytes:
    """Digest of the archive header and the metadata sections, their
    lengths first."""
    parts = [bodies[sec] for sec in _METADATA]
    return digest64(head, struct.pack("<4Q", *map(len, parts)), *parts)


def _checkpoint_block(coded: CodedSequence) -> bytes:
    """A member's checkpoint table: the window starts, then per stream
    the symbol and byte offsets, nine rows of varint deltas from 0."""
    table = np.empty((9, coded.n_windows), dtype=np.int64)
    table[0] = coded.start_source
    table[1::2] = coded.sym_counts[:, 1:]
    table[2::2] = coded.byte_offs[:, 1:]
    block = bytearray()
    for v in np.diff(table, prepend=0).ravel().tolist():
        _write_varint(block, v)
    return bytes(block)


@dataclass
class _SealedMember:
    """A member's checkpoint block and stream payloads as read, and the
    digest they must match before either is used."""

    digest: bytes
    checkpoints: memoryview
    payloads: list[memoryview]
    interval: int

    def open(self, length: int) -> CodedSequence:
        if digest64(self.checkpoints, *self.payloads) != self.digest:
            raise CorruptArchiveError("member digest mismatch")
        n_windows = -(-length // self.interval)
        r = _Reader(self.checkpoints)
        runs = _running_sums(_read_varints(r, 9 * n_windows).reshape(9, n_windows))
        if r.pos != len(self.checkpoints):
            raise CorruptArchiveError("checkpoint block longer than its windows")
        if runs[2::2, -1].tolist() != [len(p) for p in self.payloads]:
            raise CorruptArchiveError("checkpoint offsets disagree with payload size")
        return CodedSequence(length, list(self.payloads), runs[0, 1:], runs[1::2], runs[2::2])


@dataclass
class SequenceEntry:
    name: str
    record_name: str
    file_tag: str
    length: int
    role: int
    group: int
    refblocks: RefBlocks | None = None
    meta_bytes: int = 0  # serialized sequence-table entry size
    sealed: _SealedMember | None = field(default=None, repr=False)
    _coded: CodedSequence | None = field(default=None, init=False, repr=False)

    @property
    def coded(self) -> CodedSequence | None:
        """A member's coded streams.  A member stays ``sealed`` until
        this is first read, which checks its digest and decodes its
        checkpoint block; a failed check keeps nothing."""
        if self._coded is None and self.sealed is not None:
            self._coded = self.sealed.open(self.length)
        return self._coded


@dataclass
class _Touched:
    """Distinct coded units one extract reads: (reference entry, block)
    pairs and, per member entry, its decoder and windows."""

    blocks: set[tuple[int, int]] = field(default_factory=set)
    windows: dict[int, tuple[SequenceDecoder, set[int]]] = field(default_factory=dict)

    def add_blocks(self, ref: int, start: int, end: int) -> None:
        self.blocks.update((ref, b) for b in range(start // BLOCK_SIZE, -(-end // BLOCK_SIZE)))


class Archive:
    """A compressed collection with random-access extraction, opened
    from the bytes it was written as."""

    def __init__(
        self,
        data: bytes,
        section_sizes: dict[int, int],
        params: ParseParams,
        granularity: str,
        reference_index: int,
        entries: list[SequenceEntry],
        groups: list[Group],
        ref_table: HuffmanTable,
        models: ModelSet,
        provenances: list[ReservoirProvenance],
    ):
        self._data = data
        self.section_sizes = section_sizes
        self.params = params
        self.granularity = granularity
        self.reference_index = reference_index
        self.entries = entries
        self.groups = groups
        self.ref_table = ref_table
        self.models = models
        self.provenances = provenances
        self._by_name = {e.name: i for i, e in enumerate(entries)}
        self._decoders: dict[int, SequenceDecoder] = {}
        self._ref_block_cache: dict[tuple[int, int], np.ndarray] = {}

    # ------------------------------------------------------------------
    # serialization

    def to_bytes(self) -> bytes:
        """The bytes this archive was opened from."""
        return self._data

    @classmethod
    def from_bytes(cls, data: bytes) -> "Archive":
        """Open an archive: check its header, its framing and the
        metadata digest, and parse everything but the payloads and the
        checkpoint blocks, which are checked and decoded on first use."""
        data = bytes(data)  # no copy of a bytes object; the views below stay valid
        if len(data) < 6 or data[:4] != MAGIC:
            raise CorruptArchiveError("not an archive (bad magic)")
        if data[4] != VERSION:
            raise UnsupportedVersionError(f"unsupported archive version {data[4]}")
        granularity = "record" if data[5] & 1 else "whole"
        r = _Reader(memoryview(data))
        r.pos = 6
        sections: dict[int, memoryview] = {}
        for _ in range(r.varint()):
            sec_id = r.varint()
            body = r.take(r.varint())
            sections.setdefault(sec_id, body)
        for required in (*_METADATA, _SEC_DIGEST, _SEC_REFPAYLOAD, _SEC_STREAMPAYLOAD):
            if required not in sections:
                raise CorruptArchiveError(f"missing archive section {required}")
        if _metadata_digest(data[:6], sections) != sections[_SEC_DIGEST]:
            raise CorruptArchiveError("metadata digest mismatch")

        body = sections[_SEC_PARAMS]
        if len(body) != struct.calcsize(_PARAMS_FORMAT):
            raise CorruptArchiveError("malformed params section")
        m1, m2, m3, gap, cap, interval, block_size = struct.unpack(_PARAMS_FORMAT, body)
        params = ParseParams(m1, m2, m3, cap, interval)
        try:
            params.validate()
        except ValueError as exc:
            raise CorruptArchiveError(f"invalid stored parameters: {exc}") from exc
        if (gap, block_size) != (GAP_LIMIT, BLOCK_SIZE):
            raise CorruptArchiveError(
                f"stored gap limit and block size {(gap, block_size)}, "
                f"the format fixes {(GAP_LIMIT, BLOCK_SIZE)}"
            )

        blob = sections[_SEC_MODELS]
        if len(blob) != (1 + N_MODELS) * 128:
            raise CorruptArchiveError("malformed model section")
        ref_table = HuffmanTable.deserialize(blob[:128])
        models = ModelSet.deserialize(blob[128:])

        t = _Reader(sections[_SEC_SEQTABLE])
        n_seq = t.varint()
        reference_index = t.varint()
        n_groups = t.varint()
        groups = []
        for _ in range(n_groups):
            raw = t.varint()
            groups.append(Group(raw - 1 if raw else None))
        ref_payload = sections[_SEC_REFPAYLOAD]
        stream_payload = sections[_SEC_STREAMPAYLOAD]
        ref_pos = stream_pos = 0
        entries: list[SequenceEntry] = []
        for _ in range(n_seq):
            mark = t.pos
            name = _read_str(t)
            record_name = _read_str(t)
            file_tag = _read_str(t)
            length = t.varint()
            role = t.u8()
            group = t.varint()
            if group >= n_groups:
                raise CorruptArchiveError("sequence points at a missing group")
            entry = SequenceEntry(name, record_name, file_tag, length, role, group)
            if role == ROLE_REFERENCE:
                base = t.varint()
                n_blocks = t.varint()
                if n_blocks != -(-length // BLOCK_SIZE):
                    raise CorruptArchiveError("block count does not match length")
                raw = t.take((n_blocks + 1) * 8)
                offsets = np.frombuffer(raw, dtype="<u8").astype(np.int64)
                if (np.diff(offsets) < 0).any() or offsets[0] != 0:
                    raise CorruptArchiveError("block index offsets not non-decreasing")
                raw = t.take(-(-n_blocks // GROUP_BLOCKS) * 8)
                digests = [bytes(raw[k : k + 8]) for k in range(0, len(raw), 8)]
                # reference payloads tile their section in entry order
                if base != ref_pos or base + int(offsets[-1]) > len(ref_payload):
                    raise CorruptArchiveError("reference payload out of bounds")
                ref_pos = base + int(offsets[-1])
                entry.refblocks = RefBlocks(
                    length, offsets, ref_payload[base:ref_pos], ref_table, digests
                )
            elif role == ROLE_MEMBER:
                plens = [t.varint() for _ in range(4)]
                digest = bytes(t.take(8))
                checkpoints = t.take(t.varint())
                payloads = []
                for plen in plens:
                    if stream_pos + plen > len(stream_payload):
                        raise CorruptArchiveError("stream payload out of bounds")
                    payloads.append(stream_payload[stream_pos : stream_pos + plen])
                    stream_pos += plen
                entry.sealed = _SealedMember(digest, checkpoints, payloads, interval)
            else:
                raise CorruptArchiveError(f"unknown sequence role {role}")
            entry.meta_bytes = t.pos - mark
            entries.append(entry)
        if not entries:
            raise CorruptArchiveError("archive holds no sequences")
        if (ref_pos, stream_pos) != (len(ref_payload), len(stream_payload)):
            raise CorruptArchiveError("payload bytes outside every sequence")
        if not 0 <= reference_index < len(entries):
            raise CorruptArchiveError("reference index out of range")
        refs = {i for i, e in enumerate(entries) if e.role == ROLE_REFERENCE}
        if any(groups[entries[i].group].reference != i for i in refs) or any(
            g.reference not in refs for g in groups if g.reference is not None
        ):
            raise CorruptArchiveError("groups and reference records disagree")

        # a provenance row names a literal run of a member of its group
        seq_group = np.array([e.group for e in entries])
        seq_member = np.array([e.role == ROLE_MEMBER for e in entries])
        seq_len = np.array([e.length for e in entries], dtype=np.int64)
        p = _Reader(sections[_SEC_PROVENANCE])
        provenances = []
        for g in range(n_groups):
            rows = _read_varints(p, 3 * p.varint()).reshape(-1, 3)
            if len(rows) and rows[:, 0].max() >= n_seq:
                raise CorruptArchiveError("provenance points at a missing sequence")
            seq, pos, length = rows.T
            if (
                (seq_group[seq] != g)
                | ~seq_member[seq]
                | (length < params.m3)
                | (pos > seq_len[seq] - length)
            ).any():
                raise CorruptArchiveError("provenance row is not a literal run of its group")
            provenances.append(ReservoirProvenance(rows, _running_sums(length)))
        for g, grp in enumerate(groups):
            grp.members = [
                i for i, e in enumerate(entries) if e.group == g and e.role == ROLE_MEMBER
            ]

        return cls(
            data,
            {sec_id: len(body) for sec_id, body in sections.items()},
            params,
            granularity,
            reference_index,
            entries,
            groups,
            ref_table,
            models,
            provenances,
        )

    @classmethod
    def load(cls, path) -> "Archive":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())

    # ------------------------------------------------------------------
    # decoding

    def _decoder(self, i: int) -> SequenceDecoder:
        dec = self._decoders.get(i)
        if dec is None:
            dec = self._decoders.setdefault(
                i, SequenceDecoder(self.entries[i].coded, self.models, self.params)
            )
        return dec

    def _member_columns(self, i: int) -> FactorColumns:
        """Every factor of member ``i`` from one batched decode, on a
        decoder of its own so a decompression leaves no cache behind."""
        return SequenceDecoder(self.entries[i].coded, self.models, self.params).prefetch_all()

    def iter_factors(self, name: str):
        """Yield (source_start, factor) for one member sequence (debug
        and test instrumentation)."""
        i = self._lookup_name(name)
        if self.entries[i].role != ROLE_MEMBER:
            raise ValueError(f"{name!r} is a reference record")
        cols = self._member_columns(i)
        yield from zip(cols.start.tolist(), cols.to_factors())

    def decompress(self, threads: int = 1) -> Collection:
        """Reconstruct the exact original collection.

        Group by group: the reference decodes once, then the members are
        rebuilt in collection order, since each appends its literal runs
        of at least m3 symbols to the group's reservoir for the members
        after it.  Their factor columns decode in a pool of ``threads``
        workers when that is above 1.  Every unit is touched, so every
        digest is checked.  The replayed runs must equal the group's
        provenance table, row for row.
        """
        symbols: list[np.ndarray | None] = [None] * len(self.entries)
        pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
        try:
            for g, grp in enumerate(self.groups):
                ref = res = np.zeros(0, dtype=np.uint8)
                if grp.reference is not None:
                    rb = self.entries[grp.reference].refblocks
                    ref = symbols[grp.reference] = decode_reference_range(rb, 0, rb.n_symbols)
                rows = [np.zeros((0, 3), dtype=np.int64)]
                columns = (pool.map if pool else map)(self._member_columns, grp.members)
                for i, cols in zip(grp.members, columns):
                    symbols[i], res = self._rebuild_member(i, cols, ref, res, rows)
                if not np.array_equal(np.concatenate(rows), self.provenances[g].rows):
                    raise CorruptArchiveError("provenance disagrees with the members' literal runs")
        finally:
            if pool:
                pool.shutdown(cancel_futures=True)
        out = [Sequence(e.name, d, e.record_name, e.file_tag) for e, d in zip(self.entries, symbols)]
        return Collection(out, self.reference_index, self.granularity)

    def _rebuild_member(
        self, i: int, cols: FactorColumns, ref: np.ndarray, res: np.ndarray, rows: list
    ) -> tuple[np.ndarray, np.ndarray]:
        """Member ``i``'s symbols from its factor columns, and the
        reservoir ``res`` grown by the member's literal runs of at least
        m3 symbols, whose (member, start, length) rows go to ``rows`` as
        one int64 array."""
        kind, start, adv, pos = cols.kind, cols.start, cols.advance, cols.position
        is_match = kind == MATCH
        is_res = kind == RESERVOIR
        if (is_match & ((pos < 0) | (pos + adv > len(ref)))).any():
            raise CorruptArchiveError("match points outside the reference")
        # a reservoir match sees the reservoir as it stood at its factor
        grown = np.where((kind == LITERAL) & (adv >= self.params.m3), adv, 0)
        res_before = len(res) + np.cumsum(grown) - grown
        if (is_res & (pos + adv > res_before)).any():
            raise CorruptArchiveError("reservoir match beyond the reservoir")
        grew = grown > 0
        rows.append(np.column_stack((np.full(int(grew.sum()), i), start[grew], adv[grew])))
        lits, lit_off = cols.lits, cols.lit_off

        # Every factor but an N-run is one slice of this buffer, whose
        # middle is the grown reservoir; gap symbols then overwrite the
        # reference symbols copied under them.
        src = np.concatenate((ref, res, lits[_cat_ranges(lit_off[grew], adv[grew])], lits))
        res_end = len(ref) + len(res) + int(grown.sum())
        src_off = np.where(is_match, pos, np.where(is_res, len(ref) + pos, res_end + lit_off))
        out = np.empty(self.entries[i].length, dtype=np.uint8)
        cp = kind != NRUN
        s, o, a = start[cp], src_off[cp], adv[cp]
        # memoryview slices copy with far less per-call cost than ndarray ones
        dst, srcv = memoryview(out), memoryview(src)
        for s0, s1, o0, o1 in zip(s.tolist(), (s + a).tolist(), o.tolist(), (o + a).tolist()):
            dst[s0:s1] = srcv[o0:o1]
        nrun = kind == NRUN
        out[_cat_ranges(start[nrun], adv[nrun])] = N
        pieces = cols.pieces
        for j in (1, 2):
            g = pieces[:, j] > 0
            out[start[g] + pieces[g, :j].sum(axis=1) + (j - 1)] = lits[lit_off[g] + (j - 1)]
        return out, src[len(ref) : res_end]

    # ------------------------------------------------------------------
    # random access

    def _lookup_name(self, name: str) -> int:
        i = self._by_name.get(name)
        if i is None:
            raise KeyError(f"no sequence named {name!r} in this archive")
        return i

    def extract(self, name: str, start: int, end: int) -> np.ndarray:
        """Symbols [start, end) of one sequence, decoding only the
        covering checkpoint windows, referenced reference blocks, and the
        windows of the literal runs its reservoir matches hop to."""
        return self._extract_range(name, start, end, _Touched())

    def extract_report(self, name: str, start: int, end: int) -> tuple[np.ndarray, int]:
        """extract() plus the coded payload bytes of the distinct
        reference blocks and stream windows the range needs
        (cache-independent access-cost metric)."""
        touched = _Touched()
        out = self._extract_range(name, start, end, touched)
        total = 0
        for r, b in touched.blocks:
            rb = self.entries[r].refblocks
            lo = b * rb.block_size
            total += range_payload_bytes(rb, lo, min(lo + rb.block_size, rb.n_symbols))
        for dec, windows in touched.windows.values():
            dec.last_touched = windows
            total += dec.touched_payload_bytes()
        return out, total

    def _ref_range(self, group: int, start: int, end: int) -> np.ndarray:
        """Reference symbols via the per-block decode cache."""
        ref_idx = self.groups[group].reference
        if ref_idx is None:
            raise CorruptArchiveError("match against a missing reference")
        rb = self.entries[ref_idx].refblocks
        if not 0 <= start < end <= rb.n_symbols:
            raise CorruptArchiveError("match points outside the reference")
        bs = rb.block_size
        b0, b1 = start // bs, -(-end // bs)
        parts = []
        for b in range(b0, b1):
            key = (ref_idx, b)
            blk = self._ref_block_cache.get(key)
            if blk is None:
                lo = b * bs
                hi = min(lo + bs, rb.n_symbols)
                blk = decode_reference_range(rb, lo, hi)
                self._ref_block_cache[key] = blk
            parts.append(blk)
        whole = np.concatenate(parts) if len(parts) > 1 else parts[0]
        lo = start - b0 * bs
        return whole[lo : lo + (end - start)]

    def _member_factors(self, i: int, start: int, end: int, touched: _Touched):
        """Factors of member ``i`` over [start, end), and the index of the
        one holding ``start``; their windows go to ``touched``."""
        dec = self._decoder(i)
        cols, windows = dec.factors_from(self.entries[i].coded.checkpoint_for(start), end)
        touched.windows.setdefault(i, (dec, set()))[1].update(windows)
        k = int(np.searchsorted(cols.start, start, side="right")) - 1
        if k < 0:
            raise CorruptArchiveError("decoded factors start after the requested range")
        return cols, k

    def _literal_run(self, i: int, start: int, end: int, touched: _Touched) -> np.ndarray:
        """Symbols [start, end) of member ``i``, which must lie in one of
        its literal runs, as every reservoir piece does."""
        cols, k = self._member_factors(i, start, end, touched)
        f_start = int(cols.start[k])
        if cols.kind[k] != LITERAL or f_start + int(cols.advance[k]) < end:
            raise CorruptArchiveError("reservoir piece does not lie in a literal run")
        lit = int(cols.lit_off[k]) + start - f_start
        return cols.lits[lit : lit + end - start]

    # per factor, unlike _rebuild_member: a clipped vectorized rebuild costs ~35 us on 3 factors
    def _extract_range(self, name: str, start: int, end: int, touched: _Touched) -> np.ndarray:
        i = self._lookup_name(name)
        e = self.entries[i]
        if not 0 <= start <= end <= e.length:
            raise ValueError(f"range [{start}, {end}) outside sequence of {e.length}")
        if start == end:
            return np.zeros(0, dtype=np.uint8)
        if e.role == ROLE_REFERENCE:
            touched.add_blocks(i, start, end)
            return self._ref_range(e.group, start, end)

        cols, k = self._member_factors(i, start, end, touched)
        out = np.empty(end - start, dtype=np.uint8)
        lits = cols.lits
        ref_idx = self.groups[e.group].reference
        covered = start
        for kind, f_start, adv, f_pos, pieces, lit in zip(
            cols.kind[k:].tolist(),
            cols.start[k:].tolist(),
            cols.advance[k:].tolist(),
            cols.position[k:].tolist(),
            cols.pieces[k:].tolist(),
            cols.lit_off[k:].tolist(),
        ):
            lo, hi = max(f_start, start), min(f_start + adv, end)
            covered = f_start + adv
            at, n = lo - start, hi - lo
            rel_lo, rel_hi = lo - f_start, hi - f_start
            if kind == LITERAL:
                out[at : at + n] = lits[lit + rel_lo : lit + rel_hi]
                continue
            if kind == NRUN:
                out[at : at + n] = N
                continue
            if kind == MATCH:
                out[at : at + n] = self._ref_range(e.group, f_pos + rel_lo, f_pos + rel_hi)
                touched.add_blocks(ref_idx, f_pos + rel_lo, f_pos + rel_hi)
            else:
                prov = self.provenances[e.group]
                for j, pos, m in refstore.resolve_reservoir_range(prov, f_pos + rel_lo, n):
                    out[at : at + m] = self._literal_run(j, pos, pos + m, touched)
                    at += m
            # overwrite the gap positions that fall inside the slice
            cursor = 0
            for j in range(2 - pieces.count(0)):
                cursor += pieces[j]
                if rel_lo <= cursor < rel_hi:
                    out[f_start - start + cursor] = lits[lit + j]
                cursor += 1
        if covered < end:
            raise CorruptArchiveError("decoded factors end before the requested range")
        return out

    # ------------------------------------------------------------------
    # reporting

    def verify(self) -> int:
        """Check the digest of every member and reference block group,
        as a decompression does on its way, without decoding symbols.
        Returns the number of units checked; a unit that fails raises
        :class:`CorruptArchiveError`."""
        units = 0
        for e in self.entries:
            if e.role == ROLE_REFERENCE:
                e.refblocks.check_blocks(0, e.refblocks.n_blocks)
                units += e.refblocks.n_groups
            elif e.coded is not None:  # reading it opens a sealed member
                units += 1
        return units

    def stats(self) -> dict[str, float | int]:
        """Size breakdown (bytes) plus derived ratios; the relative part
        is the member stream payloads together with their checkpoint
        metadata.  ``reservoir_phrases`` and ``reservoir_symbols`` count
        the literal runs the reservoirs hold, summed over the groups."""
        ref_meta = sum(e.meta_bytes for e in self.entries if e.role == ROLE_REFERENCE)
        rel_meta = sum(e.meta_bytes for e in self.entries if e.role == ROLE_MEMBER)
        reference_bytes = self.section_sizes[_SEC_REFPAYLOAD] + ref_meta
        relative_bytes = self.section_sizes[_SEC_STREAMPAYLOAD] + rel_meta
        total = len(self._data)
        header_bytes = total - reference_bytes - relative_bytes
        ref_symbols = sum(e.length for e in self.entries if e.role == ROLE_REFERENCE)
        member_symbols = sum(e.length for e in self.entries if e.role == ROLE_MEMBER)
        symbols = ref_symbols + member_symbols
        return {
            "sequences": len(self.entries),
            "input_symbols": symbols,
            "total_bytes": total,
            "header_bytes": header_bytes,
            "reference_bytes": reference_bytes,
            "relative_bytes": relative_bytes,
            "bpb_overall": 8 * total / symbols if symbols else 0.0,
            "bpb_reference": 8 * reference_bytes / ref_symbols if ref_symbols else 0.0,
            "bpb_relative": 8 * relative_bytes / member_symbols if member_symbols else 0.0,
            "reservoir_phrases": sum(len(p.rows) for p in self.provenances),
            "reservoir_symbols": sum(p.total_length for p in self.provenances),
        }


def _write_archive(
    params: ParseParams,
    collection: Collection,
    groups: list[Group],
    ref_table: HuffmanTable,
    models: ModelSet,
    units: list[RefBlocks | CodedSequence],
    provenances: list[list[tuple[int, int, int]]],
) -> bytes:
    """The archive bytes of ``collection``: per sequence, its coded
    ``units`` entry (a reference record's blocks or a member's streams),
    and per group, its matching universe and provenance rows."""
    group_of = {i: g for g, grp in enumerate(groups) for i in [grp.reference, *grp.members]}
    ref_payload = bytearray()
    stream_payload = bytearray()
    seqtable = bytearray()
    _write_varint(seqtable, len(units))
    _write_varint(seqtable, collection.reference_index)
    _write_varint(seqtable, len(groups))
    for g in groups:
        _write_varint(seqtable, 0 if g.reference is None else g.reference + 1)
    for i, (s, unit) in enumerate(zip(collection.sequences, units)):
        _write_str(seqtable, s.name)
        _write_str(seqtable, s.record_name)
        _write_str(seqtable, s.file_tag)
        _write_varint(seqtable, len(s))
        is_ref = isinstance(unit, RefBlocks)
        seqtable.append(ROLE_REFERENCE if is_ref else ROLE_MEMBER)
        _write_varint(seqtable, group_of[i])
        if is_ref:
            _write_varint(seqtable, len(ref_payload))
            _write_varint(seqtable, unit.n_blocks)
            # block index: u64 LE start offsets, one per block + terminator
            seqtable.extend(np.asarray(unit.offsets, dtype="<u8").tobytes())
            seqtable.extend(b"".join(unit.digests))
            ref_payload.extend(unit.payload)
        else:
            for payload in unit.payloads:
                _write_varint(seqtable, len(payload))
            block = _checkpoint_block(unit)
            seqtable.extend(digest64(block, *unit.payloads))
            _write_varint(seqtable, len(block))
            seqtable.extend(block)
            for payload in unit.payloads:
                stream_payload.extend(payload)

    prov = bytearray()
    for rows in provenances:
        _write_varint(prov, len(rows))
        for row in rows:
            for v in row:
                _write_varint(prov, v)

    params_body = struct.pack(
        _PARAMS_FORMAT,
        params.m1,
        params.m2,
        params.m3,
        GAP_LIMIT,
        params.candidate_cap,
        params.checkpoint_interval,
        BLOCK_SIZE,
    )
    bodies = {
        _SEC_PARAMS: params_body,
        _SEC_MODELS: ref_table.serialize() + models.serialize(),
        _SEC_SEQTABLE: seqtable,
        _SEC_PROVENANCE: prov,
    }
    head = MAGIC + bytes([VERSION, 1 if collection.granularity == "record" else 0])
    bodies[_SEC_DIGEST] = _metadata_digest(head, bodies)
    bodies[_SEC_REFPAYLOAD], bodies[_SEC_STREAMPAYLOAD] = ref_payload, stream_payload
    out = bytearray(head)
    _write_varint(out, len(_SECTION_ORDER))
    for sec_id in _SECTION_ORDER:
        _write_varint(out, sec_id)
        _write_varint(out, len(bodies[sec_id]))
        out.extend(bodies[sec_id])
    return bytes(out)


def _parse_group(
    ref: np.ndarray, members: list[int], seqs: list[Sequence], params: ParseParams
) -> tuple[list[RawStreams], list[tuple[int, int, int]]]:
    """Raw streams of a group's members, parsed in collection order
    against the reference ``ref``, and the provenance rows of the
    reservoir their long literal runs grow.  The group's index lives
    only for this call."""
    rows: list[tuple[int, int, int]] = []
    if not members:
        return [], rows
    index = KmerIndex(ref, params.m1, params.candidate_cap)
    raws = []
    for i in members:

        def sink(run, source_pos, hashes, n_free, i=i):
            append_reservoir_phrase(rows, (i, source_pos, len(run)), params.m3)
            index.extend_with_reservoir(run, hashes, n_free)

        raws.append(encode_parse(parse_sequence(index, seqs[i].data, params, sink), params))
    return raws, rows


def compress(collection: Collection, params: ParseParams | None = None) -> Archive:
    """Compress a collection into an archive, written once and returned
    opened from its bytes.

    Group by group, the members are parsed in collection order against
    the group's reference and its growing reservoir.  Then one shared
    Huffman table codes every reference record with the blocked triplet
    codec, and one shared model set, built from every member's raw
    streams, codes the member streams.
    """
    params = params or ParseParams()
    params.validate()
    collection.validate()
    seqs = collection.sequences
    groups = matching_groups(collection)

    ref_counts = np.zeros(256, dtype=np.int64)
    packed_refs = {}
    provenances = []
    raws: dict[int, RawStreams] = {}
    for grp in groups:
        if grp.reference is None:
            ref = np.zeros(0, dtype=np.uint8)
        else:
            ref = seqs[grp.reference].data
            packed_refs[grp.reference] = pack_reference(ref)
            ref_counts += packed_block_counts(packed_refs[grp.reference])
        group_raws, rows = _parse_group(ref, grp.members, seqs, params)
        raws.update(zip(grp.members, group_raws))
        provenances.append(rows)
    ref_table = HuffmanTable.from_counts(_placeholder(ref_counts))
    models = build_models(list(raws.values()))

    units: list[RefBlocks | CodedSequence] = [None] * len(seqs)
    for i, packed in packed_refs.items():
        units[i] = encode_reference(packed, ref_table)
    for i, raw in raws.items():
        units[i] = compress_streams(raw, models)
    data = _write_archive(params, collection, groups, ref_table, models, units, provenances)
    return Archive.from_bytes(data)


def decompress(archive: Archive, threads: int = 1) -> Collection:
    """Inverse of :func:`compress`."""
    return archive.decompress(threads=threads)
