"""Re-seal the digests of archive bytes a test damaged on purpose, so
the damage reaches the reader's structural and semantic checks instead
of stopping at a digest mismatch.  An archive is only ever written by
``compress``, so damage is made in the bytes: a section rewritten and
framed again, then resealed."""
import numpy as np

from rlzg.archive import (
    _METADATA,
    _SEC_DIGEST,
    _SEC_PROVENANCE,
    _SEC_REFPAYLOAD,
    _SEC_SEQTABLE,
    _SEC_STREAMPAYLOAD,
    ROLE_REFERENCE,
    _metadata_digest,
    _Reader,
    _read_str,
    _write_varint,
)
from rlzg.errors import CorruptArchiveError
from rlzg.refstore import GROUP_BLOCKS, digest64


def section_spans(data) -> dict[int, tuple[int, int]]:
    """Start and length of each section body (the first of each id).
    Raises CorruptArchiveError when the framing itself is damaged."""
    r = _Reader(bytes(data))
    r.pos = 6
    spans = {}
    for _ in range(r.varint()):
        sec_id = r.varint()
        n = r.varint()
        spans.setdefault(sec_id, (r.pos, n))
        r.take(n)
    return spans


def _varints(values) -> bytes:
    buf = bytearray()
    for v in values:
        _write_varint(buf, v)
    return bytes(buf)


def reframe(data: bytes, sec_id: int, edit) -> bytes:
    """``data`` with the body of section ``sec_id`` replaced by
    ``edit(body)`` and every section framed again around it."""
    spans = sorted(section_spans(data).items(), key=lambda item: item[1][0])
    out = bytearray(data[:6]) + _varints([len(spans)])
    for sid, (at, n) in spans:
        body = bytes(data[at : at + n])
        if sid == sec_id:
            body = edit(body)
        out += _varints([sid, len(body)]) + body
    return bytes(out)


def with_provenance(data: bytes, provenances) -> bytes:
    """``data`` resealed with its provenance section holding, per group,
    the (member, position, length) rows of ``provenances``."""
    body = b"".join(
        _varints([len(rows)]) + _varints(np.asarray(rows, dtype=np.int64).ravel().tolist())
        for rows in provenances
    )
    return reseal(reframe(data, _SEC_PROVENANCE, lambda _: body))


def with_group_references(data: bytes, references) -> bytes:
    """``data`` resealed with its group table naming ``references``, one
    sequence index (or None) per group."""

    def edit(body):
        t = _Reader(body)
        head = [t.varint(), t.varint()]  # sequence count and reference index
        for _ in range(t.varint()):
            t.varint()
        refs = [0 if r is None else r + 1 for r in references]
        return _varints(head + [len(refs)] + refs) + body[t.pos :]

    return reseal(reframe(data, _SEC_SEQTABLE, edit))


def reseal(data) -> bytes:
    """``data`` with every member and reference block group digest
    recomputed as far as the sequence table still parses, then the
    metadata digest.  Raises CorruptArchiveError or KeyError when the
    section framing is too damaged to find the digests."""
    out = bytearray(data)
    spans = section_spans(out)
    try:
        _reseal_units(out, spans)
    except (CorruptArchiveError, IndexError, ValueError):
        pass  # a damaged sequence table: the reader stops where this walk did
    bodies = {sec: bytes(out[a : a + n]) for sec, (a, n) in spans.items() if sec in _METADATA}
    at, n = spans[_SEC_DIGEST]
    if n != 8:
        raise CorruptArchiveError("metadata digest section of the wrong size")
    out[at : at + 8] = _metadata_digest(bytes(out[:6]), bodies)
    return bytes(out)


def _reseal_units(out: bytearray, spans) -> None:
    base, n = spans[_SEC_SEQTABLE]
    t = _Reader(bytes(out[base : base + n]))
    ref_at, stream_at = spans[_SEC_REFPAYLOAD][0], spans[_SEC_STREAMPAYLOAD][0]
    n_seq = t.varint()
    t.varint()  # reference index
    for _ in range(t.varint()):
        t.varint()  # group references
    for _ in range(n_seq):
        for _ in range(3):
            _read_str(t)
        t.varint()  # length
        role = t.u8()
        t.varint()  # group
        if role == ROLE_REFERENCE:
            t.varint()  # payload base: the reader requires the running offset
            n_blocks = t.varint()
            offsets = np.frombuffer(t.take(8 * (n_blocks + 1)), dtype="<u8").astype(np.int64)
            for b in range(0, n_blocks, GROUP_BLOCKS):
                lo, hi = offsets[b], offsets[min(b + GROUP_BLOCKS, n_blocks)]
                at = base + t.pos
                t.take(8)
                out[at : at + 8] = digest64(out[ref_at + lo : ref_at + hi])
            ref_at += int(offsets[-1])
        else:
            size = sum(t.varint() for _ in range(4))
            at = base + t.pos
            t.take(8)
            block = t.take(t.varint())
            out[at : at + 8] = digest64(block, out[stream_at : stream_at + size])
            stream_at += size
