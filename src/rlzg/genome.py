"""Sequence model and FASTA I/O over the 5-letter alphabet A, C, G, T, N.

Every input letter maps to exactly one code in 0..4.  A/C/G/T keep their
own codes; every other IUPAC letter (upper or lower case) is normalized
to N.  Soft-masking case is not preserved.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FastaError

# Symbol codes.
A, C, G, T, N = 0, 1, 2, 3, 4
ALPHABET = b"ACGTN"
ALPHABET_SIZE = 5

_INVALID = 255


def _build_encode_table() -> bytes:
    table = bytearray([_INVALID] * 256)
    for b in range(ord("A"), ord("Z") + 1):
        table[b] = N
        table[b + 32] = N  # lower case
    for code, b in enumerate(b"ACGT"):
        table[b] = code
        table[b + 32] = code
    table[ord("N")] = N
    table[ord("n")] = N
    return bytes(table)


_ENCODE = _build_encode_table()
_DECODE = np.frombuffer(ALPHABET, dtype=np.uint8)


@dataclass(eq=False)
class Sequence:
    """One named symbol string (a genome or a chromosome record).

    ``data`` is a uint8 array of codes 0..4 and is treated as immutable.
    ``record_name`` / ``file_tag`` carry the original FASTA record name
    and source-file grouping for round-tripping multi-file inputs; both
    default to ``name``.
    """

    name: str
    data: np.ndarray
    record_name: str | None = None
    file_tag: str | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.uint8)
        if self.record_name is None:
            self.record_name = self.name
        if self.file_tag is None:
            self.file_tag = self.name

    def __len__(self) -> int:
        return len(self.data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return self.name == other.name and np.array_equal(self.data, other.data)


@dataclass
class Collection:
    """An ordered set of sequences with one designated reference.

    ``granularity`` selects the matching universe: ``"whole"`` matches
    every non-reference sequence against the single reference sequence;
    ``"record"`` groups records by ``file_tag`` and matches each record
    against its counterpart record in the reference file (by record
    name, else by ordinal position).
    """

    sequences: list[Sequence] = field(default_factory=list)
    reference_index: int = 0
    granularity: str = "whole"

    def validate(self) -> None:
        if not self.sequences:
            raise ValueError("collection is empty")
        if not 0 <= self.reference_index < len(self.sequences):
            raise ValueError("reference_index out of range")
        if self.granularity not in ("whole", "record"):
            raise ValueError(f"unknown granularity {self.granularity!r}")
        names = [s.name for s in self.sequences]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate sequence names: {dup}")
        for s in self.sequences:
            if not s.name:
                raise ValueError("sequence with empty name")

    def __len__(self) -> int:
        return len(self.sequences)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Collection):
            return NotImplemented
        return (
            self.reference_index == other.reference_index
            and len(self.sequences) == len(other.sequences)
            and all(a == b for a, b in zip(self.sequences, other.sequences))
        )


def _bad_byte_position(line: bytes, lineno: int) -> str:
    for col, b in enumerate(line):
        if _ENCODE[b] == _INVALID:
            return f"line {lineno}, column {col + 1}: byte 0x{b:02x}"
    return f"line {lineno}"


def parse_fasta(data: bytes) -> list[Sequence]:
    """Parse FASTA text into normalized sequences.

    Line breaks are stripped, blank lines ignored.  Raises
    :class:`FastaError` on empty input, a header with no name, sequence
    data before the first header, or any non-letter byte in a sequence
    line (position reported).
    """
    if isinstance(data, str):
        data = data.encode()
    records: list[Sequence] = []
    name: str | None = None
    parts: list[bytes] = []

    def close() -> None:
        if name is None:
            return
        raw = b"".join(parts).translate(_ENCODE)
        records.append(Sequence(name, np.frombuffer(raw, dtype=np.uint8)))

    saw_header = False
    for lineno, line in enumerate(data.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith(b">"):
            close()
            header = line[1:].strip()
            if not header:
                raise FastaError(f"line {lineno}: header with no name")
            try:
                name = header.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FastaError(f"line {lineno}: undecodable header") from exc
            if any(c < 0x20 for c in header):
                raise FastaError(f"line {lineno}: control byte in header")
            saw_header = True
            parts = []
        else:
            if not saw_header:
                raise FastaError(f"line {lineno}: sequence data before first header")
            if not line.isalpha():
                raise FastaError(
                    f"invalid sequence byte at {_bad_byte_position(line, lineno)}"
                )
            parts.append(line)
    close()
    if not records:
        raise FastaError("no FASTA records in input")
    return records


def write_fasta(seq: Sequence, line_width: int = 70) -> bytes:
    """Render one sequence as FASTA with fixed line width.

    Inverse of :func:`parse_fasta` for already-normalized sequences:
    ``parse_fasta(write_fasta(s, w))[0] == s`` for any width >= 1.
    """
    if line_width < 1:
        raise ValueError("line_width must be >= 1")
    full, tail = divmod(len(seq.data), line_width)
    grid = np.empty((full, line_width + 1), dtype=np.uint8)
    letters = grid[:, :line_width]
    np.take(_DECODE, seq.data[: full * line_width].reshape(letters.shape), out=letters)
    grid[:, line_width] = ord("\n")
    last = _DECODE[seq.data[full * line_width :]].tobytes() + b"\n" if tail else b""
    return b"".join((b">" + seq.name.encode("utf-8") + b"\n", grid, last))


def decode_symbols(data: np.ndarray) -> str:
    """Render a code array as an ACGTN string (test/debug helper)."""
    return _DECODE[np.asarray(data, dtype=np.uint8)].tobytes().decode()


def encode_symbols(text: str | bytes) -> np.ndarray:
    """Map a letter string to a code array, normalizing to the 5-symbol set."""
    if isinstance(text, str):
        text = text.encode()
    raw = text.translate(_ENCODE)
    arr = np.frombuffer(raw, dtype=np.uint8)
    if (arr == _INVALID).any():
        bad = int(np.argmax(arr == _INVALID))
        raise ValueError(f"non-letter byte at offset {bad}")
    return arr
