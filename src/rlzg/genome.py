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
_INVALID_BYTE = bytes([_INVALID])
_DECODE = np.frombuffer(ALPHABET, dtype=np.uint8)
_LETTERS = bytes.maketrans(bytes(range(ALPHABET_SIZE)), ALPHABET)  # codes to letters


@dataclass(eq=False)
class Sequence:
    """One named symbol string (a genome or a chromosome record).

    ``data`` is a one-dimensional uint8 array of codes 0..4 and is
    treated as immutable.  Other input is cast to uint8 when no value
    changes in the cast, and raises ValueError otherwise (a code outside
    0..255 or a fraction), as does data of any other shape.
    ``record_name`` / ``file_tag`` carry the original FASTA record name
    and source-file grouping for round-tripping multi-file inputs; both
    default to ``name``.  All three must be ``str``.
    """

    name: str
    data: np.ndarray
    record_name: str | None = None
    file_tag: str | None = None

    def __post_init__(self):
        if self.record_name is None:
            self.record_name = self.name
        if self.file_tag is None:
            self.file_tag = self.name
        for label in ("name", "record_name", "file_tag"):
            if not isinstance(getattr(self, label), str):
                raise ValueError(f"sequence {label} must be a str, got {getattr(self, label)!r}")
        data = np.asarray(self.data)
        if data.ndim != 1:
            raise ValueError(f"sequence {self.name!r} holds {data.ndim}-dimensional data")
        with np.errstate(invalid="ignore"):
            self.data = data.astype(np.uint8, copy=False)
        if self.data is not data and not np.array_equal(self.data, data):
            raise ValueError(f"sequence {self.name!r} holds codes a uint8 cast would change")

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
        """Raise ValueError on no sequences, a bad reference index or
        granularity, an empty or repeated name, or a code above 4."""
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
            if len(s.data) and s.data.max() > N:
                raise ValueError(f"sequence {s.name!r} holds symbol code {s.data.max()} above {N}")

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

    Line breaks are stripped, blank lines ignored, and so is whitespace
    around a line.  Raises :class:`FastaError` on empty input, a header
    with no name, an undecodable header or one holding a control byte,
    sequence data before the first header, or any non-letter byte in a
    sequence line (position reported).

    Input that is only letters and LF or CRLF line breaks under ``>``
    headers is parsed a whole record at a time; anything else (padded
    lines, CR-only breaks, whitespace before ``>``, stray bytes) goes
    line by line, which also finds the line and column of an error.
    """
    if isinstance(data, str):
        data = data.encode()
    records = _parse_records(data)
    if records is None:
        records = _parse_lines(data)
    if not records:
        raise FastaError("no FASTA records in input")
    return records


def _header_problem(header: bytes) -> str | None:
    """What is wrong with a stripped header (``>`` removed), or None."""
    if not header:
        return "header with no name"
    try:
        header.decode("utf-8")
    except UnicodeDecodeError:
        return "undecodable header"
    if min(header) < 0x20:
        return "control byte in header"
    return None


def _parse_records(data: bytes) -> list[Sequence] | None:
    """Whole-record pass: each record body becomes codes in one
    ``translate`` that also deletes its line breaks.  None when the text
    is not letters and line breaks under ``>`` headers."""
    if not data.startswith(b">"):
        return None
    records: list[Sequence] = []
    start = 0  # the '>' of the current header
    while start < len(data):
        eol = data.find(b"\n", start)
        if eol < 0:
            eol = len(data)
        end = data.find(b">", eol)  # the next header, if it starts a line
        if end < 0:
            end = len(data)
        elif data[end - 1] != ord("\n"):
            return None
        line = data[start + 1 : eol].rstrip(b"\r")  # of a CRLF break
        header = line.strip()
        raw = data[eol + 1 : end].translate(_ENCODE, b"\r\n")
        if b"\r" in line or _header_problem(header) or _INVALID_BYTE in raw:
            return None
        records.append(Sequence(header.decode("utf-8"), np.frombuffer(raw, dtype=np.uint8)))
        start = end
    return records


def _parse_lines(data: bytes) -> list[Sequence]:
    """Line-by-line pass: strips each line and reports the first error
    by line (and column)."""
    records: list[Sequence] = []
    name: str | None = None
    parts: list[bytes] = []

    def close() -> None:
        if name is None:
            return
        raw = b"".join(parts).translate(_ENCODE)
        records.append(Sequence(name, np.frombuffer(raw, dtype=np.uint8)))

    for lineno, line in enumerate(data.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith(b">"):
            close()
            header = line[1:].strip()
            problem = _header_problem(header)
            if problem:
                raise FastaError(f"line {lineno}: {problem}")
            name = header.decode("utf-8")
            parts = []
        else:
            if name is None:
                raise FastaError(f"line {lineno}: sequence data before first header")
            if not line.isalpha():
                raise FastaError(
                    f"invalid sequence byte at {_bad_byte_position(line, lineno)}"
                )
            parts.append(line)
    close()
    return records


def check_record_name(name: str) -> None:
    """Raise ValueError unless :func:`parse_fasta` reads ``>name`` back as
    ``name``: no empty name, whitespace around it or control byte."""
    raw = name.encode("utf-8")
    problem = "whitespace around name" if raw != raw.strip() else _header_problem(raw)
    if problem:
        raise ValueError(f"FASTA record name {name!r}: {problem}")


def write_fasta(seq: Sequence, line_width: int = 70) -> bytes:
    """Render one sequence as FASTA with fixed line width.

    Inverse of :func:`parse_fasta` for already-normalized sequences:
    ``parse_fasta(write_fasta(s, w))[0] == s`` for any width >= 1.
    Raises ValueError on a code above 4 or a name ``check_record_name`` refuses.
    """
    if line_width < 1:
        raise ValueError("line_width must be >= 1")
    check_record_name(seq.name)
    codes = seq.data
    if len(codes) and codes.max() > N:
        raise ValueError(f"symbol code {int(codes.max())} above {N}")
    # codes and line breaks in one buffer, turned into letters by one translate
    full, tail = divmod(len(codes), line_width)
    buf = bytearray(len(codes) + full + (tail > 0))
    out = np.frombuffer(buf, dtype=np.uint8)
    grid = out[: full * (line_width + 1)].reshape(full, line_width + 1)
    grid[:, :line_width] = codes[: full * line_width].reshape(full, line_width)
    grid[:, line_width] = ord("\n")
    if tail:
        out[full * (line_width + 1) : -1] = codes[full * line_width :]
        out[-1] = ord("\n")
    return b">" + seq.name.encode("utf-8") + b"\n" + buf.translate(_LETTERS)


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
