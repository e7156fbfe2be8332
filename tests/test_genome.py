from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rlzg import FastaError, Sequence, genome, parse_fasta, write_fasta
from rlzg.genome import decode_symbols, encode_symbols


def test_parse_simple_record():
    seqs = parse_fasta(b">s1\nACGT\n")
    assert len(seqs) == 1
    assert seqs[0].name == "s1"
    assert seqs[0].data.tolist() == [0, 1, 2, 3]


def test_parse_normalizes_ambiguity_codes_to_n():
    # R (purine) and lower-case n both become N
    (seq,) = parse_fasta(b">s1\nacgRn\n")
    assert seq.data.tolist() == [0, 1, 2, 4, 4]


def test_parse_two_records():
    a, b = parse_fasta(b">a\nAC\n>b\nGT\n")
    assert (a.name, b.name) == ("a", "b")
    assert len(a) == len(b) == 2


def test_parse_multiline_record_and_blank_lines():
    (seq,) = parse_fasta(b">x\nAC\n\nGT\nNN\n")
    assert decode_symbols(seq.data) == "ACGTNN"


def test_all_iupac_letters_map_into_alphabet():
    (seq,) = parse_fasta(b">x\n" + bytes(range(ord("A"), ord("Z") + 1)) + b"\n")
    assert seq.data.max() <= 4
    assert len(seq) == 26


def test_parse_errors():
    with pytest.raises(FastaError, match="no FASTA records"):
        parse_fasta(b"")
    with pytest.raises(FastaError, match="header with no name"):
        parse_fasta(b">\nACGT\n")
    with pytest.raises(FastaError, match="before first header"):
        parse_fasta(b"ACGT\n")
    with pytest.raises(FastaError, match="line 2, column 3"):
        parse_fasta(b">x\nAC1T\n")
    with pytest.raises(FastaError, match="line 2"):
        parse_fasta(b">x\nAC\x01T\n")


def test_write_fasta_width_two():
    seq = Sequence("s1", np.array([0, 1, 2, 3], dtype=np.uint8))
    assert write_fasta(seq, 2) == b">s1\nAC\nGT\n"


def test_write_fasta_empty_sequence():
    assert write_fasta(Sequence("e", np.zeros(0, dtype=np.uint8))) == b">e\n"


def test_write_fasta_rejects_code_above_four():
    for code in (5, 10, 255):  # 10 is the byte of a line break
        seq = Sequence("bad", np.array([0, 1, code, 3], dtype=np.uint8))
        with pytest.raises(ValueError, match="above 4"):
            write_fasta(seq, 2)


@pytest.mark.parametrize(
    "data",
    [
        np.array([0, 1, 258, -252]),  # a uint8 cast wraps these to [0, 1, 2, 4]
        np.array([256]),
        np.array([-1]),
        np.array([0.7, 1.9]),  # a cast truncates these to [0, 1]
        np.array([2.5]),
        np.array([np.nan]),
        np.array([3, 2**40], dtype=np.uint64),
    ],
    ids=["wrapped-mix", "256", "minus-one", "fractions", "two-and-a-half", "nan", "uint64-wide"],
)
def test_sequence_rejects_codes_a_uint8_cast_would_change(data):
    with pytest.raises(ValueError, match="uint8 cast would change"):
        Sequence("s", data)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"data": np.zeros((3, 4), dtype=np.uint8)}, "2-dimensional"),
        ({"data": np.array(2, dtype=np.uint8)}, "0-dimensional"),
        ({"name": 7}, "name must be a str"),
        ({"name": b"s"}, "name must be a str"),
        ({"record_name": 7}, "record_name must be a str"),
        ({"record_name": b"chr1"}, "record_name must be a str"),
        ({"file_tag": 7}, "file_tag must be a str"),
        ({"file_tag": b"f"}, "file_tag must be a str"),
    ],
    ids=[
        "2-d", "0-d", "int-name", "bytes-name", "int-record-name", "bytes-record-name",
        "int-file-tag", "bytes-file-tag",
    ],
)
def test_sequence_rejects_malformed_input(kwargs, message):
    # each once passed the constructor and failed later, inside compress
    args = {"name": "s", "data": np.array([0, 1, 2], dtype=np.uint8), **kwargs}
    with pytest.raises(ValueError, match=message):
        Sequence(**args)


def test_sequence_keeps_codes_a_uint8_cast_preserves():
    codes = np.array([0, 1, 2, 3, 4], dtype=np.uint8)
    assert Sequence("s", codes).data is codes  # what parse_fasta makes: no copy
    for data in (np.array([0, 4, 9]), np.array([1.0, 4.0]), [2, 3], np.array([True, False])):
        seq = Sequence("s", data)
        assert seq.data.dtype == np.uint8 and seq.data.tolist() == np.asarray(data).tolist()


NAME_CHARS = st.sampled_from(["a", "1", ">", " ", "\t", "\n", "\r", "\x00", "\x0b", "\x7f", "\x85", "é"])


@settings(max_examples=300, deadline=None)
@given(st.text(NAME_CHARS, max_size=5) | st.text(max_size=5))
@example("a\nGATTACA")  # read back as record "a" with 7 more bases
@example("chr1 some description")
def test_write_fasta_refuses_exactly_the_names_that_do_not_read_back(name):
    try:
        written = parse_fasta(b">" + name.encode() + b"\nACGT\n")
        reads_back = [(s.name, s.data.tolist()) for s in written] == [(name, [0, 1, 2, 3])]
    except FastaError:
        reads_back = False
    seq = Sequence(name, encode_symbols("ACGT"))
    if reads_back:
        assert parse_fasta(write_fasta(seq)) == [seq]
    else:
        with pytest.raises(ValueError, match="record name"):
            write_fasta(seq)


def test_write_fasta_partial_last_line():
    seq = Sequence("p", encode_symbols("ACGTN"))
    assert write_fasta(seq, 3) == b">p\nACG\nTN\n"


@settings(max_examples=60, deadline=None)
@given(
    data=st.binary(min_size=0, max_size=2000).map(
        lambda b: np.frombuffer(b, dtype=np.uint8) % 5
    ),
    width=st.integers(min_value=1, max_value=200),
)
def test_roundtrip_property(data, width):
    seq = Sequence("r", data.astype(np.uint8))
    text = write_fasta(seq, width)
    (back,) = parse_fasta(text)
    assert back == seq
    assert all(len(line) == width for line in text.splitlines()[1:-1])


def test_roundtrip_10kb_random():
    rng = np.random.default_rng(7)
    seq = Sequence("big", rng.integers(0, 5, 10_000).astype(np.uint8))
    (back,) = parse_fasta(write_fasta(seq, 70))
    assert np.array_equal(back.data, seq.data)


def test_length_preserved_no_letter_dropped():
    text = b">x\n" + b"ACGTRYSWKMacgtn\n" * 40
    (seq,) = parse_fasta(text)
    assert len(seq) == 15 * 40


def test_encode_symbols_rejects_non_letter():
    with pytest.raises(ValueError, match="offset 2"):
        encode_symbols("AC-T")


# Pieces of FASTA text for the differential test: empty names, names
# with '>' inside and UTF-8 names; sequence letters of both cases and
# IUPAC codes; bytes that are neither (control bytes, undecodable bytes,
# whitespace, '>', CR), which mutations put inside lines; line breaks.
NAME_PIECES = [b"", b"s", b"chr", b"X", b"1", b" ", b">", b"|", b"\xc3\xa9"]
LETTERS = [bytes([b]) for b in b"ACGTNacgtnRYKMSWbdhvXz"]
STRAY = [b"\t", b"\x0b", b"\x0c", b"\x00", b"\x01", b"-", b"*", b"1", b">", b"\r", b"\xff"]
BREAKS = {"lf": [b"\n"], "crlf": [b"\r\n"], "mixed": [b"\n", b"\r\n", b"\r"]}
RECORDS = st.lists(
    st.tuples(
        st.lists(st.sampled_from(NAME_PIECES), min_size=1, max_size=3).map(b"".join),
        st.lists(st.lists(st.sampled_from(LETTERS), max_size=12).map(b"".join), max_size=4),
    ),
    max_size=4,
)
MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(["pad", "indent", "space", "stray", "cr", "blank", "lead"]),
        st.integers(0, 40),
        st.sampled_from(STRAY),
    ),
    max_size=3,
)


@st.composite
def fasta_texts(draw):
    """Well-formed FASTA lines, then a few mutations that only the
    line-by-line path accepts or that are errors."""
    lines = []
    for name, body in draw(RECORDS):
        lines += [b">" + name, *body]
    for kind, at, byte in draw(MUTATIONS):
        j = at % (len(lines) + 1)
        line = lines[j] if j < len(lines) else b""
        mid = len(line) // 2
        if kind == "pad":
            lines[j:j + 1] = [line + b" \t"]
        elif kind == "indent":  # whitespace before '>' when it hits a header
            lines[j:j + 1] = [b" " + line]
        elif kind == "space":  # interior whitespace
            lines[j:j + 1] = [line[:mid] + b" " + line[mid:]]
        elif kind == "stray":
            lines[j:j + 1] = [line[:mid] + byte + line[mid:]]
        elif kind == "cr":  # a CR-only break, as '\r>' when a header follows
            lines[j:j + 2] = [line + b"\r" + b"".join(lines[j + 1 : j + 2])]
        elif kind == "blank":
            lines.insert(j, b" " if at % 2 else b"")
        else:  # sequence data before the first header
            lines.insert(0, b"ACGT")
    breaks = BREAKS[draw(st.sampled_from(sorted(BREAKS)))]
    text = b"".join(line + draw(st.sampled_from(breaks)) for line in lines)
    if text and draw(st.booleans()):
        text = text.rstrip(b"\r\n")
    return text


def outcome(data):
    """Records as (name, codes) pairs, or the FastaError message."""
    try:
        return [(s.name, s.data.tolist()) for s in parse_fasta(data)]
    except FastaError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(fasta_texts())
@example(b">a\nAC GT\n")  # interior whitespace is an error
@example(b">a\nACGT\r>b\nGT\n")  # '\r>' starts a header, not sequence
@example(b">a\nAC>GT\n")  # '>' inside a sequence line is an error
@example(b">\rs\r\n")  # a CR right after '>' ends a header with no name
def test_whole_record_path_agrees_with_per_line_path(data):
    got = outcome(data)
    with mock.patch.object(genome, "_parse_records", lambda data: None):
        assert got == outcome(data)


@pytest.mark.parametrize(
    "text",
    [
        b">a\nACGT\nac\n>b c\n\n>d\nRYKM",
        b">a\r\nACGT\r\nac\r\n>b>c\r\nNN\r\n",
        b">a\n\nAC\n\n>b\nGT\n",
    ],
)
def test_letters_and_line_breaks_take_the_whole_record_path(text):
    records = genome._parse_records(text)
    assert records is not None
    with mock.patch.object(genome, "_parse_records", lambda data: None):
        assert records == parse_fasta(text)


@pytest.mark.parametrize(
    "text",
    [
        b">a\nAC \nGT\n",  # padded line
        b">a\rACGT\r>b\rGT\r",  # CR-only breaks
        b">\ra\nACGT\n",  # a CR after '>' ends the header line
        b">a\nACGT\r>b\nGT\n",  # '\r>' starts a header, not sequence
        b">a\nACGT\n >b\nGT\n",  # whitespace before '>'
        b">a\nAC GT\n",  # interior whitespace: an error
        b"\n>a\nACGT\n",  # a blank line before the first header
    ],
)
def test_other_shapes_take_the_per_line_path(text):
    assert genome._parse_records(text) is None
