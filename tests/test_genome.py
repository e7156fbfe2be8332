import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlzg import FastaError, Sequence, parse_fasta, write_fasta
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
