"""`.nos` subgroup files and plain-text data/direction files."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nos.flipcore import subgroup_from_basis_masks
from nos.io import (
    NosFormatError,
    format_subgroup,
    parse_subgroup,
    read_data,
    read_direction,
    read_subgroup,
    write_subgroup,
)

ORACLE_N2 = "NOS1 2 2\n+1 +1\n+1 -1\n"


def test_format_oracle_n2():
    s = subgroup_from_basis_masks(2, [0b10])
    assert format_subgroup(s) == ORACLE_N2


def test_parse_oracle_n2():
    s = parse_subgroup(ORACLE_N2)
    assert s.n == 2 and s.order == 2
    assert s.element_masks() == [0, 0b10]


def test_file_roundtrip(tmp_path):
    s = subgroup_from_basis_masks(6, [0b000111, 0b111000])
    path = tmp_path / "sub.nos"
    write_subgroup(path, s)
    assert read_subgroup(path) == s


@settings(max_examples=60)
@given(n=st.integers(min_value=1, max_value=9), data=st.data())
def test_roundtrip_any_subgroup(n, data):
    gens = data.draw(
        st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), min_size=1, max_size=3)
    )
    s = subgroup_from_basis_masks(n, gens)
    assert parse_subgroup(format_subgroup(s)) == s


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty"),
        ("NOS2 2 2\n+1 +1\n+1 -1\n", "header"),
        ("NOS1 2 two\n+1 +1\n+1 -1\n", "header"),
        ("NOS1 2 3\n+1 +1\n+1 -1\n", "promises 3 rows"),
        ("NOS1 2 2\n+1\n+1 -1\n", "tokens"),
        ("NOS1 2 2\n+1 +2\n+1 -1\n", "column 1"),
        ("NOS1 2 2\n+1 -1\n+1 +1\n", "identity"),
        ("NOS1 2 2\n+1 +1\n+1 +1\n", "duplicate"),
        ("NOS1 2 3\n+1 +1\n-1 +1\n+1 -1\n", "not closed"),
        ("NOS1 2 4\n+1 +1\n-1 -1\n-1 +1\n+1 -1\n", "ascending"),
    ],
)
def test_malformed_files_rejected(text, fragment):
    with pytest.raises(NosFormatError, match=fragment):
        parse_subgroup(text)


def test_closure_error_names_offending_pair():
    text = "NOS1 3 4\n+1 +1 +1\n-1 +1 +1\n+1 -1 +1\n+1 +1 -1\n"
    with pytest.raises(NosFormatError, match="0x1.*0x2|0x2.*0x1"):
        parse_subgroup(text)


def test_roundtrip_large_subgroup():
    # 2^15 rows: validation must not compose every pair of rows
    s = subgroup_from_basis_masks(16, [0b11 << i for i in range(15)])
    text = format_subgroup(s)
    assert text.count("\n") == 1 + (1 << 15)
    assert parse_subgroup(text) == s


def test_parse_accepts_unsigned_one_and_rejects_long_tokens():
    assert parse_subgroup("NOS1 2 2\n1 1\n1 -1\n") == parse_subgroup(ORACLE_N2)
    with pytest.raises(NosFormatError, match="row 1, column 0: token '-1.0'"):
        parse_subgroup("NOS1 2 2\n+1 +1\n-1.0 -1\n")


def test_read_data(tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("1.5\n-2.0\n\n0.25\n", encoding="utf-8")
    assert np.array_equal(read_data(path), [1.5, -2.0, 0.25])
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0\nhello\n", encoding="utf-8")
    with pytest.raises(NosFormatError, match="hello"):
        read_data(bad)
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(NosFormatError):
        read_data(empty)


def test_read_direction_normalizes_with_warning(tmp_path):
    path = tmp_path / "iota.txt"
    path.write_text("3.0\n4.0\n", encoding="utf-8")
    with pytest.warns(UserWarning, match="normalizing"):
        iota = read_direction(path)
    assert np.allclose(iota.coords, [0.6, 0.8])
    zero = tmp_path / "zero.txt"
    zero.write_text("0.0\n0.0\n", encoding="utf-8")
    with pytest.raises(NosFormatError):
        read_direction(zero)
