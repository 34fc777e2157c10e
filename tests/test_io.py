"""`.nos` subgroup files and plain-text data/direction files."""

import contextlib
import itertools
import os
import threading
import time
import tracemalloc
from io import BytesIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nos import io as nos_io
from nos.construct import oracle_signflip
from nos.flipcore import _rref_basis, bits_to_masks, masks_to_bits, subgroup_from_basis_masks
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


MALFORMED = [
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
    ("NOS1 2 2\n+1 +1\n+1 -1 -", "row 1 has 3 tokens"),  # a lone sign at the end of the text
]


@pytest.mark.parametrize("text,fragment", MALFORMED)
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


def test_parse_peak_memory_is_a_small_multiple_of_the_text():
    # byte-level parsing: no per-token strings, no intp array as long as the text
    text = format_subgroup(oracle_signflip(1024, 10))
    parse_subgroup(text)
    tracemalloc.start()
    try:
        parse_subgroup(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(text)


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
    nan = tmp_path / "nan.txt"
    nan.write_text("0.5\nnan\n0.5\n0.5\n", encoding="utf-8")
    with pytest.raises(NosFormatError, match="non-finite"):
        read_direction(nan)


def test_parse_rejects_tokens_with_trailing_nul():
    with pytest.raises(NosFormatError, match=r"row 1, column 1: token '-1\\x00' is not \+1 or -1"):
        parse_subgroup("NOS1 2 2\n+1 +1\n+1 -1\x00\n")


def _reference_parse(text: str):
    """The per-token parser that the byte-level one replaced, kept as the reference for its results and messages."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise NosFormatError("empty file")
    header = lines[0].split()
    if len(header) != 3 or header[0] != "NOS1":
        raise NosFormatError(f"bad header {lines[0]!r}: expected 'NOS1 <n> <M>'")
    try:
        n, m = int(header[1]), int(header[2])
    except ValueError as exc:
        raise NosFormatError(f"non-integer dimensions in header {lines[0]!r}") from exc
    if n < 1 or m < 1:
        raise NosFormatError(f"dimensions must be positive, got n={n}, M={m}")
    if len(lines) - 1 != m:
        raise NosFormatError(f"header promises {m} rows, found {len(lines) - 1}")
    bits = np.empty((m, n), dtype=bool)
    for r, line in enumerate(lines[1:]):
        tokens = line.split()
        if len(tokens) != n:
            raise NosFormatError(f"row {r} has {len(tokens)} tokens, expected {n}")
        row = np.array(tokens, dtype="U3")
        bits[r] = row == "-1"
        bad = np.flatnonzero(~(bits[r] | (row == "+1") | (row == "1")))
        if len(bad):
            raise NosFormatError(f"row {r}, column {bad[0]}: token {tokens[bad[0]]!r} is not +1 or -1")
    masks = bits_to_masks(bits)
    if masks[0] != 0:
        raise NosFormatError("first row must be the identity (all +1)")
    if len(set(masks)) != m:
        raise NosFormatError("duplicate rows")
    if masks[1:] != sorted(masks[1:]):
        raise NosFormatError("rows after the identity must be in ascending mask order")
    basis = _rref_basis(masks)
    if 1 << len(basis) == m:
        sub = subgroup_from_basis_masks(n, basis)
        if sub.element_masks() == masks:
            return sub
    mask_set = set(masks)
    for a in masks:
        for b in masks:
            if a ^ b not in mask_set:
                raise NosFormatError(
                    f"not closed under composition: rows with masks {a:#x} and {b:#x} "
                    f"compose to {a ^ b:#x}, which is missing"
                )


_TOKEN_SEPS = st.sampled_from([" ", "\t", "   ", "\xa0", "\u3000"])
_LINE_BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\u2028"])
_PAD = st.sampled_from(["", " ", "\t", "  \xa0"])
_BAD_TOKENS = ["+", "--1", "+11", "1-", "\u22121", "-1.0", "2"]


@contextlib.contextmanager
def _blocks_of(size):
    """Write and parse `.nos` rows ``size`` bytes at a time."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nos_io, "_BLOCK", size)
        yield


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except NosFormatError as exc:
        return "error", str(exc)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(min_value=1, max_value=12), data=st.data())
def test_parse_matches_reference_parser(n, data):
    gens = data.draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=3))
    s = subgroup_from_basis_masks(n, gens)
    plus = st.sampled_from(["+1", "1"])
    rows = [["-1" if b else data.draw(plus) for b in row] for row in masks_to_bits(s.element_masks(), n)]
    mutation = data.draw(st.sampled_from(["none", "token", "drop", "add", "swap", "delete"]))
    r = data.draw(st.integers(min_value=0, max_value=len(rows) - 1))
    c = data.draw(st.integers(min_value=0, max_value=n - 1))
    if mutation == "token":
        rows[r][c] = data.draw(st.sampled_from(_BAD_TOKENS))
    elif mutation == "drop":
        del rows[r][c]
    elif mutation == "add":
        rows[r].insert(c, data.draw(st.sampled_from(["+1", "-1", "1"])))
    elif mutation == "swap":
        q = data.draw(st.integers(min_value=0, max_value=len(rows) - 1))
        rows[r], rows[q] = rows[q], rows[r]
    elif mutation == "delete":
        del rows[r]
    lines = [f"NOS1 {n} {s.order}"]
    for row in rows:
        line = ""
        for i, token in enumerate(row):
            line += (data.draw(_TOKEN_SEPS) if i else "") + token
        lines.append(data.draw(_PAD) + line + data.draw(_PAD))
        if data.draw(st.booleans()) and data.draw(st.booleans()):
            lines.append(data.draw(_PAD))  # a blank line
    text = data.draw(_PAD) + "".join(line + data.draw(_LINE_BREAKS) for line in lines)
    if data.draw(st.booleans()):
        text = text.rstrip("\n") + data.draw(_PAD)
    want = _outcome(_reference_parse, text)
    assert _outcome(parse_subgroup, text) == want
    with _blocks_of(16):
        assert _outcome(parse_subgroup, text) == want


@pytest.mark.parametrize("m", [3, 4, 6, 8])
def test_closure_check_matches_reference_parser_on_every_sorted_row_set(m):
    # every well-formed n = 4 file of m rows: the check reduces only rows 1, 2, 4, ...
    # when m is a power of two, and must accept and reject exactly as the full reduction
    accepted = 0
    for rest in itertools.combinations(range(1, 16), m - 1):
        rows = masks_to_bits([0, *rest], 4)
        text = "NOS1 4 %d\n" % m + "".join(" ".join("-1" if b else "+1" for b in row) + "\n" for row in rows)
        outcome = _outcome(parse_subgroup, text)
        assert outcome == _outcome(_reference_parse, text), rest
        accepted += outcome[0] == "ok"
    assert accepted == {3: 0, 4: 35, 6: 0, 8: 15}[m]  # the subgroups of order m in F_2^4


def _reference_format(s) -> str:
    """The whole-text encoder that the block writer replaced, kept as the reference for its bytes."""
    bits = masks_to_bits(s.element_masks(), s.n)
    chars = np.empty(bits.shape + (3,), dtype=np.uint8)
    chars[..., 0] = np.where(bits, ord("-"), ord("+"))
    chars[..., 1] = ord("1")
    chars[..., 2] = ord(" ")
    chars[:, -1, 2] = ord("\n")
    return f"NOS1 {s.n} {s.order}\n" + chars.tobytes().decode("ascii")


def _writer_cases():
    rng = np.random.default_rng(20)
    for n in (1, 2, 3, 63, 64, 65, 130):
        for rank in sorted({0, 1, min(n, 3), min(n, 7)}):
            masks = [int.from_bytes(rng.bytes(n // 8 + 1), "little") % (1 << n) for _ in range(rank)]
            yield n, subgroup_from_basis_masks(n, masks)
    yield 2048, oracle_signflip(2048, 3)
    yield 2048, oracle_signflip(2048, 11)


@pytest.mark.parametrize("block", [16, 1 << 20])
def test_written_bytes_equal_the_whole_text_reference(tmp_path, block):
    path = tmp_path / "s.nos"
    with _blocks_of(block):
        for n, s in _writer_cases():
            want = _reference_format(s).encode("ascii")
            write_subgroup(path, s)
            assert path.read_bytes() == want, (n, s.order)
            assert format_subgroup(s).encode("ascii") == want, (n, s.order)


def _fault_cases():
    """The malformed texts above, and one fault at every token of small files.

    The fault is a bad, missing or extra token, or a lone sign after the token.
    """
    for text, _fragment in MALFORMED:
        yield text
    yield "NOS1 3 4\n+1 +1 +1\n-1 +1 +1\n+1 -1 +1\n+1 +1 -1\n"  # not closed, naming a pair
    yield "NOS1 2 2\n+1 +1\n-1.0 -1\n"
    yield "NOS1 2 2\n+1 +1\n+1 -1\x00\n"
    for n, rank in ((2, 2), (3, 2), (5, 3), (8, 3)):
        s = subgroup_from_basis_masks(n, [1 << i for i in range(rank)])
        rows = [["-1" if b else "+1" for b in row] for row in masks_to_bits(s.element_masks(), n)]
        for r, c in itertools.product(range(len(rows)), range(n)):
            for mutation in ("+2", "1-", None, "extra", "-1 -"):
                mutated = [list(row) for row in rows]
                if mutation is None:
                    del mutated[r][c]
                elif mutation == "extra":
                    mutated[r].insert(c, "-1")
                else:
                    mutated[r][c] = mutation
                yield f"NOS1 {n} {len(rows)}\n" + "".join(" ".join(row) + "\n" for row in mutated)


def test_faults_on_both_sides_of_a_block_boundary_give_the_whole_text_message():
    # 16-byte blocks end at the first break 16 or more bytes on: every few rows at n = 2, every row at n = 8,
    # so the faults above sit in the last token before a boundary and in the first token after one
    cases = list(_fault_cases())
    assert len(cases) > 600
    wants = [_outcome(parse_subgroup, text) for text in cases]
    with _blocks_of(16):
        for text, want in zip(cases, wants):
            assert _outcome(parse_subgroup, text) == want, text
            if "\x00" not in text:  # the reference reads '-1\x00' as '-1' (numpy strips trailing NULs)
                assert want == _outcome(_reference_parse, text), text


@pytest.mark.parametrize("block", [16, 1 << 20])
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\u2028"])
def test_read_subgroup_gives_what_parse_subgroup_gives_on_the_text(tmp_path, block, newline):
    # LF, CRLF and non-ASCII (U+2028) files read like the LF text
    path = tmp_path / "s.nos"
    cases = list(_fault_cases())[:: 7 if block == 16 else 1]
    cases += [format_subgroup(oracle_signflip(64, 4)), "NOS1 2 2\r+1 +1\r\n\r\n+1 -1"]
    cases += ["NOS1\xa02 2\n+1\u3000+1\n+1 -1\n", "NOS1 2 2\n+1 +1\n+1 \u22121\n"]
    with _blocks_of(block):
        for text in cases:
            path.write_bytes(text.replace("\n", newline).encode("utf-8"))
            assert _outcome(read_subgroup, path) == _outcome(parse_subgroup, text), text


def test_read_subgroup_refuses_invalid_utf8(tmp_path):
    path = tmp_path / "s.nos"
    path.write_bytes(b"NOS1 2 2\n+1 +1\n+1 \xff1\n")  # read_text raised the same error
    with pytest.raises(UnicodeDecodeError, match="position 18: invalid start byte"):
        read_subgroup(path)


@pytest.fixture
def parser_calls(monkeypatch):
    """The streams that reach the full parser: a canonical file that takes the check adds none."""
    calls = []
    parse = nos_io._parse_nos
    monkeypatch.setattr(nos_io, "_parse_nos", lambda fh: calls.append(fh) or parse(fh))
    return calls


def test_canonical_files_take_the_check_and_give_the_parsers_subgroup(tmp_path, parser_calls):
    path = tmp_path / "s.nos"
    seen = set()
    for n, s in [*_writer_cases(), (1, subgroup_from_basis_masks(1, [1]))]:
        text = format_subgroup(s)
        want = nos_io._parse_nos(BytesIO(text.encode("ascii")))
        parser_calls.clear()
        write_subgroup(path, s)
        assert read_subgroup(path) == want, (n, s.order)  # the same basis and elements
        assert parse_subgroup(text) == want, (n, s.order)
        assert len(parser_calls) == 2 * (s.order == 1), (n, s.order)  # M = 1 is left to the parser
        if s.order > 1:
            seen.add(n)
    assert seen == {1, 2, 3, 63, 64, 65, 130, 2048}


def _near_canonical_texts():
    """Texts at most a line away from canonical ones, and canonical ones the check leaves to the parser."""
    s = subgroup_from_basis_masks(5, [0b00011, 0b01100, 0b10001])
    text = format_subgroup(s)
    row = [9 + 15 * r for r in range(9)]  # the first byte of each row
    for at, new in [(0, "M"), (4, "\t"), (5, "6"),  # the header
                    (row[2], "-"), (row[2] + 3, "-"), (row[2] + 4, "2"), (row[4] + 2, "\t"),  # basis rows 2 and 4
                    (row[3], "+"), (row[7] + 4, "+"), (row[6] + 5, "\n"),  # non-basis rows
                    (len(text) - 1, " "), (len(text) - 1, "x")]:  # the last byte
        yield text[:at] + new + text[at + 1 :]
    yield text[:-1]  # a truncated tail
    yield text[:-2]
    yield text[: row[7]]
    yield text + "\n"  # an extra trailing line
    yield text + text.splitlines(keepends=True)[-1]
    yield text.replace("\n", "\r\n")
    yield text.replace("\n", "\u2028")
    yield "NOS1 02 2\n+1 +1\n+1 -1\n"  # a header with a leading zero
    yield "NOS1 3 1\n+1 +1 +1\n"  # M = 1
    yield "NOS1 2 3\n+1 +1\n-1 +1\n+1 -1\n"  # M not a power of two
    yield "NOS1 2 4\n+1 +1\n+1 -1\n+1 -1\n-1 +1\n"  # dependent basis rows
    yield "NOS1 2 4\n+1 +1\n+1 -1\n+1 +1\n+1 -1\n"


def test_files_that_differ_from_canonical_take_the_parser(tmp_path, parser_calls):
    path = tmp_path / "s.nos"
    outcomes = set()
    for text in _near_canonical_texts():
        path.write_bytes(text.encode("utf-8"))
        parser_calls.clear()
        want = _outcome(parse_subgroup, text)
        assert _outcome(read_subgroup, path) == want, text
        assert len(parser_calls) == 2, text  # once for each
        outcomes.add(want[0])
    assert outcomes == {"ok", "error"}


def test_read_subgroup_reads_a_pipe(tmp_path):
    # a pipe cannot seek, so it is read whole and parsed
    path = tmp_path / "s.fifo"
    os.mkfifo(path)
    text = format_subgroup(subgroup_from_basis_masks(5, [0b00011, 0b01100]))
    writer = threading.Thread(target=path.write_text, args=(text,))
    writer.start()
    try:
        got = read_subgroup(path)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert got == parse_subgroup(text)


def _peak(fn):
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_subgroup_peak_memory_at_n_2048(tmp_path):
    # rows go out in blocks of about 1 MiB: no text-sized str, bytes or bit array (48 MiB before)
    s = oracle_signflip(2048, 11)
    assert _peak(lambda: write_subgroup(tmp_path / "s.nos", s)) < 8 * 2**20


def test_read_subgroup_of_a_canonical_file_peaks_below_8_mib_at_n_2048(tmp_path):
    # compared block by block with the writer's bytes: no file-sized bytes and no (M, n) bits (19 MiB before)
    path = tmp_path / "s.nos"
    write_subgroup(path, oracle_signflip(2048, 11))
    assert _peak(lambda: read_subgroup(path)) < 8 * 2**20


def test_read_subgroup_peak_memory_at_n_2048(tmp_path):
    # the file's bytes, the (M, n) bits and block-sized buffers: no str copy of the text (3.3 times the file before)
    path = tmp_path / "s.nos"
    write_subgroup(path, oracle_signflip(2048, 11))
    assert _peak(lambda: read_subgroup(path)) < 2 * path.stat().st_size


def test_files_that_take_the_parser_keep_the_parsers_memory_bounds(tmp_path):
    # the parse pin above, whose canonical text now takes the check, on CRLF text; a CRLF file is parsed from
    # the stream: no file-sized bytes and no (M, n) bits (19.0 MiB for the 12.6 MB file before)
    text = format_subgroup(oracle_signflip(1024, 10)).replace("\n", "\r\n")
    assert _peak(lambda: parse_subgroup(text)) <= 3 * len(text)
    path = tmp_path / "s.nos"
    path.write_bytes(format_subgroup(oracle_signflip(2048, 11)).replace("\n", "\r\n").encode("ascii"))
    assert _peak(lambda: read_subgroup(path)) < 8 * 2**20


def test_header_after_blank_blocks_and_rows_split_across_reads(tmp_path):
    # 16-byte reads: the header follows several reads of blank lines, and rows of 15 or 16 bytes are cut by
    # reads that end inside them
    s = subgroup_from_basis_masks(5, [0b00011, 0b11000])
    text = format_subgroup(s)
    path = tmp_path / "s.nos"
    with _blocks_of(16):
        for blanks in (" \n" * 20, "\r\n\t\r\n" * 9 + "\n"):
            assert parse_subgroup(blanks + text) == s
            path.write_bytes((blanks + text).encode("ascii"))
            assert read_subgroup(path) == s
        assert parse_subgroup(text.replace("\n", "\r\n")) == s
        with pytest.raises(NosFormatError, match="row 2, column 4: token '-11' is not"):
            parse_subgroup("\n" * 40 + text.replace("-1\n", "-11\n", 1).replace("\n", "\r\n"))


def _closure_fault_text(k: int) -> str:
    """Rows K, 2^k ^ K and 2^(k+1) ^ K, with K the masks below 2^k: sorted and distinct, 2^k ^ 2^(k+1) missing."""
    n, masks = k + 2, [*range(3 << k)]
    bits = masks_to_bits(masks, n)
    return f"NOS1 {n} {len(masks)}\n" + "".join(" ".join("-1" if b else "+1" for b in row) + "\n" for row in bits)


def test_closure_fault_in_many_rows_scans_few_of_them():
    # every row of K maps the rows onto themselves: the scan of 24 576 rows composes 14 rows with all the
    # others, not all pairs (10.6 s before, on a 2-vCPU VM)
    for k in range(1, 7):
        text = _closure_fault_text(k)
        assert _outcome(parse_subgroup, text) == _outcome(_reference_parse, text), k
    text = _closure_fault_text(13)
    start = time.perf_counter()
    with pytest.raises(NosFormatError, match="rows with masks 0x2000 and 0x4000 compose to 0x6000, which is missing"):
        parse_subgroup(text)
    assert time.perf_counter() - start < 2
