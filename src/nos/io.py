"""File formats: `.nos` subgroup files, data vectors, direction vectors.

A `.nos` file is a bit-exact, human-readable serialization of a
sign-flip subgroup: line 1 is ``NOS1 <n> <M>``; each of the following M
lines holds the diagonal of one group element as n space-separated
``+1``/``-1`` tokens, the identity (all ``+1``) first and the remaining
rows in ascending mask order (bit i of the mask set iff token i is
``-1``). Reading validates shape, tokens, ordering, and group closure,
naming the offending pair when closure fails.

The grammar that reading accepts: lines end at any ``str.splitlines``
break, and lines holding only whitespace are skipped. The first line is
the header: three ``str.split`` fields, ``NOS1`` and two positive
integers. Each of the next M lines holds exactly n tokens separated by
any ``str.split`` whitespace, and a token is ``+1``, ``-1`` or ``1`` (read
as ``+1``), nothing else. Errors are reported in that order: header, row
count, then the first row with a wrong token count or a bad token.

Writing streams blocks of about 1 MiB of rows as bytes, so its
allocations stay near 1.4 MiB at any size. What it writes is canonical:
the header with single spaces and one newline, then M rows of exactly 3n
bytes, each token a sign and ``1`` followed by a space, or a newline at
the end of the row. Reading tries that form first. The signs of rows 1,
2, 4, ..., M/2 span a subgroup, which is written into a sink that
compares each block with the next bytes of the text. If the header and
the size fit and every byte matches, the parser would have built that
same subgroup from the same rows, so it is returned unparsed. At
n = M = 2048 (a 12 MB file) ``read_subgroup`` of a canonical file takes
about 0.02 s on a 2-vCPU Xeon VM, and its allocations peak at 3.8 MiB:
it holds a block of the file, a written block and the subgroup, never
the file's bytes or an (M, n) array.

Every other text goes to the parser with its messages: one that differs
from the canonical text in any byte, is cut short or goes on, has other
line breaks (CRLF, say), blank lines, other whitespace, ``1`` for ``+1``
or leading zeros in the header, is not ASCII, or has M = 1. The parser
works on the bytes of the text with a few C-level passes, so it makes no
object per token. It runs them on one block of about 1 MiB of rows at a
time, from a line break to just before a later one, and writes each
block's bits into one (M, n) array; the first fault sends the whole text
to one reporter, so messages do not depend on the blocks. An ASCII file
is read as bytes and never copied to a str: at n = M = 2048 a CRLF file
takes 0.07-0.1 s, and its allocations peak at about 1.6 times the
file's size (the bytes, the bits and block-sized buffers). Text that is
not ASCII is first normalised to single spaces and newlines, line by
line, in Python.

Data and direction files are plain UTF-8 text with one decimal number
per line; a direction with a non-finite value is rejected, and one that
is not unit-norm is normalized with a warning.
"""

from __future__ import annotations

import os
import re
import warnings
from io import BytesIO
from pathlib import Path

import numpy as np

from .flipcore import SignFlipSubgroup, bits_to_masks, masks_to_bits, subgroup_from_basis_masks
from .leak import Direction

__all__ = [
    "NosFormatError",
    "write_subgroup",
    "read_subgroup",
    "format_subgroup",
    "parse_subgroup",
    "read_data",
    "read_direction",
]

_MAGIC = "NOS1"
_BREAK_RE = re.compile("[\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")  # the line breaks of str.splitlines
_BLANK_RE = re.compile(r"\s*")  # the whitespace of str.split and str.strip

# A code per ASCII byte. Two neighbouring bytes a, b can stand side by side in
# a valid body iff _FOLLOW[a] & b; the bodies in which every pair passes, read
# with a space after the last byte, are exactly the whitespace-separated
# sequences of +1, -1 and 1 tokens.
_SPACE, _BREAK, _PLUS, _MINUS, _ONE, _OTHER = 1, 1 | 8, 2, 2 | 16, 4, 32
_CLASSES = {_SPACE: b"\t\x1f ", _BREAK: b"\n\x0b\x0c\r\x1c\x1d\x1e", _PLUS: b"+", _MINUS: b"-", _ONE: b"1"}
_CODE_OF = {c: code for code, chars in _CLASSES.items() for c in chars}
_NEXT = {_SPACE: _SPACE | _PLUS | _ONE, _BREAK: _SPACE | _PLUS | _ONE, _PLUS: _ONE, _MINUS: _ONE, _ONE: _SPACE}
_CODE = bytes(_CODE_OF.get(c, _OTHER) for c in range(256))
_FOLLOW = bytes(_NEXT.get(c, 0) for c in range(256))
_TOKENS = ("+1", "-1", "1")

_BLOCK = 1 << 20  # bytes of rows written or parsed at a time
_BREAK_BYTE_RE = re.compile(b"[%s]" % re.escape(_CLASSES[_BREAK]))
_HEAD_RE = re.compile(b"[%s]*[^%s]*" % (re.escape(_CLASSES[_SPACE] + _CLASSES[_BREAK]), re.escape(_CLASSES[_BREAK])))
_CANONICAL_HEAD_RE = re.compile(rb"NOS1 ([1-9][0-9]*) ([1-9][0-9]*)\n")  # what _write_nos writes


class NosFormatError(ValueError):
    """A `.nos` file violates the format or the group axioms."""


def _write_nos(fh, s: SignFlipSubgroup) -> None:
    """Write the canonical `.nos` bytes of ``s`` to the binary file ``fh``, about _BLOCK bytes of rows at a time."""
    n, masks = s.n, s.element_masks()
    fh.write(f"{_MAGIC} {n} {s.order}\n".encode("ascii"))
    rows = max(1, _BLOCK // (3 * n))
    # each token is a sign, "1" and a separator: a space, or a newline at the end of the row
    chars = np.empty((min(rows, len(masks)), n, 3), dtype=np.uint8)
    chars[..., 1] = ord("1")
    chars[..., 2] = ord(" ")
    chars[:, -1, 2] = ord("\n")
    for lo in range(0, len(masks), rows):
        block = chars[: len(masks) - lo]
        signs = masks_to_bits(masks[lo : lo + rows], n).view(np.uint8)
        signs <<= 1
        signs += ord("+")  # "-" is "+" + 2, in the contiguous bits; then one strided copy
        block[..., 0] = signs
        fh.write(block)


def format_subgroup(s: SignFlipSubgroup) -> str:
    """Canonical `.nos` text of a subgroup."""
    buf = BytesIO()
    _write_nos(buf, s)
    return buf.getvalue().decode("ascii")


def write_subgroup(path, s: SignFlipSubgroup) -> None:
    with open(path, "wb") as fh:
        _write_nos(fh, s)


def _header(text: str) -> tuple[int, int, int]:
    """n, M and the index where the header line ends, of `.nos` text."""
    first = _BLANK_RE.match(text).end()  # the first character of the header line
    if first == len(text):
        raise NosFormatError("empty file")
    found = _BREAK_RE.search(text, first)
    body = found.start() if found else len(text)
    line = text[:body].splitlines()[-1]
    header = line.split()
    if len(header) != 3 or header[0] != _MAGIC:
        raise NosFormatError(f"bad header {line!r}: expected '{_MAGIC} <n> <M>'")
    try:
        n, m = int(header[1]), int(header[2])
    except ValueError as exc:
        raise NosFormatError(f"non-integer dimensions in header {line!r}") from exc
    if n < 1 or m < 1:
        raise NosFormatError(f"dimensions must be positive, got n={n}, M={m}")
    return n, m, body


def _codes(text: str, body: int) -> bytearray:
    """One code per character of the ASCII ``text``; everything before index ``body`` reads as space."""
    codes = bytearray(text.encode("ascii", "replace")).translate(_CODE)
    codes[:body] = bytes([_SPACE]) * body
    return codes


def _line_lengths(buf) -> np.ndarray:
    """Length of the run after each break code of ``buf``, up to the next break or the end."""
    breaks = np.flatnonzero(np.frombuffer(buf, np.uint8) == _BREAK)
    return np.diff(breaks, append=len(buf)) - 1


def _blocks(data: bytes, lo: int):
    """(start, end) of each block of ``data`` from index ``lo``, which is a line break or the end.

    A block ends just before the first line break _BLOCK or more bytes on,
    or at the end, so every block but the first starts at a break.
    """
    while lo < len(data):
        found = _BREAK_BYTE_RE.search(data, lo + _BLOCK)
        hi = found.start() if found else len(data)
        yield lo, hi
        lo = hi


def _first_bad_pair(codes: bytearray) -> int:
    """Index of the first code whose pair with the next one no valid body has, or -1.

    The last code is read as followed by a space.
    """
    follow = codes.translate(_FOLLOW)
    c, f = np.frombuffer(codes, np.uint8), np.frombuffer(follow, np.uint8)
    np.bitwise_and(f[:-1], c[1:], out=f[:-1])
    f[-1] &= _SPACE
    return follow.find(0)


def _parse_rows(data: bytes, body: int, n: int, m: int, text: str | None) -> np.ndarray:
    """The (m, n) bits of the rows after index ``body`` of the ASCII ``data`` (True = -1), a block at a time.

    ``text`` is ``data`` as a str, if at hand, for the error message.
    """
    bits = np.empty((m, n), dtype=bool)
    row, bad, tokens = 0, -1, [np.zeros(0, dtype=np.intp)]
    for lo, hi in _blocks(data, body):
        codes = bytearray(memoryview(data)[lo:hi]).translate(_CODE)
        found = _first_bad_pair(codes)  # a block is followed by a break or the end, which pass as a space
        signs = codes.translate(None, bytes([_SPACE, _PLUS]))  # a token is now -1 or 1
        del codes  # so that no more than two block-sized buffers live at a time
        tokens.append(_line_lengths(signs.translate(None, bytes([_MINUS]))))  # '1's per line
        rows = tokens[-1][tokens[-1] > 0]
        if found >= 0 or row + len(rows) > m or np.any(rows != n):
            bad = lo + found if found >= 0 else -1
            break
        s = np.frombuffer(signs, np.uint8)
        bits[row : row + len(rows)] = (s[:-1] == _MINUS)[s[1:] == _ONE].reshape(-1, n)
        row += len(rows)
    else:
        if row == m:
            return bits
    _raise_first_fault(data.decode("ascii") if text is None else text, body, n, m, bad, np.concatenate(tokens))


def _raise_first_fault(text: str, body: int, n: int, m: int, bad: int, tokens: np.ndarray):
    """Raise the error for the row count, or else for the first row with a wrong token count or token.

    ``bad`` is the position of the first invalid pair of characters (-1 if
    none) and ``tokens`` the count of '1's on each line, which is its token
    count on every line before the one holding ``bad``. When ``bad`` is -1,
    ``tokens`` may stop at the line that has a wrong count.
    """
    codes = _codes(text, body)
    nonblank = _line_lengths(codes.translate(None, bytes([_SPACE]))) > 0
    if nonblank.sum() != m:
        raise NosFormatError(f"header promises {m} rows, found {nonblank.sum()}")
    line = codes.count(_BREAK, 0, bad + 1) - 1 if bad >= 0 else len(tokens)
    wrong = np.flatnonzero(nonblank[:line] & (tokens[:line] != n))
    if len(wrong):
        line = wrong[0]
    breaks = np.append(np.flatnonzero(np.frombuffer(codes, np.uint8) == _BREAK), len(codes))
    row = int(nonblank[:line].sum())
    found = text[breaks[line] + 1 : breaks[line + 1]].split()
    if len(found) != n:
        raise NosFormatError(f"row {row} has {len(found)} tokens, expected {n}")
    col = next(j for j, token in enumerate(found) if token not in _TOKENS)
    raise NosFormatError(f"row {row}, column {col}: token {found[col]!r} is not +1 or -1")


def _parse_nos(data: bytes, text: str | None = None) -> SignFlipSubgroup:
    """Parse and fully validate the ASCII bytes of `.nos` text; ``text`` is them as a str, if at hand."""
    n, m, body = _header(data[: _HEAD_RE.match(data).end()].decode("ascii"))
    masks = bits_to_masks(_parse_rows(data, body, n, m, text))

    if masks[0] != 0:
        raise NosFormatError("first row must be the identity (all +1)")
    if len(set(masks)) != m:
        raise NosFormatError("duplicate rows")
    if masks[1:] != sorted(masks[1:]):
        raise NosFormatError("rows after the identity must be in ascending mask order")
    # sorted, distinct, identity first: a subgroup iff it is the element list of the span of rows 1, 2, 4, ...
    if m & (m - 1) == 0:
        sub = subgroup_from_basis_masks(n, [masks[1 << i] for i in range(m.bit_length() - 1)])
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


class _Differs(Exception):
    """The file's bytes differ from the canonical text being compared with them."""


class _CompareSink:
    """A binary sink that compares each write with the next bytes of ``fh`` and raises _Differs on a mismatch."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, block) -> None:
        block = bytes(block)  # a plain bytes comparison runs at memcmp speed, a memoryview one several times slower
        if self.fh.read(len(block)) != block:
            raise _Differs


def _read_canonical(fh, size: int) -> SignFlipSubgroup | None:
    """The subgroup whose canonical `.nos` text the binary file ``fh`` of ``size`` bytes holds, or None.

    Equal bytes are text from which the parser would build the same subgroup from the same rows 1, 2, 4, ...
    The written header differs from the file's unless those rows span M elements. Order-1 files are left to
    the parser.
    """
    header = _CANONICAL_HEAD_RE.match(fh.read(64))
    if not header:
        return None
    n, m = int(header[1]), int(header[2])
    if m == 1 or size != header.end() + 3 * n * m:
        return None
    rows = []
    for b in range(m.bit_length() - 1):
        fh.seek(header.end() + (3 * n << b))
        rows.append(fh.read(3 * n)[::3])  # the signs of row 2^b
    s = subgroup_from_basis_masks(n, bits_to_masks(np.frombuffer(b"".join(rows), np.uint8).reshape(-1, n) == ord("-")))
    fh.seek(0)
    try:
        _write_nos(_CompareSink(fh), s)
    except _Differs:
        return None
    return s


def parse_subgroup(text: str) -> SignFlipSubgroup:
    """Parse and fully validate `.nos` text."""
    if text.isascii():
        data = text.encode("ascii")
        s = _read_canonical(BytesIO(data), len(data))
        return _parse_nos(data) if s is None else s
    _header(text)  # a bad header is reported as it is written
    # one space between tokens, one newline between lines
    text = "\n".join(" ".join(ln.split()) for ln in text.splitlines())
    return _parse_nos(text.encode("ascii", "replace"), text)


def read_subgroup(path) -> SignFlipSubgroup:
    """Read a `.nos` file: a canonical file by comparing it with its subgroup's text, any other by the parser."""
    with open(path, "rb", buffering=0) as fh:
        if fh.seekable():  # a pipe is read whole
            s = _read_canonical(fh, os.fstat(fh.fileno()).st_size)
            if s is not None:
                return s
            fh.seek(0)
        data = fh.read()
    return _parse_nos(data) if data.isascii() else parse_subgroup(data.decode("utf-8"))


def read_data(path) -> np.ndarray:
    """One decimal number per line."""
    values = []
    for r, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines()):
        if not line.strip():
            continue
        try:
            values.append(float(line))
        except ValueError as exc:
            raise NosFormatError(f"line {r + 1}: {line.strip()!r} is not a number") from exc
    if not values:
        raise NosFormatError("no data values found")
    return np.asarray(values, dtype=float)


def read_direction(path) -> Direction:
    """A direction file; normalized (with a warning) if not unit-norm."""
    v = read_data(path)
    if not np.all(np.isfinite(v)):
        raise NosFormatError("direction has a non-finite coordinate")
    nrm = float(np.linalg.norm(v))
    if nrm == 0.0:
        raise NosFormatError("direction vector is zero")
    if abs(nrm - 1.0) > 1e-12:
        warnings.warn(f"direction norm is {nrm:.6g}; normalizing to unit length", stacklevel=2)
        v = v / nrm
    return Direction(len(v), v)
