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
the end of the row. Texts, files and pipes (read whole) take one reader.
It tries the canonical form first: the signs of rows 1, 2, 4, ..., M/2
span a subgroup whose written blocks are compared with the next bytes of
the text; if all match, the parser would build that subgroup, so it is
returned unparsed. Any other text, and M = 1, is parsed from the stream
in blocks of about 1 MiB of whole lines by a few C-level byte passes,
with no object per token, into the M row masks. At n = M = 2048 (12 MB,
2-vCPU Xeon VM) a canonical file reads in about 0.02 s with allocations
peaking at 3.8 MiB, a CRLF copy in 0.07 s at 4.6 MiB. Only a fault or a
non-ASCII byte makes the reader hold the whole text: to name the first
fault, whatever the blocks, or to decode and normalise the text.

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


def _line_lengths(buf) -> np.ndarray:
    """Length of the run after each break code of ``buf``, up to the next break or the end."""
    breaks = np.flatnonzero(np.frombuffer(buf, np.uint8) == _BREAK)
    return np.diff(breaks, append=len(buf)) - 1


def _first_bad_pair(codes: bytearray) -> int:
    """Index of the first code whose pair with the next one no valid body has, or -1.

    The last code is read as followed by a space.
    """
    follow = codes.translate(_FOLLOW)
    c, f = np.frombuffer(codes, np.uint8), np.frombuffer(follow, np.uint8)
    np.bitwise_and(f[:-1], c[1:], out=f[:-1])
    f[-1:] &= _SPACE
    return follow.find(0)


def _line_blocks(fh):
    """The binary stream ``fh`` in blocks of whole lines: each read is cut just before its last line break."""
    carry = []
    while chunk := fh.read(_BLOCK):
        cut = -1
        for b in _CLASSES[_BREAK]:  # each search starts after the last break found so far
            cut = max(cut, chunk.rfind(b, cut + 1))
        if cut >= 0:
            yield bytearray().join([*carry, memoryview(chunk)[:cut]])
            carry, chunk = [], chunk[cut:]
        carry.append(chunk)
    yield bytearray().join(carry)


def _parse_rows(fh) -> tuple[int, list[int]] | None:
    """n and the row masks of the `.nos` text in the binary stream ``fh``; None at a fault or a non-ASCII byte."""
    m, masks = 0, []
    for block in _line_blocks(fh):
        if not m:  # the header is the first line that is not blank
            if not (block := block.lstrip(_CLASSES[_SPACE] + _CLASSES[_BREAK])):
                continue
            try:
                n, m, body = _header(block[: _HEAD_RE.match(block).end()].decode("ascii"))
            except (UnicodeDecodeError, NosFormatError):
                return None
            del block[:body]
        codes = block.translate(_CODE)
        del block  # so that no more than two block-sized buffers live at a time
        if _first_bad_pair(codes) >= 0:  # a block is followed by a break or the end, which pass as a space
            return None
        signs = codes.translate(None, bytes([_SPACE, _PLUS]))  # a token is now -1 or 1
        del codes
        tokens = _line_lengths(signs.translate(None, bytes([_MINUS])))  # '1's per line
        rows = tokens[tokens > 0]
        if len(masks) + len(rows) > m or np.any(rows != n):
            return None
        s = np.frombuffer(signs, np.uint8)
        masks += bits_to_masks((s[:-1] == _MINUS)[s[1:] == _ONE].reshape(-1, n))
    return (n, masks) if m and len(masks) == m else None


def _raise_first_fault(data: bytes):
    """Raise the error for the header, the row count, or else the first row with a wrong token count or token.

    ``data`` is `.nos` text with an ASCII header. Only the line that a token message quotes is decoded.
    """
    n, m, body = _header(data[: _HEAD_RE.match(data).end()].decode("ascii"))
    codes = bytearray(data).translate(_CODE)
    codes[:body] = bytes([_SPACE]) * body
    nonblank = _line_lengths(codes.translate(None, bytes([_SPACE]))) > 0
    if nonblank.sum() != m:
        raise NosFormatError(f"header promises {m} rows, found {nonblank.sum()}")
    # the '1's of a line are its tokens on every line before the one with the first invalid pair of characters
    tokens = _line_lengths(codes.translate(None, bytes([_SPACE, _PLUS, _MINUS])))
    bad = _first_bad_pair(codes)
    line = codes.count(_BREAK, 0, bad + 1) - 1 if bad >= 0 else len(tokens)
    wrong = np.flatnonzero(nonblank[:line] & (tokens[:line] != n))
    if len(wrong):
        line = wrong[0]
    breaks = np.append(np.flatnonzero(np.frombuffer(codes, np.uint8) == _BREAK), len(codes))
    row = int(nonblank[:line].sum())
    found = data[breaks[line] + 1 : breaks[line + 1]].decode("utf-8", "surrogatepass").split()
    if len(found) != n:
        raise NosFormatError(f"row {row} has {len(found)} tokens, expected {n}")
    col = next(j for j, token in enumerate(found) if token not in _TOKENS)
    raise NosFormatError(f"row {row}, column {col}: token {found[col]!r} is not +1 or -1")


def _parse_nos(fh) -> SignFlipSubgroup:
    """Parse and fully validate the `.nos` text in the seekable binary stream ``fh``."""
    fh.seek(0)
    parsed = _parse_rows(fh)
    if parsed is None:  # a fault, or text that is not ASCII: read it whole
        fh.seek(0)
        data = fh.read()
        if not data.isascii():
            text = data.decode("utf-8", "surrogatepass")
            n, m, body = _header(text)  # a bad header is reported as it is written, a good one rewritten in ASCII
            head = len(text[:body].splitlines()) - 1
            text = "\n".join(f"{_MAGIC} {n} {m}" if i == head else " ".join(ln.split())  # single spaces and newlines
                             for i, ln in enumerate(text.splitlines()))
            data = text.encode("utf-8", "surrogatepass")
            parsed = _parse_rows(BytesIO(data))
        if parsed is None:
            _raise_first_fault(data)
    n, masks = parsed
    m = len(masks)
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
    # Name the first pair in row order whose composition is missing. A row with every composition present maps
    # the rows onto themselves, as does every row in the span of such rows: at most log2(M) + 1 rows are scanned.
    mask_set, scanned = set(masks), []  # a basis of the rows scanned, in descending order of leading bit
    for a in masks:
        x = a
        for r in scanned:
            x = min(x, x ^ r)
        if x == 0:
            continue
        for b in masks:
            if a ^ b not in mask_set:
                raise NosFormatError(
                    f"not closed under composition: rows with masks {a:#x} and {b:#x} "
                    f"compose to {a ^ b:#x}, which is missing"
                )
        scanned = sorted([*scanned, x], reverse=True)


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


def _read_nos(fh) -> SignFlipSubgroup:
    """The subgroup of the `.nos` text in the seekable binary stream ``fh``: checked if canonical, else parsed."""
    size = fh.seek(0, os.SEEK_END)
    fh.seek(0)
    return _read_canonical(fh, size) or _parse_nos(fh)


def parse_subgroup(text: str) -> SignFlipSubgroup:
    """Parse and fully validate `.nos` text."""
    return _read_nos(BytesIO(text.encode("utf-8", "surrogatepass")))


def read_subgroup(path) -> SignFlipSubgroup:
    """Read a `.nos` file: a canonical file by comparing it with its subgroup's text, any other by the parser."""
    with open(path, "rb", buffering=0) as fh:
        return _read_nos(fh if fh.seekable() else BytesIO(fh.read()))  # a pipe is read whole


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
