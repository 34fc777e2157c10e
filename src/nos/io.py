"""File formats: `.nos` subgroup files, data vectors, direction vectors.

A `.nos` file is a bit-exact, human-readable serialization of a
sign-flip subgroup: line 1 is ``NOS1 <n> <M>``; each of the following M
lines holds the diagonal of one group element as n space-separated
``+1``/``-1`` tokens, the identity (all ``+1``) first and the remaining
rows in ascending mask order (bit i of the mask set iff token i is
``-1``). Reading validates shape, tokens, ordering, and group closure,
naming the offending pair when closure fails.

Data and direction files are plain UTF-8 text with one decimal number
per line; a direction that is not unit-norm is normalized with a
warning.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from .flipcore import SignFlipSubgroup, _rref_basis, bits_to_masks, masks_to_bits, subgroup_from_basis_masks
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


class NosFormatError(ValueError):
    """A `.nos` file violates the format or the group axioms."""


def format_subgroup(s: SignFlipSubgroup) -> str:
    """Canonical `.nos` text of a subgroup."""
    bits = masks_to_bits(s.element_masks(), s.n)
    # each token is a sign, "1" and a separator: a space, or a newline at the end of the row
    chars = np.empty(bits.shape + (3,), dtype=np.uint8)
    chars[..., 0] = np.where(bits, ord("-"), ord("+"))
    chars[..., 1] = ord("1")
    chars[..., 2] = ord(" ")
    chars[:, -1, 2] = ord("\n")
    return f"{_MAGIC} {s.n} {s.order}\n" + chars.tobytes().decode("ascii")


def write_subgroup(path, s: SignFlipSubgroup) -> None:
    Path(path).write_text(format_subgroup(s), encoding="utf-8")


def parse_subgroup(text: str) -> SignFlipSubgroup:
    """Parse and fully validate `.nos` text."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise NosFormatError("empty file")
    header = lines[0].split()
    if len(header) != 3 or header[0] != _MAGIC:
        raise NosFormatError(f"bad header {lines[0]!r}: expected '{_MAGIC} <n> <M>'")
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
        # three characters are enough: any longer token is invalid either way
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
    # identity first, distinct and sorted: the rows form a subgroup iff they
    # are the canonical element list of their span, which has 2^rank elements
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


def read_subgroup(path) -> SignFlipSubgroup:
    return parse_subgroup(Path(path).read_text(encoding="utf-8"))


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
    nrm = float(np.linalg.norm(v))
    if nrm == 0.0:
        raise NosFormatError("direction vector is zero")
    if abs(nrm - 1.0) > 1e-12:
        warnings.warn(f"direction norm is {nrm:.6g}; normalizing to unit length", stacklevel=2)
        v = v / nrm
    return Direction(len(v), v)
