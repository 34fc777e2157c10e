"""Leak quantities of sign-flip subgroups relative to a unit direction.

For a subgroup (or subset) S of orthonormal matrices and a unit vector
iota, the "leak" of an element is iota'S iota; the subgroup-level
quantities delta (max over non-identity elements) and delta_abs (max
absolute value) govern the consistency threshold of the associated
invariance test. For the uniform direction the leak of a sign-flip mask
with k flipped coordinates is exactly (n - 2k)/n, so everything is
computed in integer arithmetic on the n-scaled axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .flipcore import (
    DimensionMismatchError,
    SignFlipElement,
    SignFlipSubgroup,
    _enumerate_span,
    extend,
    masks_to_bit_columns,
    masks_to_bits,
    negation,
)

_UNIT_NORM_TOL = 1e-12
#: tolerance when comparing leak values computed from floats (general iota)
GENERAL_IOTA_TOL = 1e-10


class TrivialSubgroupError(ValueError):
    """Leak summary requested for the order-1 subgroup, where delta is undefined."""


@dataclass(frozen=True)
class Direction:
    """A unit n-vector, the direction the location signal enters through."""

    n: int
    coords: np.ndarray

    def __post_init__(self):
        coords = np.array(self.coords, dtype=float)
        if coords.shape != (self.n,):
            raise ValueError(f"coords shape {coords.shape} != ({self.n},)")
        if not abs(float(np.linalg.norm(coords)) - 1.0) <= _UNIT_NORM_TOL:  # NaN fails too
            raise ValueError("coords must be finite with unit Euclidean norm (tol 1e-12)")
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)

    @classmethod
    def uniform(cls, n: int) -> "Direction":
        """n^{-1/2}(1, ..., 1)', the default direction for sign-flipping."""
        return cls(n, np.full(n, 1.0 / math.sqrt(n)))

    @property
    def is_uniform(self) -> bool:
        c = self.coords
        return bool(c[0] > 0 and np.all(c == c[0]))

    @classmethod
    def from_vector(cls, v, normalize: bool = False) -> "Direction":
        v = np.asarray(v, dtype=float)
        if normalize:
            nrm = float(np.linalg.norm(v))
            if nrm == 0:
                raise ValueError("cannot normalize the zero vector")
            v = v / nrm
        return cls(len(v), v)


@dataclass(frozen=True)
class MatrixRepresentation:
    """The n x M array with columns S iota; column 0 is always iota itself.

    This is the universal test-execution format: evaluating the invariance
    test only needs the inner products of the columns with the data.
    ``iota`` is a read-only contiguous copy of column 0. ``signatures``, set
    only by ``matrix_representation``, gives column j = iota_i (-1)^popcount(j & signatures[i]).
    """

    n: int
    M: int
    columns: np.ndarray  # shape (n, M)
    iota: np.ndarray = field(init=False, repr=False, compare=False)
    signatures: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        cols = self.columns
        # a read-only float64 C-order array is kept as it is; anything else is copied
        if not (isinstance(cols, np.ndarray) and cols.dtype == np.float64
                and cols.flags.c_contiguous and not cols.flags.writeable):
            cols = np.array(cols, dtype=float, order="C")
        if cols.shape != (self.n, self.M):
            raise ValueError(f"columns shape {cols.shape} != ({self.n}, {self.M})")
        norms = np.sqrt(np.einsum("ij,ij->j", cols, cols))
        if not np.all(np.abs(norms - 1.0) <= _UNIT_NORM_TOL):  # NaN fails too
            raise ValueError("every column must be finite with unit norm (tol 1e-12)")
        cols.flags.writeable = False
        iota = cols[:, 0].copy()
        iota.flags.writeable = False
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "iota", iota)


@dataclass(frozen=True)
class LeakSummary:
    """delta, delta_abs, and the full leak distribution of a subgroup.

    ``distribution`` holds iota'S iota over all elements (identity
    included, contributing the value 1); ``scaled_distribution`` is the
    same multiset on the n-scaled axis, exact integers for the uniform
    direction.
    """

    delta: float
    delta_abs: float
    distribution: tuple[float, ...]
    scaled_distribution: tuple

    @property
    def order(self) -> int:
        return len(self.distribution)


def leak_value(s: SignFlipElement, iota: Direction) -> float:
    """iota' S iota for a single sign-flip element."""
    if s.n != iota.n:
        raise DimensionMismatchError(f"element n={s.n} != direction n={iota.n}")
    if iota.is_uniform:
        return (s.n - 2 * s.flip_count()) / s.n
    return _general_leaks([s.mask], iota)[0]


def _general_leaks(masks: list[int], iota: Direction) -> list[float]:
    """iota' S iota per mask, each summed exactly with math.fsum."""
    sq = iota.coords * iota.coords
    return [math.fsum(row) for row in np.where(masks_to_bits(masks, iota.n), -sq, sq)]


def leak_summary(s: SignFlipSubgroup | MatrixRepresentation, iota: Direction | None = None) -> LeakSummary:
    """Full leak distribution, delta and delta_abs of a subgroup.

    Accepts either the GF(2) subgroup (with a direction, default uniform)
    or an existing matrix representation (whose direction is its first
    column).
    """
    if isinstance(s, MatrixRepresentation):
        if s.M < 2:
            raise TrivialSubgroupError("leak is undefined for an order-1 subgroup")
        vals = s.iota @ s.columns
        others = vals[1:]
        dist = tuple(float(v) for v in vals)
        return LeakSummary(
            delta=float(np.max(others)),
            delta_abs=float(np.max(np.abs(others))),
            distribution=dist,
            scaled_distribution=tuple(s.n * v for v in dist),
        )

    if iota is None:
        iota = Direction.uniform(s.n)
    if s.n != iota.n:
        raise DimensionMismatchError(f"subgroup n={s.n} != direction n={iota.n}")
    if s.order < 2:
        raise TrivialSubgroupError("leak is undefined for the trivial subgroup")
    n = s.n
    if iota.is_uniform:
        scaled = tuple(n - 2 * e.flip_count() for e in s.elements)
        others = scaled[1:]
        delta = max(others) / n
        delta_abs = max(abs(v) for v in others) / n
        return LeakSummary(
            delta=delta,
            delta_abs=delta_abs,
            distribution=tuple(v / n for v in scaled),
            scaled_distribution=scaled,
        )
    vals = _general_leaks(s.element_masks(), iota)
    others = vals[1:]
    return LeakSummary(
        delta=max(others),
        delta_abs=max(abs(v) for v in others),
        distribution=tuple(vals),
        scaled_distribution=tuple(n * v for v in vals),
    )


def matrix_representation(s: SignFlipSubgroup, iota: Direction | None = None) -> MatrixRepresentation:
    """Columns S iota in canonical element order; column 0 equals iota.

    Requires distinct columns, which is guaranteed when delta < 1 or iota
    has no zero coordinate.
    """
    if iota is None:
        iota = Direction.uniform(s.n)
    if s.n != iota.n:
        raise DimensionMismatchError(f"subgroup n={s.n} != direction n={iota.n}")
    bits = masks_to_bit_columns(masks := s.element_masks(), s.n)
    coords = iota.coords[:, None]
    # columns j and k collide iff the element m_j ^ m_k flips only zero
    # coordinates of iota, i.e. iff some non-identity element does
    if not np.all(np.any(bits[:, 1:] & (coords != 0), axis=0)):
        raise ValueError(
            "duplicate columns: need delta < 1 or an iota without zero coordinates"
        )
    cols = np.where(bits, -coords, coords)  # C-order (n, M), written once
    cols.flags.writeable = False  # so MatrixRepresentation keeps it without a copy
    rep = MatrixRepresentation(s.n, s.order, cols)
    powers = 1 << np.arange(s.order.bit_length() - 1)
    if _enumerate_span([masks[p] for p in powers]) == masks:  # element j is the XOR of rows 1 << b, b in j
        signatures = bits[:, powers] @ powers
        signatures.flags.writeable = False
        object.__setattr__(rep, "signatures", signatures)
    return rep


def delta_from_matrix(rep: MatrixRepresentation) -> float:
    """Maximum off-diagonal inner product of the representation's columns."""
    if rep.M < 2:
        raise ValueError("delta needs at least two columns")
    gram = rep.columns.T @ rep.columns
    off = gram[~np.eye(rep.M, dtype=bool)]
    return float(np.max(off))


def negate_closure(s: SignFlipSubgroup) -> SignFlipSubgroup:
    """The subgroup generated by s and -I.

    When -I is not already a member, delta_abs(s) equals delta of the
    result.
    """
    return extend(s, negation(s.n))
