"""Leak quantities of sign-flip subgroups relative to a unit direction.

For a subgroup (or subset) S of orthonormal matrices and a unit vector
iota, the "leak" of an element is iota'S iota; the subgroup-level
quantities delta (max over non-identity elements) and delta_abs (max
absolute value) govern the consistency threshold of the associated
invariance test. Element j of a subgroup, in ascending mask order,
flips coordinate i iff popcount(j & sig_i) is odd, so its leak is entry
j of the Walsh-Hadamard transform of iota's squares binned by signature.
The transform runs on exact integers, so on every direction each leak is
the exact sum rounded once: (n - 2k)/n for k flips on the uniform one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .flipcore import (
    DimensionMismatchError,
    SignFlipElement,
    SignFlipSubgroup,
    _walsh_hadamard,
    extend,
    masks_to_bits,
    negation,
)

_UNIT_NORM_TOL = 1e-12


class TrivialSubgroupError(ValueError):
    """Leak summary requested for the order-1 subgroup, where delta is undefined."""


@dataclass(frozen=True, eq=False)
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

    @cached_property
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


def _check_unit_columns(cols: np.ndarray) -> None:
    norms = np.sqrt(np.einsum("ij,ij->j", cols, cols))
    if not np.all(np.abs(norms - 1.0) <= _UNIT_NORM_TOL):  # NaN fails too
        raise ValueError("every column must be finite with unit norm (tol 1e-12)")


@dataclass(frozen=True, eq=False)
class MatrixRepresentation:
    """The n x M array with columns S iota; column 0 is always iota itself.

    This is the universal test-execution format: evaluating the invariance
    test only needs the inner products of the columns with the data.
    ``iota`` is a read-only contiguous copy of column 0. ``signatures`` is
    set only by ``matrix_representation``, which keeps iota and the
    signatures; the columns are written from them the first time they are
    read, as column j = iota_i (-1)^popcount(j & signatures[i]), and kept.
    A hand-built representation has none. Equality is identity.
    """

    n: int
    M: int
    columns: np.ndarray = field(repr=False)  # shape (n, M)
    iota: np.ndarray = field(init=False, repr=False)
    signatures: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        cols = self.columns
        # a read-only float64 C-order array is kept as it is; anything else is copied
        if not (isinstance(cols, np.ndarray) and cols.dtype == np.float64
                and cols.flags.c_contiguous and not cols.flags.writeable):
            cols = np.array(cols, dtype=float, order="C")
        if cols.shape != (self.n, self.M):
            raise ValueError(f"columns shape {cols.shape} != ({self.n}, {self.M})")
        _check_unit_columns(cols)
        cols.flags.writeable = False
        iota = cols[:, 0].copy()
        iota.flags.writeable = False
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "iota", iota)

    def __getattr__(self, name):
        # reached only for an attribute that is not set: the columns of a representation built from signatures
        if name != "columns":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        cols = np.empty((self.n, self.M))
        cols[:, 0] = self.iota
        for b in range(self.M.bit_length() - 1):  # column j + 2^b is column j, negated where bit b of sig_i is set
            h = 1 << b
            np.multiply(cols[:, :h], np.where(self.signatures >> b & 1, -1.0, 1.0)[:, None], out=cols[:, h : 2 * h])
        _check_unit_columns(cols[:, :1])  # every column squares to iota's squares exactly, so has column 0's norm
        cols.flags.writeable = False
        object.__setattr__(self, "columns", cols)
        return cols


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
    w, q = _leak_spectrum(masks_to_bits([s.mask], s.n)[0].view(np.uint8), 2, iota)
    return w[1] / q


def _leak_spectrum(signatures: np.ndarray, M: int, iota: Direction) -> tuple[list[int], int]:
    """Ints W, q with W[j] / q element j's leak: W transforms the weights q iota_i^2 binned by signature.

    The uniform direction has weight 1 and q = n. Any other puts its squares' exact binary fractions
    over their common denominator; int division then rounds W[j] / q once, as math.fsum does.
    """
    if iota.is_uniform:
        return _walsh_hadamard(np.bincount(signatures, minlength=M)).tolist(), iota.n
    ratios = [v.as_integer_ratio() for v in (iota.coords * iota.coords).tolist()]
    q = max(d for _, d in ratios)
    bins = [0] * M
    for sig, (a, d) in zip(signatures.tolist(), ratios):
        bins[sig] += a * (q // d)
    return _walsh_hadamard(np.array(bins, dtype=object)).tolist(), q


def leak_summary(s: SignFlipSubgroup | MatrixRepresentation, iota: Direction | None = None) -> LeakSummary:
    """Full leak distribution, delta and delta_abs of a subgroup.

    Accepts either the GF(2) subgroup (with a direction, default uniform)
    or an existing matrix representation (whose direction is its first
    column). A representation with signatures gives the subgroup's
    summary; a hand-built one sums iota' S iota over its columns.
    """
    if isinstance(s, MatrixRepresentation):
        if s.M < 2:
            raise TrivialSubgroupError("leak is undefined for an order-1 subgroup")
        if s.signatures is None:
            dist = tuple(float(v) for v in s.iota @ s.columns)
            return _summary(dist, tuple(s.n * v for v in dist))
        signatures, M, iota = s.signatures, s.M, Direction(s.n, s.iota)
    else:
        if iota is None:
            iota = Direction.uniform(s.n)
        if s.n != iota.n:
            raise DimensionMismatchError(f"subgroup n={s.n} != direction n={iota.n}")
        if s.order < 2:
            raise TrivialSubgroupError("leak is undefined for the trivial subgroup")
        signatures, M = s.signatures, s.order
    w, q = _leak_spectrum(signatures, M, iota)
    dist = tuple(v / q for v in w)
    # the uniform direction's spectrum is its scaled leaks themselves, exact ints (q = n)
    return _summary(dist, tuple(w) if iota.is_uniform else tuple(iota.n * v for v in dist))


def _summary(dist: tuple, scaled: tuple) -> LeakSummary:
    others = dist[1:]
    return LeakSummary(max(others), max(abs(v) for v in others), dist, scaled)


def matrix_representation(s: SignFlipSubgroup, iota: Direction | None = None) -> MatrixRepresentation:
    """Columns S iota in ascending element order; column 0 equals iota.

    Requires distinct columns, guaranteed when delta < 1 or iota has no
    zero coordinate. The representation holds iota and the subgroup's
    signatures, and writes its columns when they are first read.
    """
    if iota is None:
        iota = Direction.uniform(s.n)
    if s.n != iota.n:
        raise DimensionMismatchError(f"subgroup n={s.n} != direction n={iota.n}")
    # columns j and k collide iff element j ^ k flips only zero coordinates of iota,
    # i.e. iff its Walsh coefficient over the nonzero ones equals the identity's
    w = _walsh_hadamard(np.bincount(s.signatures[iota.coords != 0], minlength=s.order))
    if np.any(w[1:] == w[0]):
        raise ValueError("duplicate columns: need delta < 1 or an iota without zero coordinates")
    rep = object.__new__(MatrixRepresentation)  # no columns yet: __getattr__ writes them when read
    rep.__dict__.update(n=s.n, M=s.order, iota=iota.coords, signatures=s.signatures)
    return rep


def delta_from_matrix(rep: MatrixRepresentation) -> float:
    """Maximum off-diagonal inner product of the representation's columns.

    With signatures, entry (j, k) of the Gram matrix is the leak of element
    j ^ k, so delta is the largest leak of a non-identity element.
    """
    if rep.M < 2:
        raise ValueError("delta needs at least two columns")
    if rep.signatures is not None:
        w, q = _leak_spectrum(rep.signatures, rep.M, Direction(rep.n, rep.iota))
        return max(w[1:]) / q
    gram = rep.columns.T @ rep.columns
    off = gram[~np.eye(rep.M, dtype=bool)]
    return float(np.max(off))


def negate_closure(s: SignFlipSubgroup) -> SignFlipSubgroup:
    """The subgroup generated by s and -I.

    When -I is not already a member, delta_abs(s) equals delta of the
    result.
    """
    return extend(s, negation(s.n))
