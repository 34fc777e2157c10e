"""Exhaustive enumeration and counting of sign-flip subgroups for small n.

Subgroups of the sign-flipping group are the GF(2)-linear subspaces of
the n-bit mask space, so rank-p subgroups are counted by the Gaussian
(2-)binomial coefficient and can be enumerated exactly once each through
their unique reduced echelon basis: choose the pivot bits, then fill the
free entries. The leak census groups subgroups by the exact multiset of
their n-scaled leak values (integers n - 2*popcount for the uniform
direction), which collapses the subgroup count dramatically. The orbit
count classifies the same subgroups up to permutation of the coordinates
instead, by Burnside's lemma over the cycle types of S_n; it enumerates
nothing, because Birkhoff's formula counts the subgroups each permutation
fixes in closed form.

A subgroup's key is one int64 (its leak code enumerator at 2^p + 1) for
any direction with few distinct leaks. For the uniform direction, whose
leak multiset is the weight distribution, MacWilliams duality derives
ranks above n // 2 from those below.

The heavy path is one serial loop over pivot sets, vectorized with numpy
over batches of at most _BATCH_ELEMS group elements. ``flipcore._span_rows``,
the one XOR doubling, broadcasts a pivot set's basis row values, one axis
per row, into the batches' elements, and expands the representatives' rows;
classes are keyed, merged, coded and ordered in array passes. Along a random
direction at n = 8 each of the 417 199 subgroups is its own class:
``leak_census`` takes 2.2-2.5 s, and one-shot ``nos census --n 8 --iota``
14 s at 523 MiB peak RSS (2 vCPU), mostly writing JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import combinations, product
from math import factorial, gcd, prod
from typing import Iterator

import numpy as np

from .construct import two_adic_valuation
from .flipcore import SignFlipSubgroup, _rref_basis, _span_rows, subgroup_from_basis_masks
from .leak import Direction, _leak_spectrum

#: above this dimension enumeration will not finish at desk scale
ENUMERATION_GUARD_N = 12
_BATCH_ELEMS = 1 << 20  # group elements per batch, 2 MiB of int16 spans, which bounds the batch and its key temporaries


class EnumerationGuardError(ValueError):
    """Enumeration requested beyond the combinatorial-explosion guard."""


def _check_guard(n: int, allow_large: bool):
    if n > ENUMERATION_GUARD_N and not allow_large:
        raise EnumerationGuardError(
            f"n={n} exceeds the enumeration guard ({ENUMERATION_GUARD_N}); "
            "pass allow_large=True if you accept a very long run"
        )


def gaussian_binomial(n: int, p: int, q: int = 2) -> int:
    """Number of rank-p subgroups in dimension n (q-binomial coefficient at q = 2 by default), exact."""
    if p < 0 or n < 0:
        raise ValueError("n and p must be non-negative")
    if p > n:
        raise ValueError(f"p={p} exceeds n={n}")
    num = 1
    den = 1
    for i in range(p):
        num *= q ** (n - i) - 1
        den *= q ** (p - i) - 1
    return num // den


def count_all_subgroups(n: int) -> int:
    """Total number of subgroups across all ranks, exact."""
    if n < 1:
        raise ValueError("n must be positive")
    return sum(gaussian_binomial(n, p) for p in range(n + 1))


def _free_positions(n: int, pivots: tuple[int, ...]) -> list[list[int]]:
    """Free bit positions per basis row, for the reduced echelon form."""
    return [[j for j in range(q + 1, n) if j not in pivots] for q in pivots]


def _row_values(pivot: int, free: list[int]) -> list[int]:
    """All masks a basis row can take: pivot bit plus any subset of free bits."""
    vals = [1 << pivot]
    for j in free:
        vals += [v | (1 << j) for v in vals]
    return vals


def enumerate_subgroups(n: int, p: int, allow_large: bool = False) -> Iterator[SignFlipSubgroup]:
    """Yield every rank-p subgroup exactly once (canonical basis order)."""
    _check_guard(n, allow_large)
    if not 0 <= p <= n:
        raise ValueError(f"rank p={p} outside [0, {n}]")
    for pivots in combinations(range(n), p):
        frees = _free_positions(n, pivots)
        for rows in product(*(_row_values(q, f) for q, f in zip(pivots, frees))):
            yield subgroup_from_basis_masks(n, list(rows))


def _pivotset_batches(n: int, pivots: tuple[int, ...]):
    """Yield the (K, 2^p) ``_span_rows`` of all reduced echelon bases with the given pivots.

    One subgroup per row in the order of ``enumerate_subgroups``: column 2^j
    is basis row j, whose values lie along product axis j, the first slowest.
    A batch fixes the leading axes and slices the next, so that it holds at
    most _BATCH_ELEMS elements, or one subgroup's 2^p when that is more.
    """
    p, dtype = len(pivots), (np.int16 if n <= 14 else np.int32)
    if not p:
        yield _span_rows(np.zeros((1, 0), dtype=dtype))
        return
    axes = [np.array(_row_values(q, f), dtype=dtype) for q, f in zip(pivots, _free_positions(n, pivots))]
    axes = [vals.reshape((-1,) + (1,) * (p - 1 - j)) for j, vals in enumerate(axes)]
    step = max(1, _BATCH_ELEMS >> p)  # subgroups per batch
    cut = next(j for j in range(p) if prod(map(len, axes[j + 1 :])) <= step)  # the sliced axis
    width = step // prod(map(len, axes[cut + 1 :]))
    pieces = [np.split(vals, range(w, len(vals), w)) for vals, w in zip(axes, [1] * cut + [width])]
    for head in product(*pieces):
        yield _span_rows([*head, *axes[cut + 1 :]])


def _sorted_row_keys(table, rows):
    """The sorted leak codes of each subgroup's elements."""
    return np.sort(table[rows], axis=1)


def _first_of_keys(keys):
    """The distinct keys, int64 scalars or rows, and the index of each one's first occurrence, as ``np.unique``."""
    if keys.ndim > 1:
        return np.unique(keys, axis=0, return_index=True)
    order = np.argsort(keys)  # unstable: a key's first occurrence is the least index in its run
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.minimum.reduceat(order, starts)


def _enumerator_keys(lut, rows):
    """Each subgroup's leak code enumerator at R, sum of R^code(e), with lut[e] = R^code(e).

    Summed one column at a time, so no (K x 2^p) int64 temporary exists.
    """
    keys = lut.take(rows[:, 0])
    for c in range(1, rows.shape[1]):
        keys += lut.take(rows[:, c])
    return keys


def _dual_basis(n: int, basis) -> list[int]:
    """Reduced echelon basis of the orthogonal complement of a reduced echelon basis's span.

    Bit f plus the pivots of the rows with bit f is orthogonal to every row, for each non-pivot f.
    """
    pivots = [(b & -b).bit_length() - 1 for b in basis]
    free = [f for f in range(n) if f not in pivots]
    return _rref_basis((1 << f) | sum(1 << q for q, b in zip(pivots, basis) if b >> f & 1) for f in free)


@dataclass
class LeakCensusReport:
    """Distinct leak distributions of sign-flip subgroups, by rank."""

    n: int
    uniform_iota: bool
    subgroup_counts: dict[int, int]
    distinct_counts: dict[int, int]
    representatives: list[dict] = field(repr=False, default_factory=list)

    @property
    def total_subgroups(self) -> int:
        return sum(self.subgroup_counts.values())

    @property
    def total_distinct(self) -> int:
        return sum(self.distinct_counts.values())

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "uniform_iota": self.uniform_iota,
            "subgroup_counts": {str(k): v for k, v in self.subgroup_counts.items()},
            "distinct_counts": {str(k): v for k, v in self.distinct_counts.items()},
            "total_subgroups": self.total_subgroups,
            "total_distinct": self.total_distinct,
            "representatives": self.representatives,
        }


def leak_census(
    n: int,
    iota: Direction | None = None,
    rank: int | None = None,
    allow_large: bool = False,
    with_representatives: bool = True,
) -> LeakCensusReport:
    """Group all subgroups (of one rank, or all ranks) by leak distribution.

    The grouping key is the sorted multiset of a subgroup's scaled leaks
    n iota'S iota, compared after rounding at 1e-10; for the uniform
    direction these are the exact integers n - 2 * popcount. Each
    representative's ``scaled_distribution`` is listed in descending
    order for the uniform direction and ascending order otherwise.

    Each distinct scaled leak has a code, its rank among them; for the
    uniform direction code c is the flip count, leak n - 2c. A rank-p key
    is one int64, the code enumerator sum_c A_c R^c at R = 2^p + 1, exact
    while R^(number of codes) <= 2^63 because every count A_c <= 2^p < R:
    so for the uniform direction's n + 1 codes at all p <= n // 2 when
    n <= 11, and for two-sample contrasts. Otherwise the key is the
    sorted row of codes. For the uniform direction only ranks up to
    n // 2 are enumerated: V -> V-perp maps rank p one to one onto rank
    n - p and V's weight distribution fixes V-perp's (MacWilliams 1963),
    so rank n - p has G(n, p) subgroups, as many classes as rank p, and
    the reduced echelon dual bases of rank p's representatives as its
    own. Other directions have no such duality and enumerate every rank.
    """
    _check_guard(n, allow_large)
    ranks = [rank] if rank is not None else list(range(n + 1))
    if rank is not None and not 0 <= rank <= n:
        raise ValueError(f"rank {rank} outside [0, {n}]")
    uniform = iota is None or iota.is_uniform
    if uniform:
        values = n - 2 * np.arange(n + 1)
        table = np.bitwise_count(np.arange(1 << n)).astype(np.int8)
        enumerated = sorted({min(p, n - p) for p in ranks})
    else:
        # mask j of the full group is element j: coordinate i's signature is 1 << i
        w, q = _leak_spectrum(1 << np.arange(n), 1 << n, iota)
        # + 0.0 turns the -0.0 that rounding leaves of a tiny negative leak into 0.0
        leaks = np.round(n * np.array([v / q for v in w]), 10) + 0.0
        # small integer codes in the order of the leaks keep the key table narrow
        values, table = np.unique(leaks, return_inverse=True)
        table = table.astype(np.min_scalar_type(len(values) - 1))
        enumerated = ranks

    classes: dict[int, np.ndarray] = {}  # rank -> the first basis of each class
    for p in enumerated:
        if (radix := (1 << p) + 1) ** len(values) <= 1 << 63:
            key_fn = partial(_enumerator_keys, radix ** table.astype(np.int64))
        else:
            key_fn = partial(_sorted_row_keys, table)
        # equal keys mean equal leak multisets; over the batches in order, a key's first row is its first subgroup
        keys, bases = [], []
        for pivots in combinations(range(n), p):
            for elements in _pivotset_batches(n, pivots):
                batch_keys, first = _first_of_keys(key_fn(elements))
                keys.append(batch_keys)
                bases.append(elements[first[:, None], 1 << np.arange(p)])
        classes[p] = np.concatenate(bases)[_first_of_keys(np.concatenate(keys))[1]]

    distinct_counts, representatives = {}, []
    for p in ranks:
        dual = p not in classes
        bases = classes[n - p if dual else p]
        distinct_counts[p] = len(bases)
        if with_representatives:
            bases = np.array([_dual_basis(n, b) for b in bases.tolist()]) if dual else bases
            codes = np.sort(table[_span_rows(bases)], axis=1)
            # classes have distinct code rows, so the rows alone order them
            order = np.lexsort(codes.T[::-1])
            scaled, masks = (values[codes[order]].tolist() if p else [[n]]), bases[order].tolist()
            representatives += [{"rank": p, "scaled_distribution": s, "basis_masks": b} for s, b in zip(scaled, masks)]

    return LeakCensusReport(n, uniform, {p: gaussian_binomial(n, p) for p in ranks}, distinct_counts, representatives)


def _partitions(n: int, largest: int | None = None) -> Iterator[tuple[int, ...]]:
    """Integer partitions of n with parts in non-increasing order."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def _submodule_poly(lam: list[int], q: int, degree: int) -> np.ndarray:
    """Submodules of a module of type lam over a DVR with q-element residue field, by F_2-rank.

    Birkhoff's count of submodules of type mu, in the conjugates lam' and mu',
    is alpha_lam(mu; q) = prod_i q^(mu'_(i+1) (lam'_i - mu'_i)) [lam'_i - mu'_(i+1), mu'_i - mu'_(i+1)]_q;
    a submodule of type mu has F_2-rank degree * |mu|.
    """
    lam_c = [sum(part > i for part in lam) for i in range(max(lam))]
    poly = np.zeros(degree * sum(lam) + 1, dtype=object)
    for size in range(sum(lam) + 1):
        # mu lies inside lam exactly when mu' lies inside lam'
        for mu_c in _partitions(size, lam_c[0]):
            if len(mu_c) <= len(lam_c) and all(a <= l for a, l in zip(mu_c, lam_c)):
                poly[degree * size] += prod(
                    q ** (b * (l - a)) * gaussian_binomial(l - b, a - b, q)
                    for l, a, b in zip(lam_c, mu_c, mu_c[1:] + (0,))
                )
    return poly


def _fixed_by_cycle_type(parts: tuple[int, ...]) -> np.ndarray:
    """Subgroups fixed by a permutation with the given cycle lengths, by rank.

    The permutation makes F_2^n the F_2[x]-module of the F_2[x]/(x^k - 1)
    over its cycles, and the fixed subgroups are the submodules. With
    k = 2^a m, m odd, x^k - 1 = (x^m - 1)^(2^a), and for each odd d | m the
    cyclotomic Phi_d splits into phi(d)/o irreducibles of degree
    o = ord_d(2). Each of those has a primary part over a DVR with 2^o
    residues, of type lam_d: one part 2^a for each cycle with d | m. A
    submodule is one submodule of every primary part.
    """
    odd = [k >> two_adic_valuation(k) for k in parts]
    poly = np.ones(1, dtype=object)
    for d in range(1, max(odd, default=0) + 1, 2):
        lam = [k // m for k, m in zip(parts, odd) if m % d == 0]
        if not lam:
            continue
        order = next(o for o in range(1, d + 1) if pow(2, o, d) == 1 % d)
        factor = _submodule_poly(lam, 1 << order, order)
        for _ in range(sum(gcd(j, d) == 1 for j in range(d)) // order):
            poly = np.convolve(poly, factor)
    return poly


def orbit_counts(n: int, rank: int | None = None) -> dict[int, int]:
    """Number of subgroups up to permutation of the coordinates, by rank.

    Sign-flip subgroups are the binary linear codes of length n, and this
    counts them up to equivalence (Slepian 1960). By MacWilliams'
    extension theorem (1963) two subgroups lie in one class exactly when a
    group isomorphism between them keeps every element's leak, so a class
    is one test up to relabelling the observations. Burnside's lemma over
    the cycle types of S_n gives the count exactly, with the subgroups a
    permutation fixes counted in closed form by Birkhoff's formula for
    submodules (Birkhoff 1935; L. M. Butler, Mem. AMS 539, 1994). A
    permutation fixes a subgroup iff it fixes its orthogonal complement,
    so rank p and rank n - p have equally many classes; the two are
    computed independently. The count applies to the uniform direction,
    whose leaks are invariant under every coordinate permutation.

    The project summary does not say which count "leak census" means;
    ``leak_census`` counts the coarser distinct leak multisets. Equivalent
    subgroups share their multiset, so that count is never larger. The
    two agree up to n = 5 (6 classes at n = 4, rank 2) and first differ
    at n = 6, rank 3 (22 classes against 21 multisets). For n = 9 this
    gives 240 at rank 4 and 848 in total, the figures acceptance
    criterion 02 states, against 210 and 768 distinct multisets; that
    match is the evidence for reading the census figures as orbit counts.
    The totals for n = 4..8 are 16, 32, 68, 148 and 342.
    """
    if rank is not None and not 0 <= rank <= n:
        raise ValueError(f"rank {rank} outside [0, {n}]")
    ranks = [rank] if rank is not None else list(range(n + 1))
    weighted = np.zeros(n + 1, dtype=object)
    for parts in _partitions(n):
        # each cycle type stands for n!/centralizer permutations
        centralizer = prod(k ** parts.count(k) * factorial(parts.count(k)) for k in set(parts))
        weighted += factorial(n) // centralizer * _fixed_by_cycle_type(parts)
    orbits = {}
    for p in ranks:
        orbits[p], rest = divmod(weighted[p], factorial(n))
        assert rest == 0, "Burnside sum not divisible by n!"
    return orbits


def oracle_census(n: int) -> list[int]:
    """Orders of zero-leak subgroups (uniform direction), in closed form.

    Zero leak means every non-identity element flips exactly n/2
    coordinates, i.e. a binary linear code with one nonzero weight. By
    Bonisoli's theorem such a code of dimension k is a replicated simplex
    code, which exists iff 2^k divides n. The trivial subgroup always
    counts.
    """
    return [1 << k for k in range(two_adic_valuation(n) + 1)]
