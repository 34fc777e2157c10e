"""Constructors for oracle and near-oracle subgroups.

Covers four routes to low-leak transformation sets:

* an explicit alternating-block (Walsh pattern) construction giving
  zero-leak sign-flip subgroups of order 2^k whenever 2^k divides n;
* a seeded greedy search that repeatedly doubles a subgroup while
  minimizing the leak, for orders where no exact construction exists;
* a cyclic-shift-plus-reflection construction of zero-leak subgroups of
  the full orthogonal group, for any order up to n;
* the reduction of the balanced two-sample comparison to sign-flipping,
  producing the matrix representation of a zero-leak permutation
  subgroup.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .flipcore import (
    SignFlipElement,
    SignFlipSubgroup,
    bits_to_masks,
    distinct_masks,
    extend,
    masks_to_bits,
    masks_to_words,
    subgroup_from_basis_masks,
    words_to_masks,
)
from .leak import Direction, MatrixRepresentation, matrix_representation
from .testkit import _TEMP_BYTES


#: candidates scored per numpy batch, at most; fewer where their temporary would pass _TEMP_BYTES
_CHUNK = 1 << 13


class InfeasibleOrderError(ValueError):
    """The requested subgroup order cannot be achieved."""


def two_adic_valuation(n: int) -> int:
    """Multiplicity of 2 in the prime factorization of n."""
    if n < 1:
        raise ValueError("n must be positive")
    return (n & -n).bit_length() - 1


def _walsh_mask(n: int, j: int) -> int:
    """Alternating sign-blocks of length n / 2^j: bit i set iff block index odd."""
    return bits_to_masks([(np.arange(n) // (n >> j)) & 1])[0]


def oracle_signflip(n: int, k: int) -> SignFlipSubgroup:
    """Zero-leak sign-flip subgroup of order 2^k for the uniform direction.

    Exists iff k does not exceed the number of 2s in the prime
    factorization of n. Every non-identity element flips exactly half the
    coordinates, so its leak is exactly zero.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    l = two_adic_valuation(n)
    if k > l:
        raise InfeasibleOrderError(
            f"no zero-leak subgroup of order 2^{k} for n={n}: "
            f"the order is capped at 2^{l} by the prime factorization of n"
        )
    return subgroup_from_basis_masks(n, [_walsh_mask(n, j) for j in range(1, k + 1)])


def coset_minima(words: np.ndarray, rows: tuple[int, ...]) -> np.ndarray:
    """Reduce each mask r of a (count, words) array, in place, to the smallest mask of r S; returns the array.

    ``rows`` is S's ``canonical_rows``, whose highest bits are distinct; each, highest first, is
    XOR-ed into the masks that hold its highest bit.
    """
    for b in reversed(rows):
        top = b.bit_length() - 1
        words[words[:, top >> 6] >> (top & 63) & 1 == 1] ^= masks_to_words([b], 64 * words.shape[1])
    return words


def _doubling_scores(n: int, objective: str, e_words: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """The int64 objective of S + rS for each candidate row r of words; ``e_words`` lists S, identity first."""
    own = n - 2 * np.bitwise_count(e_words[1:]).sum(axis=1, dtype=np.int64)  # S's own leaks
    scores = np.empty(len(candidates), dtype=np.int64)
    # one word of r ^ e, its popcount and the running flip counts take under 16 bytes per candidate and e
    chunk = max(1, min(_CHUNK, len(candidates), _TEMP_BYTES // (16 * len(e_words))))
    xor = np.empty((len(e_words), chunk), dtype=np.uint64)  # reused by each chunk
    for lo in range(0, len(candidates), chunk):
        words = candidates[lo : lo + chunk].T.copy()  # per chunk, so no transposed copy of every candidate
        flips = np.zeros((len(e_words), words.shape[1]), dtype=np.min_scalar_type(n))
        for w, row in enumerate(words):
            flips += np.bitwise_count(np.bitwise_xor(e_words[:, w, None], row, out=xor[:, : len(row)]))
        hi = np.maximum(n - 2 * flips.min(axis=0).astype(np.int64), own.max(initial=-n - 1))
        if objective == "delta_abs":
            hi = np.maximum(hi, np.maximum(2 * flips.max(axis=0).astype(np.int64) - n, -own.min(initial=n + 1)))
        scores[lo : lo + chunk] = hi
    return scores


def greedy_near_oracle(
    n: int,
    target_order: int,
    objective: str = "delta_abs",
    init: SignFlipSubgroup | None = None,
    candidate_budget: int = 100_000,
    seed=None,
) -> SignFlipSubgroup:
    """Greedy doubling search for a low-leak subgroup of a given order.

    Each round samples up to ``candidate_budget`` elements uniformly
    without replacement from the complement of the current subgroup,
    scores the doubled subgroup each would produce, and keeps an argmin of
    the objective ("delta" or "delta_abs", on the uniform direction). Ties
    are broken by the lexicographically smallest sorted element list of
    the doubled subgroup, so the result is deterministic given the seed.
    That is the candidate r whose coset r S holds the smallest mask, since
    both lists contain S and distinct cosets are disjoint. Candidates of
    one coset give the same subgroup, so ``coset_minima`` reduces the tied
    ones to their cosets' smallest masks and the smallest of those is kept.

    Candidates stay packed as ceil(n / 64) 64-bit words from the draw to
    the tie-break and are scored element-major: word w of every new element
    r ^ e is a chunk's word-w row XOR e_words[:, w, None], and the exact
    (|S|, chunk) flip counts, summed over the words, reduce along axis 0.
    """
    if objective not in ("delta", "delta_abs"):
        raise ValueError(f"unknown objective {objective!r}")
    if target_order < 1 or target_order & (target_order - 1):
        raise InfeasibleOrderError(f"target order {target_order} is not a power of two")
    if target_order > (1 << n):
        raise InfeasibleOrderError(f"target order {target_order} exceeds the group order 2^{n}")
    if candidate_budget < 1:
        raise ValueError("candidate budget must be positive")
    if init is None:
        init = oracle_signflip(n, min(two_adic_valuation(n), target_order.bit_length() - 1))
    if not isinstance(init, SignFlipSubgroup) or init.n != n:
        raise ValueError("init must be a sign-flip subgroup of matching dimension")
    if init.order > target_order:
        raise ValueError(f"init order {init.order} exceeds target {target_order}")

    rng = np.random.default_rng(seed)
    s = init
    while s.order < target_order:
        e_words = masks_to_words(s.element_masks(), n)
        candidates = distinct_masks(rng, n, 1, min(candidate_budget, (1 << n) - s.order), e_words)[0]
        scores = _doubling_scores(n, objective, e_words, candidates)
        leaders = coset_minima(candidates[scores == scores.min()], s.canonical_rows)
        del candidates, scores  # freed before the next round draws
        s = extend(s, SignFlipElement(n, words_to_masks(leaders[np.lexsort(leaders.T)[:1]])[0]))
    return s


def oracle_orthogonal(n: int, p: int, iota: Direction) -> MatrixRepresentation:
    """Matrix representation of a zero-leak orthogonal subgroup of order p.

    The cyclic shift group on the first p coordinates has zero leak with
    respect to e_1; conjugating by the reflection that exchanges e_1 and
    iota transports it to the requested direction. The returned columns
    are p orthonormal vectors with column 0 equal to iota.
    """
    if not 1 <= p <= n:
        raise InfeasibleOrderError(f"order p={p} must satisfy 1 <= p <= n={n}")
    if iota.n != n:
        raise ValueError(f"direction has n={iota.n}, expected {n}")
    v = np.eye(n)[0] - iota.coords  # the reflection exchanging e_1 and iota is I - 2 v v' / v'v
    vnorm2 = float(v @ v)
    q = np.eye(n) if vnorm2 < 1e-24 else np.eye(n) - 2.0 * np.outer(v, v) / vnorm2
    return MatrixRepresentation(n, p, q[:, :p])


def iota_two_sample(m1: int, m2: int) -> Direction:
    """Unit contrast direction for a two-sample mean comparison."""
    if m1 < 1 or m2 < 1:
        raise ValueError("both group sizes must be positive")
    return Direction(m1 + m2, np.repeat([1.0, -1.0], [m1, m2]) / math.sqrt(m1 + m2))


def two_sample_oracle(m1: int, m2: int, base: SignFlipSubgroup | None = None) -> MatrixRepresentation:
    """Matrix representation of a zero-leak permutation subgroup for two samples.

    ``base`` must be a zero-leak sign-flip subgroup for the uniform
    direction that contains the element negating exactly the second
    sample. Dropping that element from a maximal subgroup halves the
    order; the remaining columns, read against the two-sample contrast
    direction, are the images of iota under a permutation subgroup whose
    non-identity elements all have exactly zero leak.
    """
    if m1 != m2:
        raise ValueError(f"group sizes must match, got {m1} and {m2}")
    n = m1 + m2
    iota = iota_two_sample(m1, m2)
    if base is None:
        base = oracle_signflip(n, two_adic_valuation(n))
    if base.n != n:
        raise ValueError(f"base subgroup has n={base.n}, expected {n}")
    if any(2 * e.bit_count() != n for e in base.element_masks()[1:]):
        raise ValueError("base must be a zero-leak subgroup for the uniform direction")

    r_star = ((1 << n) - 1) ^ ((1 << m1) - 1)  # negate the second sample
    star = SignFlipElement(n, r_star)
    if star not in base:
        raise ValueError("base contains no element matching the two-sample split")

    # only the reduced echelon row with pivot q has bit q, so the other rows span the base elements with
    # bit q clear, q the lowest pivot r_star sets: a maximal subgroup avoiding r_star
    q = min(low for b in base.basis if r_star & (low := b.mask & -b.mask)).bit_length() - 1
    sub = subgroup_from_basis_masks(n, [b.mask for b in base.basis if not b.mask >> q & 1])
    if sub.order == 1:
        warnings.warn(
            "only the trivial subgroup avoids the two-sample split element; "
            "a non-trivial construction needs m1 = m2 even",
            stacklevel=2,
        )
    rep = matrix_representation(sub, iota)
    # entries are +-1/sqrt(n), so a column is a rearrangement of the contrast (a permutation
    # image of iota) iff n / 2 of them are positive; the base check above gave zero leak
    positive = masks_to_bits(sub.element_masks()[1:], n) == (iota.coords < 0)
    bad = np.flatnonzero(2 * positive.sum(axis=1) != n)
    if len(bad):
        raise AssertionError(f"column {bad[0] + 1} is not a rearrangement of the contrast")
    return rep
