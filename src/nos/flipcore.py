"""Exact algebra of the sign-flipping group and its subgroups over GF(2).

A sign-flipping transformation of R^n is a diagonal matrix with entries in
{-1, +1}. We store it as an n-bit mask (bit i set <=> coordinate i is
negated), so composition is bitwise XOR and every element is its own
inverse. Subgroups are exactly the GF(2)-linear subspaces of the mask
space. A subgroup is stored as its reduced echelon basis, which is unique
per subspace, so equality of subgroups is equality of bases; its elements,
sorted by mask value with the identity first, are derived from the basis
by the one XOR doubling, ``_span_rows``, which also broadcasts the census's
basis row values into batches of elements.

Masks are plain Python integers, which covers any n. Code that handles
many masks at once holds them as arrays of ceil(n / 64) little-endian
64-bit words per mask, or as per-coordinate bit arrays. The functions
``masks_to_words``, ``words_to_masks``, ``masks_to_bits``,
``bits_to_words`` and ``bits_to_masks`` are the one codec between the
three forms, with words as the hub, and ``mask_keys`` gives each word row
a 1-D sortable key for sorting and deduplication. Random masks are drawn
in the word form by the one sampler, ``random_masks`` (with replacement)
and ``distinct_masks`` (without replacement, outside a set of masks).
A subgroup of order 2^k also has a k-bit signature per coordinate i (bit b
set iff element 2^b flips i), read from its k canonical rows; element j
flips i iff popcount(j & sig_i) is odd. The one transform, ``_walsh_hadamard``, gives sum_i (-1)^popcount(j & sig_i) w_i
for every j at once; representations, leaks and test statistics use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np


class DimensionMismatchError(ValueError):
    """Operands live in different ambient dimensions."""


@dataclass(frozen=True)
class SignFlipElement:
    """One sign-flipping transformation: bit i of ``mask`` negates coordinate i."""

    n: int
    mask: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"dimension must be positive, got {self.n}")
        if not 0 <= self.mask < (1 << self.n):
            raise ValueError(f"mask {self.mask:#x} does not fit in {self.n} bits")

    @property
    def is_identity(self) -> bool:
        return self.mask == 0

    def signs(self) -> tuple[int, ...]:
        """The diagonal of the matrix, as a tuple of +1/-1."""
        return tuple(-1 if (self.mask >> i) & 1 else 1 for i in range(self.n))

    def flip_count(self) -> int:
        """Number of negated coordinates."""
        return self.mask.bit_count()

    def apply(self, x):
        """Apply the transformation to a length-n vector, returning a list."""
        if len(x) != self.n:
            raise DimensionMismatchError(f"vector length {len(x)} != n {self.n}")
        return [-v if (self.mask >> i) & 1 else v for i, v in enumerate(x)]


def identity(n: int) -> SignFlipElement:
    return SignFlipElement(n, 0)


def negation(n: int) -> SignFlipElement:
    """The element -I (all coordinates negated)."""
    return SignFlipElement(n, (1 << n) - 1)


def element_from_signs(signs: Sequence[int]) -> SignFlipElement:
    """Encode a list of +1/-1 diagonal entries as a SignFlipElement."""
    if len(signs) == 0:
        raise ValueError("signs must be nonempty")
    mask = 0
    for i, s in enumerate(signs):
        if s == -1:
            mask |= 1 << i
        elif s != 1:
            raise ValueError(f"entry {s!r} at position {i} is not +1 or -1")
    return SignFlipElement(len(signs), mask)


def compose(a: SignFlipElement, b: SignFlipElement) -> SignFlipElement:
    """Group composition: XOR of masks."""
    if a.n != b.n:
        raise DimensionMismatchError(f"cannot compose n={a.n} with n={b.n}")
    return SignFlipElement(a.n, a.mask ^ b.mask)


def masks_to_words(masks, n: int) -> np.ndarray:
    """(len, ceil(n / 64)) array of little-endian 64-bit words holding each Python-int mask."""
    width = 8 * ((n + 63) // 64)
    buf = b"".join(int(m).to_bytes(width, "little") for m in masks)
    return np.frombuffer(buf, dtype="<u8").reshape(-1, width // 8)


def words_to_masks(words: np.ndarray) -> list[int]:
    """Inverse of ``masks_to_words`` for a (rows, words) array: one Python int per row."""
    words = np.ascontiguousarray(words, dtype="<u8")
    width = 8 * words.shape[-1]
    buf = words.tobytes()
    return [int.from_bytes(buf[i : i + width], "little") for i in range(0, len(buf), width)]


def mask_keys(words: np.ndarray) -> np.ndarray:
    """One sortable key per mask of a (..., words) array: the word itself, or the row's bytes.

    Equal keys mean equal masks. Multi-word keys compare as byte strings, so
    their order is a fixed total order but not the numeric one.
    """
    if words.shape[-1] == 1:
        return words[..., 0]
    return np.ascontiguousarray(words).view(f"S{8 * words.shape[-1]}")[..., 0]


def masks_to_bits(masks, n: int) -> np.ndarray:
    """Bit i of every mask, True where coordinate i is negated.

    ``masks`` is a sequence of Python ints, giving a (len, n) array, or an
    integer array whose last axis holds each mask as ceil(n / 64)
    little-endian 64-bit words, giving shape ``masks.shape[:-1] + (n,)``.
    """
    if not isinstance(masks, np.ndarray):
        masks = masks_to_words(masks, n)
    raw = np.ascontiguousarray(masks, dtype="<u8").view(np.uint8)
    return np.unpackbits(raw, axis=-1, count=n, bitorder="little").view(bool)


def bits_to_words(bits) -> np.ndarray:
    """Inverse of ``masks_to_bits`` for a (..., n) array of bits (nonzero = set): (..., ceil(n / 64)) words."""
    packed = np.packbits(np.asarray(bits, dtype=bool), axis=-1, bitorder="little")
    pad = -packed.shape[-1] % 8
    if pad:
        packed = np.concatenate([packed, np.zeros(packed.shape[:-1] + (pad,), dtype=np.uint8)], axis=-1)
    return packed.view("<u8")


def bits_to_masks(bits) -> list[int]:
    """Inverse of ``masks_to_bits`` for a (rows, n) bit array: one Python int per row."""
    return words_to_masks(bits_to_words(bits))


def random_masks(rng: np.random.Generator, n: int, shape) -> np.ndarray:
    """Uniform n-bit masks drawn with replacement: a ``shape + (ceil(n / 64),)`` array of words."""
    tops = [(1 << min(64, n - lo)) - 1 for lo in range(0, n, 64)]  # largest value of each word
    high = tops[0] if len(tops) == 1 else np.array(tops, dtype=np.uint64)
    return rng.integers(0, high, size=tuple(shape) + (len(tops),), dtype=np.uint64, endpoint=True)


def _repeats(keys: np.ndarray):
    """Sorted flat indices of the entries of a (rows, width) key array that repeat an earlier one of their row.

    Also returns the rows that hold repeats, every row's sorted keys, and the flat indices of
    those rows' entries in key order, where each run of equal keys starts with its earliest.
    """
    srt = np.sort(keys, axis=1)
    later = np.zeros((len(keys), keys.shape[1] + 1), dtype=bool)  # sorted slot equal to the slot before
    later[:, 1:-1] = srt[:, 1:] == srt[:, :-1]
    if not later.any():
        return np.empty(0, dtype=np.intp), None, None, None
    hit = np.flatnonzero(later.any(axis=1))
    first, later = np.argsort(keys[hit] if len(hit) < len(keys) else keys, axis=1), later[hit]
    first += hit[:, None] * keys.shape[1]  # flat indices in key order, equal keys in any order
    run, lead = later[:, :-1] | later[:, 1:], later[:, 1:] & ~later[:, :-1]  # runs of equal keys, first slots
    members, first[lead] = first[run], np.minimum.reduceat(first[run], np.flatnonzero(lead[run]))
    return np.sort(members[members != first[lead][np.cumsum(lead[run]) - 1]]), hit, srt, first


def distinct_masks(rng: np.random.Generator, n: int, rows: int, draws: int, exclude: np.ndarray) -> np.ndarray:
    """(rows, draws, ceil(n / 64)) words: per row, ``draws`` distinct masks outside ``exclude``.

    ``exclude`` holds distinct masks as word rows. Each row is a uniform
    sample without replacement from the other 2^n - len(exclude) masks, in
    draw order. The excluded masks are written in front of every row, so an
    excluded draw repeats an earlier entry; entries that repeat one are
    redrawn in row-major order, and only those. Which entries they are
    depends only on the pattern of equalities, which a relabelling of the
    allowed masks (fixing the excluded ones) leaves unchanged, so the
    result is uniform. The first check sorts each row's keys once; as the
    entries it keeps are distinct, later checks search only redrawn keys in
    those sorted rows. When over half of the allowed masks are drawn, each
    row is a prefix of a random permutation of them, so no loop runs long.
    """
    allowed = (1 << n) - len(exclude)
    if draws > allowed:
        raise ValueError(f"cannot draw {draws} distinct masks from the {allowed} allowed in dimension {n}")
    if 2 * draws > allowed:
        pool = np.delete(np.arange(1 << n, dtype=np.uint64), exclude[:, 0].astype(np.intp))
        return rng.permuted(np.tile(pool, (rows, 1)), axis=1)[:, :draws, None]
    head, width = len(exclude), len(exclude) + draws
    words = np.empty((rows, width, exclude.shape[1]), dtype=np.uint64)
    words[:, :head], words[:, head:] = exclude, random_masks(rng, n, (rows, draws))
    keys = mask_keys(words).reshape(-1)  # a view: it sees every redraw
    redo, hit, srt, first = _repeats(keys.reshape(rows, width))
    done = redo[:0]
    while len(redo):
        words.reshape(-1, words.shape[2])[redo] = random_masks(rng, n, (len(redo),))
        done = np.concatenate([done, redo])  # every entry redrawn so far, some more than once
        row, q, lo, hi = done // width, keys[done], np.zeros_like(done), np.full(len(done), width - 1)
        for _ in range(width.bit_length()):  # lo becomes the leftmost slot of q in its row of srt, if any
            right = srt[row, (mid := (lo + hi) >> 1)] < q
            lo, hi = np.where(right, np.minimum(mid + 1, hi), lo), np.where(right, hi, mid)
        near = np.concatenate([done, first[np.searchsorted(hit, row), lo][srt[row, lo] == q]])  # and kept entries
        rank = np.searchsorted(np.sort(keys[near]), keys[near])  # equal for equal keys only
        rank, near = np.divmod(np.sort(rank * keys.size + near), keys.size)  # by key, then flat index
        same = (rank[1:] == rank[:-1]) & (near[1:] // width == near[:-1] // width) & (near[1:] != near[:-1])
        redo = np.sort(near[1:][same])  # in each group of equal keys in a row, all but the earliest entry
        done = done[np.bincount(redo // width, minlength=rows)[done // width] > 0]  # rows with redraws stay live
    return words[:, head:]


def _rref_basis(masks: Iterable[int], highest: bool = False) -> list[int]:
    """Reduced echelon basis of the span of ``masks``, pivot = lowest set bit (highest with ``highest``).

    Each basis vector's pivot bit is cleared from every other basis vector,
    so the basis is unique per subspace. Returned sorted by pivot.
    """
    basis: dict[int, int] = {}  # pivot bit index -> mask
    for m in masks:
        v = m
        # eliminate every existing pivot bit from the incoming vector; one
        # pass suffices because no basis vector carries another's pivot
        for q, b in basis.items():
            if (v >> q) & 1:
                v ^= b
        if v == 0:
            continue
        p = v.bit_length() - 1 if highest else (v & -v).bit_length() - 1
        # clear bit p from existing vectors to keep the basis reduced
        for q, b in basis.items():
            if (b >> p) & 1:
                basis[q] = b ^ v
        basis[p] = v
    return [basis[p] for p in sorted(basis)]


def _walsh_hadamard(b: np.ndarray) -> np.ndarray:
    """Entry j is sum_s (-1)^popcount(j & s) b[s] for len(b) = 2^k; stage t signs index bit t. Overwrites b."""
    out, h = np.empty_like(b), len(b) // 2
    for _ in range(len(b).bit_length() - 1):
        np.add(b[0::2], b[1::2], out=out[:h])
        np.subtract(b[0::2], b[1::2], out=out[h:])
        b, out = out, b
    return b


def _span_rows(rows) -> np.ndarray:
    """The (K, 2^p) elements spanned by K sets of p basis rows: column i is the XOR of the rows at the set bits of i.

    ``rows`` is a (K, p) array, or a list of p >= 1 arrays that broadcast to one batch shape of K
    entries, taken in C order. Integer rows give fixed-width masks; ``dtype=object`` rows hold
    Python-int masks of any n.
    """
    if isinstance(rows, np.ndarray):
        shape, dtype, rows = rows.shape[:1], rows.dtype, list(rows.T)
    else:
        shape, dtype = np.broadcast(*rows).shape, rows[0].dtype
    # filled as the transpose, so that each column is one contiguous row; the last row first, so the
    # rows that vary along the batch's slow axes, whose XORs run in long inner loops, fill the most columns
    columns = np.zeros((1 << len(rows),) + shape, dtype=dtype)
    for j in reversed(range(len(rows))):
        np.bitwise_xor(columns[:: 2 << j], rows[j], out=columns[1 << j :: 2 << j])
    return columns.reshape(len(columns), -1).T


@dataclass(frozen=True)
class SignFlipSubgroup:
    """A subgroup of the sign-flipping group: a GF(2)-linear subspace of masks.

    Stored as its reduced echelon ``basis``, unique per subspace, so two
    subgroups are equal iff their n and bases are; the rest is derived when
    first read. The canonical rows, the echelon basis by highest bit, have
    distinct highest bits cleared from each other, so the XOR of the rows at
    the set bits of j grows with j: their span in index order is the
    ascending element list, and element j flips coordinate i iff
    popcount(j & signatures[i]) is odd.
    """

    n: int
    basis: tuple[SignFlipElement, ...]

    def __post_init__(self):
        if self.n < 1 or any(b.n != self.n for b in self.basis):
            raise DimensionMismatchError(f"need n >= 1 and basis elements of that n, got n={self.n}")
        masks = [b.mask for b in self.basis]
        if _rref_basis(masks) != masks:
            raise ValueError("basis must be the reduced echelon basis of its span, sorted by pivot")

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def order(self) -> int:
        return 1 << self.rank

    @cached_property
    def canonical_rows(self) -> tuple[int, ...]:
        """Elements 1, 2, 4, ... of the ascending element list: the highest-pivot reduced echelon basis."""
        return tuple(_rref_basis((b.mask for b in self.basis), highest=True))

    @cached_property
    def signatures(self) -> np.ndarray:
        """Read-only (n,) ints: bit b of entry i is set iff canonical row b flips coordinate i."""
        sig = masks_to_bits(self.canonical_rows, self.n).T @ (1 << np.arange(self.rank))
        sig.flags.writeable = False
        return sig

    @cached_property
    def elements(self) -> tuple[SignFlipElement, ...]:
        """All 2^rank members, the identity first and masks in ascending order."""
        return tuple(SignFlipElement(self.n, m) for m in self.element_masks())

    def __contains__(self, r: SignFlipElement) -> bool:
        v = r.mask
        for b in reversed(self.canonical_rows):
            v = min(v, v ^ b)  # clears b's highest bit, which no later row holds
        return r.n == self.n and v == 0

    def element_masks(self) -> list[int]:
        """The masks of ``elements``, as a new list: the span of the canonical rows."""
        return _span_rows(np.array([self.canonical_rows], dtype=object))[0].tolist()


def span(generators: Sequence[SignFlipElement], n: int | None = None) -> SignFlipSubgroup:
    """Smallest subgroup containing all generators.

    ``n`` is required when ``generators`` is empty (the trivial subgroup).
    """
    if not generators and n is None:
        raise ValueError("empty generator list requires an explicit n")
    dims = {g.n for g in generators}
    if len(dims) > 1:
        raise DimensionMismatchError(f"generators mix dimensions {sorted(dims)}")
    dim = dims.pop() if dims else n
    if n is not None and n != dim:
        raise DimensionMismatchError(f"generators have n={dim}, expected {n}")
    return SignFlipSubgroup(dim, tuple(SignFlipElement(dim, b) for b in _rref_basis(g.mask for g in generators)))


def subgroup_from_basis_masks(n: int, basis_masks: Sequence[int]) -> SignFlipSubgroup:
    """Build a subgroup from raw basis masks (reduced on the way in)."""
    return span([SignFlipElement(n, m) for m in basis_masks], n=n)


def extend(s: SignFlipSubgroup, r: SignFlipElement) -> SignFlipSubgroup:
    """The subgroup generated by ``s`` and one extra element.

    Doubles the order when ``r`` is not already a member; otherwise returns
    a subgroup equal to ``s``.
    """
    if r.n != s.n:
        raise DimensionMismatchError(f"element n={r.n} does not match subgroup n={s.n}")
    return span(list(s.basis) + [r], n=s.n)


def is_subgroup(elements: Sequence[SignFlipElement]) -> bool:
    """True iff the set contains the identity and is closed under composition."""
    if not elements:
        raise ValueError("element list must be nonempty")
    dims = {e.n for e in elements}
    if len(dims) > 1:
        raise DimensionMismatchError(f"elements mix dimensions {sorted(dims)}")
    masks = {e.mask for e in elements}
    # the set lies in its span, which has 2^rank elements, so equal sizes mean set == span
    return len(masks) == 1 << len(_rref_basis(masks))


def full_group(n: int) -> SignFlipSubgroup:
    """The entire sign-flipping group (order 2^n); intended for small n."""
    if n > 20:
        raise ValueError(f"refusing the full group at n={n} > 20: its leak summary and representation hold 2^n bins")
    return subgroup_from_basis_masks(n, [1 << i for i in range(n)])
