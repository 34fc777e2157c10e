"""Group algebra of sign-flip elements and subgroups."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nos.construct import greedy_near_oracle
from nos.flipcore import (
    DimensionMismatchError,
    SignFlipElement,
    _repeats,
    bits_to_masks,
    bits_to_words,
    compose,
    distinct_masks,
    element_from_signs,
    extend,
    full_group,
    identity,
    is_subgroup,
    masks_to_bits,
    mask_keys,
    masks_to_words,
    negation,
    random_masks,
    span,
    subgroup_from_basis_masks,
    words_to_masks,
)
from nos.testkit import Dataset, mc_signflip_test


def test_element_basics():
    e = SignFlipElement(4, 0b0101)
    assert e.signs() == (-1, 1, -1, 1)
    assert e.flip_count() == 2
    assert e.apply([1.0, 2.0, 3.0, 4.0]) == [-1.0, 2.0, -3.0, 4.0]
    assert identity(4).is_identity
    assert negation(4).mask == 0b1111


def test_element_validation():
    with pytest.raises(ValueError):
        SignFlipElement(0, 0)
    with pytest.raises(ValueError):
        SignFlipElement(2, 4)
    with pytest.raises(ValueError):
        element_from_signs([1, 0])
    with pytest.raises(DimensionMismatchError):
        compose(identity(2), identity(3))


def test_element_from_signs_roundtrip():
    e = element_from_signs([-1, 1, 1, -1, -1])
    assert e.mask == 0b11001
    assert element_from_signs(e.signs()) == e


def test_compose_is_xor_and_self_inverse():
    a = SignFlipElement(3, 0b011)
    b = SignFlipElement(3, 0b110)
    assert compose(a, b).mask == 0b101
    assert compose(a, a).is_identity


def test_span_trivial():
    s = span([], n=3)
    assert s.order == 1 and s.rank == 0
    assert s.elements[0].is_identity
    with pytest.raises(ValueError):
        span([])


def test_span_canonical_order():
    s = subgroup_from_basis_masks(3, [0b110, 0b011])
    assert s.element_masks() == [0b000, 0b011, 0b101, 0b110]
    assert s.rank == 2 and s.order == 4


def test_span_deduplicates_dependent_generators():
    s = subgroup_from_basis_masks(4, [0b0011, 0b0101, 0b0110])
    assert s.rank == 2  # third generator is the XOR of the first two


def test_canonical_basis_is_representation_independent():
    a = subgroup_from_basis_masks(5, [0b00111, 0b11100])
    b = subgroup_from_basis_masks(5, [0b11011, 0b00111])
    assert a == b


def test_contains_and_extend():
    s = subgroup_from_basis_masks(4, [0b1111])
    assert SignFlipElement(4, 0b1111) in s
    assert SignFlipElement(4, 0b0111) not in s
    bigger = extend(s, SignFlipElement(4, 0b0011))
    assert bigger.order == 4
    assert extend(s, SignFlipElement(4, 0b1111)) == s
    with pytest.raises(DimensionMismatchError):
        extend(s, SignFlipElement(3, 0b111))


def test_is_subgroup():
    good = [SignFlipElement(2, m) for m in (0, 1, 2, 3)]
    assert is_subgroup(good)
    assert not is_subgroup([SignFlipElement(2, 1)])  # no identity
    assert not is_subgroup([SignFlipElement(2, m) for m in (0, 1, 2)])  # not closed


def test_is_subgroup_matches_pairwise_closure():
    # every subset of the 3-bit masks, once as a set and once with its first element repeated
    for subset in range(1 << 8):
        masks = [m for m in range(8) if subset >> m & 1]
        if not masks:
            continue
        closed = 0 in masks and all(a ^ b in masks for a in masks for b in masks)
        for listed in (masks, masks + masks[:1]):
            assert is_subgroup([SignFlipElement(3, m) for m in listed]) == closed, listed


def test_full_group():
    g = full_group(3)
    assert g.order == 8 and g.rank == 3
    assert is_subgroup(list(g.elements))
    with pytest.raises(ValueError):
        full_group(21)


@settings(max_examples=100)
@given(
    n=st.integers(min_value=1, max_value=10),
    data=st.data(),
)
def test_span_is_closed_and_canonical(n, data):
    gens = data.draw(
        st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), min_size=1, max_size=4)
    )
    s = subgroup_from_basis_masks(n, gens)
    masks = s.element_masks()
    mask_set = set(masks)
    assert masks[0] == 0
    assert masks == sorted(masks)
    assert len(mask_set) == s.order == 1 << s.rank
    for a in masks:
        for b in masks:
            assert a ^ b in mask_set
    for g in gens:
        assert SignFlipElement(n, g) in s


@settings(max_examples=60)
@given(n=st.integers(min_value=1, max_value=200), data=st.data())
def test_mask_bit_codec_roundtrip(n, data):
    masks = data.draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=8))
    bits = masks_to_bits(masks, n)
    assert bits.shape == (len(masks), n) and bits.dtype == bool
    signs = (1 - 2 * bits.astype(int)).tolist()
    assert [SignFlipElement(n, m).signs() for m in masks] == [tuple(r) for r in signs]
    assert bits_to_masks(bits) == masks
    words = [[(m >> lo) & (2**64 - 1) for lo in range(0, n, 64)] for m in masks]
    words = np.array(words, dtype=np.uint64).reshape(len(masks), (n + 63) // 64)
    assert np.array_equal(masks_to_bits(words, n), bits)
    assert np.array_equal(masks_to_words(masks, n), words)
    assert np.array_equal(bits_to_words(bits), words)
    assert words_to_masks(words) == masks


@pytest.mark.parametrize("n", [3, 64, 100])
def test_random_masks_fill_exactly_n_bits(n):
    words = random_masks(np.random.default_rng(n), n, (50, 40))
    assert words.shape == (50, 40, (n + 63) // 64) and words.dtype == np.uint64
    masks = words_to_masks(words.reshape(-1, words.shape[-1]))
    assert max(masks) < 1 << n
    bits = masks_to_bits(words, n).reshape(-1, n)
    assert bits.any(axis=0).all() and not bits.all(axis=0).any()


@pytest.mark.parametrize("draws", [3, 7])
def test_distinct_masks_uniform_outside_a_subgroup(draws):
    # n = 4 without the rank-2 subgroup {0, 3, 5, 6} leaves 12 masks. 3 draws
    # take the redraw path, 7 the permutation path; every draws-subset of the
    # 12 must be equally likely, and no row may hold an excluded mask.
    n, rows = 4, 40_000
    excluded = subgroup_from_basis_masks(n, [0b0011, 0b0101]).element_masks()
    with pytest.raises(ValueError):
        distinct_masks(np.random.default_rng(draws), n, 1, 13, masks_to_words(excluded, n))
    words = distinct_masks(np.random.default_rng(draws), n, rows, draws, masks_to_words(excluded, n))
    assert words.shape == (rows, draws, 1)
    masks = words[..., 0].astype(np.int64)
    assert not np.isin(masks, excluded).any()
    assert np.all(np.diff(np.sort(masks, axis=1), axis=1) > 0)
    subsets = (1 << masks).sum(axis=1)  # a row's mask set as a 16-bit word
    freq = np.bincount(subsets, minlength=1 << 16) / rows
    p = 1 / math.comb(12, draws)
    assert np.count_nonzero(freq) == math.comb(12, draws)
    assert np.all(np.abs(freq[freq > 0] - p) <= 5 * math.sqrt(p * (1 - p) / rows))


def _reference_repeats(words):
    """The stable-argsort repeat finder the one-sort ``_repeats`` replaced, kept as its reference."""
    keys = mask_keys(words)
    order = np.argsort(keys, axis=1, kind="stable")  # equal keys keep their position order
    srt = np.take_along_axis(keys, order, axis=1)
    repeat = np.zeros(keys.shape, dtype=bool)
    np.put_along_axis(repeat, order[:, 1:], srt[:, 1:] == srt[:, :-1], axis=1)
    return repeat


def _reference_distinct_masks(rng, n, rows, draws, exclude):
    """The redraw loop that re-checked whole rows with ``_reference_repeats``.

    Also returns how many kept entries a redrawn earlier entry turned into
    repeats, so that a test can show that its case came up.
    """
    head = len(exclude)
    words = np.empty((rows, head + draws, exclude.shape[1]), dtype=np.uint64)
    words[:, :head] = exclude
    words[:, head:] = random_masks(rng, n, (rows, draws))
    redo, kept_hits = _reference_repeats(words), 0
    live = np.arange(rows)
    while redo.any():
        hit = redo.any(axis=1)
        live, redo = live[hit], redo[hit]
        sub = words[live]
        sub[redo] = random_masks(rng, n, (int(redo.sum()),))
        words[live] = sub
        redo, drawn = _reference_repeats(sub), redo
        kept_hits += int((redo & ~drawn).sum())
    return words[:, head:], kept_hits


def _heavy_duplicates(rng, n, shape, pool):
    """A shape + (words,) array of masks drawn from ``pool`` distinct ones.

    When there are several rows, row 0 holds distinct masks and row 1 one
    mask throughout. At n > 64 four of the masks differ only in their last
    word, and a third have zero upper words.
    """
    if n <= 20:
        values = masks_to_words(rng.permutation(1 << n)[:pool].tolist(), n)
    else:
        values = random_masks(rng, n, (pool,))
        values[:4, :-1], values[:4, -1] = values[0, :-1], np.arange(4)
        values[4 : pool // 3, 1:] = 0
    assert len(np.unique(values, axis=0)) == pool
    words = values[rng.integers(0, pool, size=shape)]
    if shape[0] > 1:
        words[0], words[1] = values[: shape[1]], values[0]
    return words


@pytest.mark.parametrize(
    "n,shape,pool",
    [(20, (1, 100_000), 60_000), (8, (4096, 20), 24), (8, (4096, 20), 128), (130, (50, 40), 60)],
)
def test_repeats_match_the_stable_argsort_reference(n, shape, pool):
    words = _heavy_duplicates(np.random.default_rng(n + pool), n, shape, pool)
    expected = _reference_repeats(words)
    redo, hit, srt, first = _repeats(mask_keys(words))
    assert np.array_equal(redo, np.flatnonzero(expected))
    assert np.array_equal(hit, np.flatnonzero(expected.any(axis=1)))
    assert expected.mean() > 0.05  # heavy duplication: at least one entry in twenty repeats
    if shape[0] > 1:  # a row without repeats, and a row of one repeated mask
        assert not expected[0].any() and not expected[1, 0] and expected[1, 1:].all()
    # every run of equal sorted keys is led by the flat index of its earliest entry
    keys, srt = mask_keys(words).reshape(-1), srt[hit]
    lead = np.ones(srt.shape, dtype=bool)
    lead[:, 1:] = srt[:, 1:] != srt[:, :-1]
    assert np.array_equal(keys[first[lead]], srt[lead])
    assert not expected.reshape(-1)[first[lead]].any()


class _SixtyFourMasks:
    """A generator whose masks take 64 values whatever their width, so that they collide often."""

    def __init__(self, seed):
        self.bit_generator = np.random.PCG64(seed)

    def integers(self, low, high, size, dtype, endpoint):
        per_word = round(64 ** (1 / size[-1]))  # size[-1] is the number of words per mask
        return np.random.Generator(self.bit_generator).integers(0, per_word, size=size).astype(dtype)


@pytest.mark.parametrize(
    "generator,n,rows,draws,excluded,later_kept",
    [
        (np.random.default_rng, 8, 4096, 19, [0], True),
        (np.random.default_rng, 4, 5000, 3, [0b0000, 0b0011, 0b0101, 0b0110], False),
        (np.random.default_rng, 20, 1, 100_000, [0, 1, 2, 3], True),
        (np.random.default_rng, 22, 3, 20_000, list(range(64)), False),
        (np.random.default_rng, 130, 50, 40, [0], False),
        # rows of 20 out of 64 masks redraw for several passes, with multi-word keys at n = 130
        (_SixtyFourMasks, 64, 50, 20, [0, 1, 2], True),
        (_SixtyFourMasks, 130, 50, 20, [0, 1, 1 << 64], True),
    ],
)
def test_distinct_masks_match_the_whole_row_redraw_loop(generator, n, rows, draws, excluded, later_kept):
    rng, ref_rng = generator(n), generator(n)
    got = distinct_masks(rng, n, rows, draws, masks_to_words(excluded, n))
    expected, kept_hits = _reference_distinct_masks(ref_rng, n, rows, draws, masks_to_words(excluded, n))
    assert np.array_equal(got, expected)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    if later_kept:  # a redrawn entry equalled a kept entry later in its row, which became the repeat
        assert kept_hits > 0


def test_seeded_sampler_streams_are_pinned():
    # integer outputs of both clients of the sampler: a change to how masks
    # are drawn moves them, and must update these figures on purpose
    greedy = {
        (24, 32, 0): [0x152B91, 0xE4C2A2, 0xE38E38, 0xFC0FC0, 0xFFF000],
        (24, 32, 1): [0x18CDA1, 0xE92512, 0xE38E38, 0xFC0FC0, 0xFFF000],
        (24, 32, 2): [0x18CD91, 0x0AAB32, 0xE38E38, 0xFC0FC0, 0xFFF000],
        (32, 64, 0): [0x3CCCF60A, 0xCCCCCCCC, 0x6696AC50, 0x96665CA0, 0xFF00FF00, 0xFFFF0000],
        (32, 64, 1): [0xAAAAAAAA, 0x6966F0CC, 0xF0F0F0F0, 0x5AAAC300, 0xA5AA3C00, 0xFFFF0000],
        (32, 64, 2): [0x5AB86041, 0xAAAAAAAA, 0xCCCCCCCC, 0xF0F0F0F0, 0xFF00FF00, 0xFFFF0000],
    }
    for (n, order, seed), basis in greedy.items():
        s = greedy_near_oracle(n, order, seed=seed)
        assert s.element_masks() == subgroup_from_basis_masks(n, basis).element_masks(), (n, order, seed)
    counts = [
        mc_signflip_test(
            Dataset.from_vector(np.random.default_rng(seed).standard_normal(n) + 0.3), 64, 0.05,
            replacement="with", seed=seed,
        ).exceed_count
        for n in (8, 32)
        for seed in range(5)
    ]
    assert counts == [2, 4, 16, 37, 17, 10, 2, 7, 8, 16]
