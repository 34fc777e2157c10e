"""Leak values, leak summaries, and matrix representations."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nos import construct, leak
from nos.construct import iota_two_sample, oracle_orthogonal, oracle_signflip, two_adic_valuation, two_sample_oracle
from nos.flipcore import SignFlipElement, full_group, masks_to_bits, subgroup_from_basis_masks
from nos.leak import (
    Direction,
    MatrixRepresentation,
    TrivialSubgroupError,
    delta_from_matrix,
    leak_summary,
    leak_value,
    matrix_representation,
    negate_closure,
)
from nos.testkit import Dataset, subgroup_test


def test_direction_validation():
    with pytest.raises(ValueError):
        Direction(2, np.array([1.0, 1.0]))  # not unit norm
    d = Direction.uniform(4)
    assert d.is_uniform
    assert np.allclose(d.coords, 0.5)
    nd = Direction.from_vector([3.0, 4.0], normalize=True)
    assert np.allclose(nd.coords, [0.6, 0.8])
    with pytest.raises(ValueError):
        Direction.from_vector([0.0, 0.0], normalize=True)


def test_non_finite_directions_and_columns_rejected():
    with pytest.raises(ValueError, match="finite"):
        Direction(4, np.array([0.5, np.nan, 0.5, 0.5]))
    with pytest.raises(ValueError, match="finite"):
        Direction.from_vector([1.0, np.nan], normalize=True)
    cols = np.eye(3)[:, :2]
    cols[1, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        MatrixRepresentation(3, 2, cols)


def test_direction_is_uniform_is_computed_once():
    d = Direction.uniform(4)
    assert "is_uniform" not in vars(d)
    assert d.is_uniform and vars(d)["is_uniform"] is True
    assert not Direction.from_vector([3.0, 4.0], normalize=True).is_uniform


def test_direction_is_immutable():
    d = Direction.uniform(3)
    with pytest.raises(ValueError):
        d.coords[0] = 2.0


def test_leak_value_uniform_is_exact():
    # flipping k of n coordinates gives (n - 2k)/n exactly
    for n in (2, 5, 9):
        iota = Direction.uniform(n)
        for mask in range(1 << n):
            e = SignFlipElement(n, mask)
            assert leak_value(e, iota) == (n - 2 * e.flip_count()) / n


def test_leak_value_general_direction():
    iota = Direction(3, np.array([0.6, 0.8, 0.0]))
    e = SignFlipElement(3, 0b001)  # flips the first coordinate
    assert leak_value(e, iota) == math.fsum([-0.6 * 0.6, 0.8 * 0.8, 0.0])


def _fsum_leaks(masks, iota):
    """iota' S iota per mask, each summed exactly with math.fsum: the reference for the leak kernel."""
    sq = iota.coords * iota.coords
    return [math.fsum(row) for row in np.where(masks_to_bits(masks, iota.n), -sq, sq)]


def _reference_summary(s, iota):
    """distribution, scaled distribution, delta and delta_abs; exact ints n - 2k on the uniform direction."""
    n = s.n
    if iota.is_uniform:
        scaled = [n - 2 * m.bit_count() for m in s.element_masks()]
        return [v / n for v in scaled], scaled, max(scaled[1:]) / n, max(abs(v) for v in scaled[1:]) / n
    dist = _fsum_leaks(s.element_masks(), iota)
    return dist, [n * v for v in dist], max(dist[1:]), max(abs(v) for v in dist[1:])


def _kernel_cases():
    rng = np.random.default_rng(17)
    for t in range(280):
        n = int(rng.integers(2, 131))
        s = _random_subgroup(rng, n, int(rng.integers(1, min(n, 7) + 1)))
        if s.order < 2:
            continue
        v = rng.standard_normal(n)
        if t % 4 == 1:
            v[rng.random(n) < 0.3] = 0.0  # zero coordinates
            v[0] = 1.0
        elif t % 4 == 2:
            v = np.abs(v)  # all positive
        yield s, Direction.uniform(n) if t % 4 == 3 else Direction.from_vector(v, normalize=True), False
    for n in list(range(4, 65, 2)) + [128, 192, 256]:  # the two-sample contrast against oracle subgroups
        yield oracle_signflip(n, two_adic_valuation(n)), iota_two_sample(n // 2, n // 2), True


def _hexes(vals):
    return [(type(v), float(v).hex()) for v in vals]


def test_leak_summary_equals_the_fsum_reference_bit_for_bit():
    cases = list(_kernel_cases())
    assert len(cases) >= 300
    for i, (s, iota, contrast) in enumerate(cases):
        summ = leak_summary(s, iota)
        dist, scaled, delta, delta_abs = _reference_summary(s, iota)
        assert _hexes(summ.distribution) == _hexes(dist), i
        assert _hexes(summ.scaled_distribution) == _hexes(scaled), i
        assert (summ.delta.hex(), summ.delta_abs.hex()) == (delta.hex(), delta_abs.hex()), i
        if contrast:
            assert summ.distribution[1:] == (0.0,) * (s.order - 1)  # the squares cancel exactly


def test_leak_summary_peak_memory_general_direction_at_n_2048():
    # the spectrum of n binned integer weights: no M x n float expansion (36 MiB before)
    s = oracle_signflip(2048, 11)
    iota = Direction.from_vector(np.random.default_rng(11).standard_normal(2048), normalize=True)
    leak_summary(s, iota)
    tracemalloc.start()
    try:
        leak_summary(s, iota)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def test_oracle_n2_summary():
    s = subgroup_from_basis_masks(2, [0b01])
    summ = leak_summary(s)
    assert summ.scaled_distribution == (2, 0)
    assert summ.delta == 0.0 and summ.delta_abs == 0.0


def test_full_group_n2_summary():
    summ = leak_summary(full_group(2))
    assert sorted(summ.scaled_distribution) == [-2, 0, 0, 2]
    assert summ.delta == 0.0
    assert summ.delta_abs == 1.0  # -I contributes |iota' (-I) iota| = 1


def test_trivial_subgroup_rejected():
    with pytest.raises(TrivialSubgroupError):
        leak_summary(subgroup_from_basis_masks(3, []))


def test_matrix_representation_n2_oracle():
    rep = matrix_representation(subgroup_from_basis_masks(2, [0b10]))
    assert np.allclose(math.sqrt(2) * rep.columns, [[1, 1], [1, -1]])
    assert np.allclose(rep.iota, Direction.uniform(2).coords)


def test_matrix_representation_duplicate_columns_rejected():
    # iota with a zero coordinate + a flip confined to it -> identical columns
    iota = Direction(2, np.array([1.0, 0.0]))
    s = subgroup_from_basis_masks(2, [0b10])
    with pytest.raises(ValueError, match="duplicate"):
        matrix_representation(s, iota)


def test_matrix_representation_duplicates_iff_flip_inside_zero_coordinates():
    # iota zero on coordinates 2 and 3: columns collide iff some element flips only those
    iota = Direction.from_vector([1.0, 2.0, 0.0, 0.0], normalize=True)
    ok = subgroup_from_basis_masks(4, [0b0101, 0b1010])
    rep = matrix_representation(ok, iota)
    assert len({tuple(c) for c in rep.columns.T}) == rep.M
    for gens in ([0b1100], [0b0100], [0b0111, 0b0011]):
        with pytest.raises(ValueError, match="duplicate"):
            matrix_representation(subgroup_from_basis_masks(4, gens), iota)


def test_leak_summary_from_representation_matches_subgroup():
    s = subgroup_from_basis_masks(4, [0b0110, 0b1111])
    a = leak_summary(s)
    b = leak_summary(matrix_representation(s))
    assert a.delta == pytest.approx(b.delta, abs=1e-12)
    assert a.delta_abs == pytest.approx(b.delta_abs, abs=1e-12)
    assert sorted(a.distribution) == pytest.approx(sorted(b.distribution), abs=1e-12)


def test_delta_from_matrix_orthonormal_columns():
    cols = np.eye(4)[:, :3]
    rep = MatrixRepresentation(4, 3, cols)
    assert delta_from_matrix(rep) == 0.0


def test_representation_copies_caller_arrays():
    cols = np.eye(4)[:, :3]
    rep = MatrixRepresentation(4, 3, cols)
    cols[0, 0] = -1.0  # the caller's array stays theirs
    assert rep.columns[0, 0] == 1.0 and not np.shares_memory(rep.columns, cols)
    assert not rep.columns.flags.writeable
    # only an array that is already read-only, C-order and float64 is kept as it is
    assert MatrixRepresentation(4, 3, rep.columns).columns is rep.columns


def test_matrix_representation_peak_memory():
    # the n x M float64 columns, the bits and small change: no second n x M array
    n = 1024
    s = oracle_signflip(n, 10)
    matrix_representation(s)
    tracemalloc.start()
    try:
        matrix_representation(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * n * s.order


def _random_subgroup(rng, n, rank):
    return subgroup_from_basis_masks(n, [int.from_bytes(rng.bytes(n // 8 + 1), "little") % (1 << n) for _ in range(rank)])


@pytest.mark.parametrize("n", [5, 12, 63, 64, 65, 130])
def test_canonical_elements_are_xors_of_the_power_of_two_rows(n):
    # element j of the sorted list is the XOR of elements 1, 2, 4, ... at j's set bits,
    # which is what makes column j of the representation iota_i (-1)^popcount(j & sig_i)
    rng = np.random.default_rng(n)
    for rank in range(min(n, 7) + 1):
        for _ in range(4):
            s = _random_subgroup(rng, n, rank)
            masks, k = s.element_masks(), s.rank
            for j, m in enumerate(masks):
                want = 0
                for b in range(k):
                    if j >> b & 1:
                        want ^= masks[1 << b]
                assert m == want
            iota = Direction.from_vector(rng.standard_normal(n), normalize=True)
            rep = matrix_representation(s, iota)
            sig = rep.signatures
            assert sig.shape == (n,) and not sig.flags.writeable
            for b in range(k):  # bit b of sig_i: does row 1 << b flip coordinate i
                assert np.array_equal(sig >> b & 1, [masks[1 << b] >> i & 1 for i in range(n)])
            parity = np.bitwise_count(np.arange(s.order)[None, :] & sig[:, None]) & 1
            assert np.array_equal(rep.columns, np.where(parity == 1, -iota.coords[:, None], iota.coords[:, None]))


def test_only_representations_of_canonical_subgroups_carry_signatures():
    rep = matrix_representation(oracle_signflip(16, 3))
    assert rep.signatures is not None
    assert rep.iota.flags.c_contiguous and not rep.iota.flags.writeable
    assert np.array_equal(rep.iota, rep.columns[:, 0]) and not np.shares_memory(rep.iota, rep.columns)
    perm = np.r_[0, np.arange(rep.M - 1, 0, -1)]
    for other in (
        MatrixRepresentation(rep.n, rep.M, rep.columns),  # hand-built from the same columns
        MatrixRepresentation(rep.n, rep.M, rep.columns[:, perm]),  # column-permuted copy
        oracle_orthogonal(16, 8, Direction.uniform(16)),
    ):
        assert other.signatures is None
        assert np.array_equal(other.iota, other.columns[:, 0])


def _reference_columns(s, iota):
    """The representation's columns written mask by mask, as one np.where over the element bits."""
    return np.where(masks_to_bits(s.element_masks(), s.n).T, -iota.coords[:, None], iota.coords[:, None])


def _reference_cases():
    rng = np.random.default_rng(16)
    v = rng.standard_normal(200)
    v[rng.permutation(200)[:40]] = 0.0  # a direction that is 20 % zeros
    yield "zero-coordinates", _random_subgroup(rng, 200, 8), Direction.from_vector(v, normalize=True)
    yield "trivial", subgroup_from_basis_masks(9, []), Direction.uniform(9)
    for n in (63, 64, 65, 130):
        yield f"n={n}", _random_subgroup(rng, n, 7), Direction.from_vector(rng.standard_normal(n), normalize=True)
        yield f"n={n}-uniform", _random_subgroup(rng, n, 6), Direction.uniform(n)


@pytest.mark.parametrize("case", list(_reference_cases()), ids=lambda c: c[0])
def test_columns_built_from_signatures_equal_the_elementwise_reference(case):
    _name, s, iota = case
    rep = matrix_representation(s, iota)
    assert "columns" not in vars(rep)  # written when first read
    want = _reference_columns(s, iota)
    columns = rep.columns
    assert columns.tobytes() == want.tobytes()  # the same bytes, -0.0 at flipped zero coordinates included
    assert columns.flags.c_contiguous and not columns.flags.writeable
    assert rep.columns is columns
    masks = s.element_masks()
    assert rep.signatures.tolist() == [
        sum(1 << b for b in range(s.rank) if masks[1 << b] >> i & 1) for i in range(s.n)
    ]


@pytest.mark.parametrize("case", list(_reference_cases()), ids=lambda c: c[0])
def test_written_columns_have_the_norm_of_column_0_bit_for_bit(case):
    # each written entry is +-iota_i, so its square is iota_i^2 exactly: checking column 0 checks them all
    _name, s, iota = case
    columns = matrix_representation(s, iota).columns
    norms = np.einsum("ij,ij->j", columns, columns)
    first = np.einsum("ij,ij->j", columns[:, :1], columns[:, :1])  # what the check of column 0 computes
    assert norms.tobytes() == np.full(s.order, first[0]).tobytes()


def test_two_sample_oracle_columns_equal_the_elementwise_reference(monkeypatch):
    seen = []
    build = construct.matrix_representation
    monkeypatch.setattr(construct, "matrix_representation", lambda s, iota: seen.append((s, iota)) or build(s, iota))
    rep = two_sample_oracle(64, 64)
    (s, iota), = seen
    assert rep.columns.tobytes() == _reference_columns(s, iota).tobytes()


def test_duplicate_columns_rejected_exactly_when_an_element_flips_only_zero_coordinates():
    rng = np.random.default_rng(5)
    for trial in range(200):
        n = int(rng.integers(2, 9))
        v = rng.standard_normal(n)
        v[rng.random(n) < 0.4] = 0.0
        if not v.any():
            v[0] = 1.0
        iota = Direction.from_vector(v, normalize=True)
        s = _random_subgroup(rng, n, int(rng.integers(0, n + 1)))
        bits = masks_to_bits(s.element_masks()[1:], n)
        collide = not np.all(np.any(bits & (v != 0), axis=1))
        if collide:
            with pytest.raises(ValueError, match="^duplicate columns: need delta < 1 or an iota without zero coordinates$"):
                matrix_representation(s, iota)
        else:
            assert matrix_representation(s, iota).columns.tobytes() == _reference_columns(s, iota).tobytes()


def test_materialised_columns_pass_the_unit_norm_check(monkeypatch):
    rep = matrix_representation(oracle_signflip(8, 2))
    monkeypatch.setattr(leak, "_UNIT_NORM_TOL", -1.0)  # no column can pass
    with pytest.raises(ValueError, match="unit norm"):
        rep.columns
    with pytest.raises(AttributeError, match="no attribute 'colums'"):
        rep.colums


def test_one_shot_subgroup_test_at_n_2048_writes_no_columns():
    # the representation and one transform-path test: signatures and O(n + M) more (32.3 MiB with the columns)
    s = oracle_signflip(2048, 11)
    data = Dataset(2048, 0.05 + np.random.default_rng(1).standard_normal(2048), Direction.uniform(2048))

    def one_shot():
        return subgroup_test(data, matrix_representation(s), 1 / 64)

    one_shot()
    tracemalloc.start()
    try:
        res = one_shot()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    dense = MatrixRepresentation(2048, 2048, _reference_columns(s, data.iota))
    assert res.exceed_count == subgroup_test(data, dense, 1 / 64).exceed_count


def _product_cases():
    rng = np.random.default_rng(21)
    for n, rank in ((8, 3), (64, 6), (130, 7), (1024, 10)):
        s = _random_subgroup(rng, n, rank)
        yield s, Direction.uniform(n)
        yield s, Direction.from_vector(rng.standard_normal(n), normalize=True)
    for m in (4, 32, 512):
        yield oracle_signflip(2 * m, two_adic_valuation(2 * m)), iota_two_sample(m, m)


def test_representation_leaks_from_the_spectrum_match_the_column_products():
    # the Gram entry (j, k) is the leak of j ^ k: delta without an M x M product
    for s, iota in _product_cases():
        rep = matrix_representation(s, iota)
        summ = leak_summary(rep)
        want = leak_summary(s, iota)
        assert summ.distribution == want.distribution and summ.scaled_distribution == want.scaled_distribution
        assert (summ.delta, summ.delta_abs) == (want.delta, want.delta_abs)
        assert delta_from_matrix(rep) == want.delta
        hand = MatrixRepresentation(rep.n, rep.M, rep.columns)  # the product path
        tol = rep.n * np.finfo(float).eps
        assert np.all(np.abs(np.subtract(leak_summary(hand).distribution, summ.distribution)) <= tol)
        assert abs(leak_summary(hand).delta_abs - summ.delta_abs) <= tol
        assert abs(delta_from_matrix(hand) - delta_from_matrix(rep)) <= tol


def test_delta_from_matrix_peak_memory_at_n_2048():
    # no M x M Gram (32 MiB at M = 2048)
    iota = Direction.from_vector(np.arange(1.0, 2049.0), normalize=True)
    rep = matrix_representation(oracle_signflip(2048, 11), iota)
    delta_from_matrix(rep)
    tracemalloc.start()
    try:
        delta = delta_from_matrix(rep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20 and "columns" not in vars(rep)
    assert delta == leak_summary(oracle_signflip(2048, 11), iota).delta


def test_matrix_representation_peak_memory_at_n_2048():
    # the 32 MiB of columns and O(n + M) more: no n x M bit array
    s = oracle_signflip(2048, 11)
    matrix_representation(s)
    tracemalloc.start()
    try:
        matrix_representation(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 33.5 * 2**20


def test_negate_closure():
    s = subgroup_from_basis_masks(4, [0b0011])
    ns = negate_closure(s)
    assert ns.order == 4
    assert SignFlipElement(4, 0b1111) in ns
    # delta of the closure equals delta_abs of the original
    assert leak_summary(ns).delta == leak_summary(s).delta_abs


@settings(max_examples=60)
@given(n=st.integers(min_value=2, max_value=8), data=st.data())
def test_leak_summary_bounds_and_scaling(n, data):
    gens = data.draw(
        st.lists(st.integers(min_value=1, max_value=(1 << n) - 1), min_size=1, max_size=3)
    )
    s = subgroup_from_basis_masks(n, gens)
    summ = leak_summary(s)
    assert summ.order == s.order
    assert summ.distribution[0] == 1.0  # identity leak
    assert -1.0 <= summ.delta <= 1.0 and 0.0 <= summ.delta_abs <= 1.0
    assert summ.delta_abs >= summ.delta or summ.delta < 0
    for v, sv in zip(summ.distribution, summ.scaled_distribution):
        assert sv == n * v or sv == pytest.approx(n * v, abs=1e-12)
        assert isinstance(sv, int)  # exact integers on the scaled axis
