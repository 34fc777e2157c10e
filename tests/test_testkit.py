"""Invariance tests: exact subgroup tests, Monte Carlo tests, closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from nos import testkit
from nos.construct import oracle_signflip, two_adic_valuation, two_sample_oracle
from nos.flipcore import (
    distinct_masks,
    full_group,
    masks_to_bits,
    masks_to_words,
    random_masks,
    subgroup_from_basis_masks,
)
from nos.leak import Direction, MatrixRepresentation, matrix_representation
from nos.special import beta_sym_cdf, beta_sym_quantile
from nos.testkit import (
    Dataset,
    _signflip_stats,
    exceed_counts,
    full_orthogonal_test,
    mc_orthogonal_test,
    mc_signflip_test,
    mc_z_test,
    statistic,
    subgroup_test,
    t_statistic,
    tie_tolerance,
)


def _dataset(x, iota=None):
    return Dataset.from_vector(np.asarray(x, dtype=float), iota)


def _distinct_bits(rng, rows, draws, n):
    """The draw behind ``mc-signflip`` without replacement: distinct non-identity masks, as bits."""
    return masks_to_bits(distinct_masks(rng, n, rows, draws, masks_to_words([0], n)), n)


def test_statistic():
    iota = Direction.uniform(2)
    assert statistic([3.0, 1.0], iota) == pytest.approx(4.0 / math.sqrt(2), abs=1e-14)
    assert statistic([-3.0, 1.0], iota, side="two") == pytest.approx(2.0 / math.sqrt(2), abs=1e-14)
    with pytest.raises(ValueError):
        statistic([1.0, 2.0], iota, side="both")


def test_subgroup_test_hand_example():
    # x = (3, 1), n=2 oracle {I, diag(1,-1)}: stats (4, 2)/sqrt(2), p = 1/2
    rep = matrix_representation(subgroup_from_basis_masks(2, [0b10]))
    res = subgroup_test(_dataset([3.0, 1.0]), rep, alpha=0.5)
    assert res.p_value == 0.5
    assert res.exceed_count == 1 and res.total == 2
    assert res.reject  # p <= alpha with equality still rejects


def test_subgroup_test_ties_count_against_rejection():
    # data invariant under the flip -> both columns tie, p = 1
    rep = matrix_representation(subgroup_from_basis_masks(2, [0b10]))
    res = subgroup_test(_dataset([3.0, 0.0]), rep, alpha=0.5)
    assert res.p_value == 1.0
    assert not res.reject


def test_subgroup_test_full_group_p_value():
    # all 2^n sign patterns: for positive data the observed stat is the unique max
    rep = matrix_representation(full_group(3))
    res = subgroup_test(_dataset([2.0, 1.0, 3.0]), rep, alpha=1 / 8)
    assert res.p_value == 1.0 / 8.0
    assert res.reject


def test_subgroup_test_rejects_mismatched_direction():
    rep = matrix_representation(subgroup_from_basis_masks(2, [0b10]))
    other = Direction(2, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        subgroup_test(_dataset([1.0, 2.0], other), rep, alpha=0.1)


def test_mc_signflip_without_replacement_is_exhaustive_at_full_M():
    # M = 2^n without replacement must reproduce the full-group test exactly
    x = [1.5, -0.3, 2.2]
    full = subgroup_test(_dataset(x), matrix_representation(full_group(3)), alpha=0.25)
    mc = mc_signflip_test(_dataset(x), M=8, alpha=0.25, replacement="without", seed=7)
    assert mc.p_value == full.p_value
    assert mc.total == 8


def test_mc_signflip_seeded_reproducible():
    x = _dataset(np.linspace(-1, 2, 12))
    a = mc_signflip_test(x, M=64, alpha=0.05, seed=5)
    b = mc_signflip_test(x, M=64, alpha=0.05, seed=5)
    assert a == b
    c = mc_signflip_test(x, M=64, alpha=0.05, seed=6)
    assert a != c  # different draws almost surely


def test_mc_signflip_validation():
    x = _dataset([1.0, 2.0])
    with pytest.raises(ValueError):
        mc_signflip_test(x, M=5, alpha=0.05)  # only 4 distinct patterns exist
    with pytest.raises(ValueError):
        mc_signflip_test(x, M=4, alpha=0.05, replacement="sometimes")
    with pytest.raises(ValueError):
        mc_signflip_test(x, M=4, alpha=1.5)


def test_mc_orthogonal_identity_included():
    x = _dataset([2.0, 1.0, 0.5, 1.2])
    res = mc_orthogonal_test(x, M=50, alpha=0.05, seed=9)
    assert res.total == 50
    assert res.exceed_count >= 1


@pytest.mark.parametrize("n", [2, 3, 10, 33])
def test_mc_orthogonal_statistics_follow_the_symmetric_beta_law(n):
    # at ||x|| = 1 a draw's statistic is u, (1 + u) / 2 ~ Beta((n-1)/2, (n-1)/2):
    # row q sits at iota'x = z_q, so its count less one is #{u >= z_q}
    probs = np.array([0.05, 0.25, 0.5, 0.75, 0.95])
    z = np.array([beta_sym_quantile(p, n) for p in probs])
    iota = Direction.uniform(n).coords
    w = np.eye(n)[0] - iota[0] * iota
    w /= np.linalg.norm(w)
    X = z[:, None] * iota + np.sqrt(1.0 - z * z)[:, None] * w
    draws = 100_000
    counts, _obs = exceed_counts("mc-orthogonal", X, iota=iota, M=draws + 1, rng=np.random.default_rng(n))
    upper = (counts - 1) / draws
    want = np.array([1.0 - beta_sym_cdf(q, n) for q in z])
    assert np.allclose(want, 1.0 - probs, atol=1e-10)
    assert np.all(np.abs(upper - want) <= 5 * np.sqrt(want * (1 - want) / draws))


def test_mc_orthogonal_at_n1_draws_plus_or_minus_one():
    res = mc_orthogonal_test(_dataset([2.5]), M=20, alpha=0.05, seed=0)
    assert res.total == 20 and 1 <= res.exceed_count <= 20
    # x = 1 along iota = (1,): a draw's statistic is u itself
    X = np.ones((50, 1))
    two, _obs = exceed_counts("mc-orthogonal", X, "two", iota=np.ones(1), M=20, rng=np.random.default_rng(1))
    one, _obs = exceed_counts("mc-orthogonal", X, "one", iota=np.ones(1), M=20, rng=np.random.default_rng(1))
    assert np.all(two == 20)  # |u| = 1 for every draw
    plus = one.sum() - 50  # draws with u = +1
    assert 0 < plus < 50 * 19


@pytest.mark.parametrize("uniform", [True, False])
def test_mc_signflip_statistic_matches_the_float_sign_cube(uniform):
    rng = np.random.default_rng(5)
    n, M = 16, 64
    iota = Direction.uniform(n) if uniform else Direction.from_vector(rng.standard_normal(n), normalize=True)
    X = rng.standard_normal((300, n)) * rng.uniform(0.01, 100.0, (300, 1))
    bits = rng.integers(0, 2, size=(300, M - 1, n), dtype=np.int8)
    reference = np.einsum("cmn,cn->cm", 1.0 - 2.0 * bits, X * iota.coords)
    got = _signflip_stats(1 - 2 * bits, X, iota.coords)
    assert np.all(np.abs(got - reference) <= tie_tolerance(X)[:, None])


@pytest.mark.parametrize("replacement", ["with", "without"])
def test_mc_signflip_sign_slices_change_no_count(monkeypatch, replacement):
    # a 700-byte budget unpacks 2 rows of 15 x 20 signs at a time, so 4 100 rows take two chunks of slices
    rng = np.random.default_rng(8)
    X, iota = rng.standard_normal((4100, 20)), Direction.uniform(20).coords

    def run():
        return testkit.exceed_counts("mc-signflip", X, iota=iota, M=16, replacement=replacement,
                                     rng=np.random.default_rng(3))

    whole = run()
    monkeypatch.setattr(testkit, "_TEMP_BYTES", 700)
    sliced = run()
    assert np.array_equal(sliced[0], whole[0]) and np.array_equal(sliced[1], whole[1])


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("uniform", [True, False])
def test_mc_signflip_over_every_pattern_counts_like_the_full_group(n, uniform):
    # M = 2^n without replacement draws every pattern, -I included, so the MC counts are the
    # full group's; rows near +-iota put -I's statistic at (or, two-sided, in a tie with) the extreme
    rng = np.random.default_rng(10 * n + uniform)
    iota = Direction.uniform(n) if uniform else Direction.from_vector(rng.standard_normal(n), normalize=True)
    rows = 10_000
    scale = rng.choice([-1.0, 1.0], (rows, 1)) * 10.0 ** rng.uniform(-3, 3, (rows, 1))
    noise = rng.standard_normal((rows, n)) * 10.0 ** rng.uniform(-17, 0, (rows, 1))
    X = scale * (iota.coords + noise)
    rep = matrix_representation(full_group(n), iota)
    for side in ("one", "two"):
        want, _ = exceed_counts("subgroup", X, side, rep=rep)  # subgroup_test's kernel, row by row
        got, _ = exceed_counts(
            "mc-signflip", X, side, iota=iota.coords, M=1 << n, rng=np.random.default_rng(n)
        )
        assert np.array_equal(got, want), side
        for r in range(0, rows, 997):
            assert subgroup_test(_dataset(X[r], iota), rep, 0.5, side).exceed_count == want[r]


@pytest.mark.parametrize("n,M", [(5, 32), (8, 64), (24, 64)])
@pytest.mark.parametrize("replacement", ["with", "without"])
@pytest.mark.parametrize("side", ["one", "two"])
def test_mc_signflip_counts_are_exact_on_integer_data(n, M, replacement, side):
    # integer data along the uniform direction: sqrt(n) iota'(g x) is an
    # integer, so the exact count follows from the same draws in integers
    X = np.random.default_rng(n).integers(-2, 3, size=(400, n))
    if replacement == "with":
        bits = masks_to_bits(random_masks(np.random.default_rng(7), n, (400, M - 1)), n)
    else:
        bits = _distinct_bits(np.random.default_rng(7), 400, M - 1, n)
    exact = np.einsum("cmn,cn->cm", 1 - 2 * bits.astype(np.int64), X)
    obs = X.sum(axis=1)
    if side == "two":
        exact, obs = np.abs(exact), np.abs(obs)
    want = 1 + np.count_nonzero(exact >= obs[:, None], axis=1)
    got, _obs = exceed_counts(
        "mc-signflip", X, side, iota=Direction.uniform(n).coords, M=M, replacement=replacement,
        rng=np.random.default_rng(7),
    )
    assert np.array_equal(got, want)


def test_full_orthogonal_equals_t_test():
    rng = np.random.default_rng(0)
    for n in (3, 7, 21):
        x = _dataset(rng.standard_normal(n) + 0.4)
        res = full_orthogonal_test(x, alpha=0.05)
        t = t_statistic(x)
        assert res.p_value == pytest.approx(float(stats.t.sf(t, n - 1)), abs=1e-12)
        two = full_orthogonal_test(x, alpha=0.05, side="two")
        assert two.p_value == pytest.approx(2 * float(stats.t.sf(abs(t), n - 1)), abs=1e-12)


def test_full_orthogonal_p_values_are_tail_exact():
    # the p-value is the lower tail at -z, never 1 - cdf: relative error against
    # scipy's t.sf stays near 1e-12 (worst measured 1.3e-12, at n = 1000) down to p = 1e-30
    smallest = 1.0
    for n in (3, 5, 10, 50, 200, 1000):
        rng = np.random.default_rng(n)
        for shift in np.linspace(0.0, 12.0, 41):
            data = _dataset(shift + rng.standard_normal(n))
            t = t_statistic(data)
            for side, want in (("one", float(stats.t.sf(t, n - 1))), ("two", 2 * float(stats.t.sf(abs(t), n - 1)))):
                if want < 1e-30:
                    continue
                smallest = min(smallest, want)
                assert full_orthogonal_test(data, 0.05, side).p_value == pytest.approx(want, rel=1e-11, abs=0)
    assert smallest < 1e-29
    # 1 - cdf gave 0.0 here on both sides
    data = _dataset(3 + np.random.default_rng(3).standard_normal(50))
    assert full_orthogonal_test(data, 0.05).p_value == pytest.approx(6.2318e-25, rel=1e-4)
    assert full_orthogonal_test(data, 0.05, "two").p_value == pytest.approx(1.2464e-24, rel=1e-4)


def test_array_holding_dataclasses_compare_by_identity():
    iota = Direction.uniform(8)
    rep = matrix_representation(oracle_signflip(8, 2), iota)
    data = Dataset(8, np.ones(8), iota)
    for a, b in (
        (iota, Direction.uniform(8)),
        (rep, matrix_representation(oracle_signflip(8, 2), iota)),
        (data, Dataset(8, np.ones(8), iota)),
    ):
        assert a == a and not a != a
        assert a != b and not a == b  # equal contents, distinct objects
        assert hash(a) == hash(a) and len({a, b}) == 2


def test_full_orthogonal_closed_form_has_no_counts():
    res = full_orthogonal_test(_dataset([1.0, 0.2, -0.4]), alpha=0.1)
    assert res.exceed_count is None and res.total is None


def test_full_orthogonal_degenerate_data_rejected():
    with pytest.raises(ValueError):
        full_orthogonal_test(_dataset([1.0, 1.0, 1.0]), alpha=0.05)
    with pytest.raises(ValueError):
        full_orthogonal_test(_dataset([0.0, 0.0, 0.0]), alpha=0.05)


def test_mc_z_test_basic():
    res = mc_z_test(50.0, M=20, alpha=0.05, seed=3)
    assert res.p_value == 1.0 / 20.0  # an absurdly large observation beats all draws
    assert res.reject
    null = mc_z_test(-50.0, M=20, alpha=0.05, seed=3)
    assert null.p_value == 1.0


def test_result_serialization():
    res = mc_z_test(1.0, M=10, alpha=0.1, seed=0)
    d = res.to_dict()
    assert set(d) == {"p_value", "reject", "statistic", "exceed_count", "total", "side", "alpha"}


def _orbit_rejections(x, group, alpha):
    """One-sided rejections over the orbit {g.x}, and whether x's statistics are distinct.

    The statistics at g.x are those at x, reindexed by g, so at most
    floor(alpha*M) of the M orbit points can rank in the top alpha
    (ties count against rejection), with equality when all are distinct,
    i.e. when no two are close enough to count as tied.
    """
    rep = matrix_representation(group)
    rejections = sum(
        subgroup_test(_dataset(g.apply(x)), rep, alpha).reject for g in group.elements
    )
    # "distinct" must follow the kernel's tie rule: statistics closer than
    # tau count as tied. Gaps above 2 tau stay above tau at every orbit
    # point, whose statistics differ from these only by rounding.
    x = np.asarray(x, dtype=float)
    gaps = np.diff(np.sort(x @ rep.columns))
    return rejections, bool(np.all(gaps > 2 * tie_tolerance(x[None])[0]))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_full_group_dominates_subgroups(data):
    # The full group need not reject whenever a subgroup does (n = 2,
    # x = (1, -2), alpha = 1/2: the subgroup {I, flip 0} gives p = 1/2, the
    # full group p = 3/4). What holds for every group, the full one
    # included, is that its test rejects on at most floor(alpha*M) points
    # of each orbit, which is why it is exact.
    n = data.draw(st.integers(min_value=2, max_value=6))
    gens = data.draw(
        st.lists(st.integers(min_value=1, max_value=(1 << n) - 1), min_size=1, max_size=3)
    )
    xs = data.draw(
        st.lists(
            st.floats(min_value=-5, max_value=5, allow_nan=False, width=32),
            min_size=n,
            max_size=n,
        )
    )
    alpha = data.draw(st.sampled_from([0.01, 0.05, 0.2, 0.5]))
    for group in (subgroup_from_basis_masks(n, gens), full_group(n)):
        rejections, distinct = _orbit_rejections(xs, group, alpha)
        bound = math.floor(alpha * group.order)
        assert rejections <= bound
        if distinct:
            assert rejections == bound


def test_oracle_subgroup_stats_are_uncorrelated_projections():
    # zero leak <=> orthonormal columns: statistics are orthogonal projections
    rep = matrix_representation(oracle_signflip(8, 3))
    gram = rep.columns.T @ rep.columns
    assert np.allclose(gram, np.eye(8), atol=1e-12)


@pytest.mark.parametrize("n", [12, 24, 48, 96])
@pytest.mark.parametrize("side", ["one", "two"])
def test_exceed_count_is_exact_on_integer_data(n, side):
    # integer data on an oracle subgroup tie exactly and often; every
    # exact tie must count, and a row's count must not depend on its batch
    k = min(two_adic_valuation(n), 5)
    rep = matrix_representation(oracle_signflip(n, k))
    signs = np.rint(rep.columns * math.sqrt(n)).astype(np.int64)
    X = np.random.default_rng(n).integers(-2, 3, size=(300, n))
    exact = X @ signs
    if side == "two":
        exact = np.abs(exact)
    want = np.count_nonzero(exact >= exact[:, :1], axis=1)
    batched, _obs = exceed_counts("subgroup", X, side, rep=rep)
    single = [subgroup_test(_dataset(x), rep, 0.05, side).exceed_count for x in X]
    assert np.array_equal(batched, want)
    assert np.array_equal(single, want)


def _random_subgroup(rng, n, rank):
    return subgroup_from_basis_masks(n, [int.from_bytes(rng.bytes(n // 8 + 1), "little") % (1 << n) for _ in range(rank)])


def _walsh_cases():
    rng = np.random.default_rng(15)
    # n = 10 into M = 512 bins: most bins are empty
    yield "empty-bins", matrix_representation(_random_subgroup(rng, 10, 9)), rng.standard_normal((20, 10))
    v = rng.standard_normal(200)
    v[rng.permutation(200)[:40]] = 0.0  # a direction that is 20 % zeros
    rep = matrix_representation(_random_subgroup(rng, 200, 10), Direction.from_vector(v, normalize=True))
    yield "zero-coordinates", rep, rng.standard_normal((20, 200))
    X = rng.standard_normal((20, 128)) + np.r_[np.zeros(64), np.ones(64)]
    X[::3] = np.rint(2 * X[::3])  # integer rows tie exactly
    yield "two-sample", two_sample_oracle(64, 64), X
    yield "integer-ties", matrix_representation(oracle_signflip(96, 5)), rng.integers(-2, 3, (40, 96)).astype(float)
    yield "greedy", matrix_representation(_random_subgroup(rng, 1536, 10)), rng.standard_normal((10, 1536))


@pytest.mark.parametrize("case", list(_walsh_cases()), ids=lambda c: c[0])
@pytest.mark.parametrize("side", ["one", "two"])
def test_walsh_path_matches_the_dense_product(case, side, monkeypatch):
    # forced onto the transform at every shape: each statistic within n eps ||x||_2 of
    # the dense column's, and every count equal to the dense kernel's
    _name, rep, X = case
    dense_rep = MatrixRepresentation(rep.n, rep.M, rep.columns)
    monkeypatch.setattr(testkit, "_walsh_pays", lambda reps, n, M: True)
    for x in X:
        walsh = testkit._subgroup_stats(x[None], rep)[0]
        dense = x @ rep.columns
        assert np.all(np.abs(walsh - dense) <= rep.n * np.finfo(float).eps * np.linalg.norm(x))
        got, obs = exceed_counts("subgroup", x, side, rep=rep)
        want, _obs = exceed_counts("subgroup", x, side, rep=dense_rep)
        assert got[0] == want[0] and obs[0] == (abs(walsh[0]) if side == "two" else walsh[0])
        if np.array_equal(x, np.rint(x)) and np.ptp(np.abs(rep.iota)) == 0:  # +-1/sqrt(n) columns: exact ties
            exact = x @ np.rint(rep.columns * math.sqrt(rep.n))
            if side == "two":
                exact = np.abs(exact)
            assert got[0] == np.count_nonzero(exact >= exact[0])


@pytest.mark.parametrize("side", ["one", "two"])
def test_walsh_path_at_n_2048_matches_the_dense_product(side):
    # the shape that takes the transform unforced; integer rows tie exactly
    rep = matrix_representation(oracle_signflip(2048, 11))
    dense_rep = MatrixRepresentation(rep.n, rep.M, rep.columns)
    X = 0.05 + np.random.default_rng(2048).standard_normal((6, 2048))
    X[::2] = np.rint(X[::2])
    for x in X:
        res = subgroup_test(_dataset(x), rep, 1 / 64, side)
        want, obs = exceed_counts("subgroup", x, side, rep=dense_rep)
        assert res.exceed_count == want[0]
        assert abs(res.statistic - obs[0]) <= 2048 * np.finfo(float).eps * np.linalg.norm(x)


def test_walsh_path_runs_only_where_the_rule_sends_it(monkeypatch):
    calls = []
    transform = testkit._walsh_hadamard
    monkeypatch.setattr(testkit, "_walsh_hadamard", lambda b: calls.append(len(b)) or transform(b))
    rep = matrix_representation(oracle_signflip(2048, 11))
    x = 0.1 + np.random.default_rng(3).standard_normal(2048)
    res = subgroup_test(_dataset(x), rep, 1 / 64)
    assert calls == [2048]
    # a batch, and hand-built or column-permuted copies of the same columns, stay dense
    exceed_counts("subgroup", np.stack([x, x]), rep=rep)
    perm = np.r_[0, np.random.default_rng(4).permutation(np.arange(1, 2048))]
    for other in (MatrixRepresentation(2048, 2048, rep.columns), MatrixRepresentation(2048, 2048, rep.columns[:, perm])):
        again = subgroup_test(_dataset(x), other, 1 / 64)
        assert (again.exceed_count, again.reject) == (res.exceed_count, res.reject)
    small = matrix_representation(oracle_signflip(32, 5))  # the shapes of the analyst and simulate calls
    subgroup_test(_dataset(x[:32]), small, 1 / 16)
    assert calls == [2048]
    assert not testkit._walsh_pays(1, 32, 64) and not testkit._walsh_pays(20_000, 16, 16)
    assert not testkit._walsh_pays(1, 16, 1 << 16)  # the full group at n = 16, where the transform loses
    assert testkit._walsh_pays(1, 4096, 4096) and not testkit._walsh_pays(2, 4096, 4096)


@pytest.mark.parametrize("side", ["one", "two"])
def test_batch_counts_through_a_lazy_representation_equal_the_hand_built_ones(side):
    rng = np.random.default_rng(22)
    v = rng.standard_normal(256)
    v[::5] = 0.0
    for rep in (matrix_representation(oracle_signflip(256, 8)),
                matrix_representation(_random_subgroup(rng, 256, 8), Direction.from_vector(v, normalize=True))):
        X = rng.standard_normal((30, 256))
        X[::3] = np.rint(X[::3])  # integer rows, which tie exactly under the uniform direction
        lazy = exceed_counts("subgroup", X, side, rep=rep)  # the columns are written here
        hand = exceed_counts("subgroup", X, side, rep=MatrixRepresentation(rep.n, rep.M, rep.columns))
        assert np.array_equal(lazy[0], hand[0]) and np.array_equal(lazy[1], hand[1])


def test_mc_signflip_with_replacement_counts_drawn_ties():
    # x = (3, 1, 5), two-sided: the patterns +-I reach |3 + 1 + 5| = 9
    # exactly and no other pattern comes near, so every draw of them counts
    res = mc_signflip_test(_dataset([3.0, 1.0, 5.0]), 400, 0.05, side="two", replacement="with", seed=1)
    masks = random_masks(np.random.default_rng(1), 3, (399,))
    assert res.exceed_count == 1 + int(np.count_nonzero(np.isin(masks, [0b000, 0b111])))


def test_mc_signflip_without_replacement_any_n():
    # n = 100 is beyond any integer mask type
    x = _dataset(np.random.default_rng(3).standard_normal(100) + 0.5)
    res = mc_signflip_test(x, 200, 0.05, seed=4)
    assert res.total == 200 and 1 <= res.exceed_count <= 200
    assert res == mc_signflip_test(x, 200, 0.05, seed=4)


@pytest.mark.parametrize("n,draws", [(3, 3), (3, 6), (8, 63), (100, 40)])
def test_distinct_mask_bits_are_distinct_and_non_identity(n, draws):
    bits = _distinct_bits(np.random.default_rng(n), 500, draws, n)
    assert bits.shape == (500, draws, n)
    assert bits.any(axis=2).all()
    for row in bits:
        assert len(np.unique(row, axis=0)) == draws


@pytest.mark.parametrize("draws", [3, 5])
def test_distinct_mask_bits_uniform_over_subsets(draws):
    # n = 3: 7 non-identity masks. 3 draws take the redraw path, 5 the
    # permutation path; every draws-subset must be equally likely.
    rows = 40_000
    bits = _distinct_bits(np.random.default_rng(0), rows, draws, 3)
    masks = (bits * (1 << np.arange(3))).sum(axis=2)
    subsets = (1 << masks).sum(axis=1)  # a row's mask set as a 7-bit word
    n_subsets = math.comb(7, draws)
    freq = np.bincount(subsets, minlength=1 << 8) / rows
    p = 1 / n_subsets
    assert np.count_nonzero(freq) == n_subsets
    assert np.all(np.abs(freq[freq > 0] - p) <= 5 * math.sqrt(p * (1 - p) / rows))
