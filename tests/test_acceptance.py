"""Acceptance suite: one test per criterion, at the stated scales and tolerances.

These run the full-size experiments (up to 1e5 replications and the
complete n=9 enumeration), so the file takes a few minutes; all other
test files stay desk-fast.
"""

import time

import numpy as np
import pytest
from scipy import stats

import nos
from nos.simlab import _cell_rng, _noise
from nos.testkit import exceed_counts


def _band(alpha, reps, k=3.0):
    return k * np.sqrt(alpha * (1 - alpha) / reps)


def test_criterion_01_counting_exact_and_fast():
    t0 = time.perf_counter()
    a = nos.gaussian_binomial(9, 4)
    b = nos.count_all_subgroups(9)
    elapsed = time.perf_counter() - t0
    assert a == 3309747
    assert b == 8283458
    assert isinstance(a, int) and isinstance(b, int)
    assert elapsed < 1e-3


def test_criterion_02_leak_census_counts():
    small = nos.leak_census(4, rank=2, with_representatives=False)
    assert small.distinct_counts[2] == 6
    big = nos.leak_census(9, with_representatives=False)
    assert big.total_subgroups == 8283458
    # 240 / 848 count subgroups up to coordinate permutation; the distinct
    # leak multisets (210 / 768) are coarser and obey MacWilliams duality
    orbits = nos.orbit_counts(9)
    assert orbits[4] == 240
    assert sum(orbits.values()) == 848
    for p in range(10):
        assert big.distinct_counts[p] <= orbits[p]
        assert big.distinct_counts[p] == big.distinct_counts[9 - p]


def test_criterion_03_oracle_construction():
    for n in (2, 4, 8, 16, 32, 64, 128):
        k = n.bit_length() - 1
        s = nos.oracle_signflip(n, k)
        assert s.order == n
        summ = nos.leak_summary(s)
        assert summ.delta_abs == 0.0  # exact: scaled leaks are integers
    assert nos.oracle_census(3) == [1]


def test_criterion_04_full_orthogonal_matches_t_test():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 10_000:
        n = int(rng.integers(3, 51))
        x = rng.standard_normal(n) + rng.uniform(-1, 1)
        data = nos.Dataset.from_vector(x)
        p = nos.full_orthogonal_test(data, alpha=0.05).p_value
        t = nos.t_statistic(data)
        assert abs(p - float(stats.t.sf(t, n - 1))) < 1e-10
        checked += 1


def test_criterion_05_beta_to_t_law():
    rng = np.random.default_rng(7)
    for n in (3, 10, 30):
        h = (n - 1) / 2.0
        z = 2.0 * rng.beta(h, h, size=100_000) - 1.0
        t = np.sqrt(n - 1) * z / np.sqrt(1.0 - z * z)
        assert stats.kstest(t, "t", args=(n - 1,)).pvalue > 0.01


def test_criterion_06_consistency_threshold():
    rep = nos.matrix_representation(nos.oracle_signflip(8, 3))
    above = nos.consistency_probe(rep, 1.5, 100_000, seed=11)
    assert above["all_rejected"] and above["count"] == 100_000
    below = nos.consistency_probe(rep, 1.30, 100_000, seed=12)
    assert not below["all_rejected"]


def test_criterion_07_mc_orthogonal_not_consistent():
    n, M, reps = 10, 10, 100_000
    iota = nos.Direction.uniform(n)
    rng = _cell_rng(13, 0)
    X = 1.5 * iota.coords + _noise(rng, reps, n, "fixed-norm-sphere", 1.0, 1.0)
    counts, _obs = exceed_counts("mc-orthogonal", X, "one", iota=iota.coords, M=M, rng=rng)
    rejects = counts / M <= 1.0 / M
    failures = reps - int(np.count_nonzero(rejects))
    assert failures >= 50


def test_criterion_08_oracle_matches_mc_z_power():
    reps = 100_000
    cfg = nos.SimConfig(
        n=16, mu_grid=(0.0, 0.25, 0.5, 0.75, 1.0), M_values=(16,),
        tests=("oracle-signflip", "mc-z"), replications=reps, alpha=1 / 16, seed=4,
    )
    cells = {(c["test"], c["mu"]): c for c in nos.power_table(cfg).cells}
    for mu in (0.0, 0.25, 0.5, 0.75, 1.0):
        a = cells[("oracle-signflip", mu)]
        b = cells[("mc-z", mu)]
        tol = 3 * max(a["se"], b["se"], 1e-12)
        assert abs(a["power"] - b["power"]) <= tol, (mu, a["power"], b["power"])


def test_criterion_09_size_control():
    reps = 100_000
    roster = [
        ("oracle-signflip", 1 / 8, 8, True),
        ("mc-signflip", 0.05, 20, True),
        ("mc-orthogonal", 0.05, 20, True),
        ("mc-z", 1 / 20, 20, True),
        ("t", 0.05, None, True),
    ]
    for test_id, alpha, M, exact in roster:
        rate = nos.size_audit(test_id, 8, alpha, reps, seed=20, M=M)
        band = _band(alpha, reps)
        assert rate <= alpha + band, (test_id, rate)
        if exact:  # alpha * M is an integer in every roster entry
            assert abs(rate - alpha) <= band, (test_id, rate)


def test_criterion_10_subgroup_dominates_mc_signflip():
    reps = 100_000
    for n in (8, 16):
        cfg = nos.SimConfig(
            n=n, mu_grid=(0.0, 0.25, 0.5, 0.75, 1.0), M_values=(n,),
            tests=("oracle-signflip", "mc-signflip"), replications=reps, alpha=1 / n, seed=10,
        )
        cells = {(c["test"], c["mu"]): c for c in nos.power_table(cfg).cells}
        for mu in (0.0, 0.25, 0.5, 0.75, 1.0):
            a = cells[("oracle-signflip", mu)]
            b = cells[("mc-signflip", mu)]
            tol = 3 * max(a["se"], b["se"], 1e-12)
            assert a["power"] >= b["power"] - tol, (n, mu, a["power"], b["power"])


def test_criterion_11_pvalue_variability():
    s20 = nos.greedy_near_oracle(20, 64, seed=100)
    out20 = nos.pvalue_variability(
        20, 0.5, 64, 1000, 1000, seed=100, rep_subgroup=nos.matrix_representation(s20)
    )
    assert out20["avg_var_subgroup_permuted"] == pytest.approx(0.00028, rel=0.5)
    assert out20["avg_var_mc"] == pytest.approx(0.00071, rel=0.5)
    assert out20["avg_var_subgroup_permuted"] < out20["avg_var_mc"]

    s32 = nos.greedy_near_oracle(32, 64, seed=101)
    out32 = nos.pvalue_variability(
        32, 0.3, 64, 1000, 1000, seed=101, rep_subgroup=nos.matrix_representation(s32)
    )
    assert out32["avg_var_subgroup_permuted"] == pytest.approx(0.00038, rel=0.5)
    assert out32["avg_var_mc"] == pytest.approx(0.00115, rel=0.5)
    assert out32["avg_var_subgroup_permuted"] < out32["avg_var_mc"]


def test_criterion_12_full_group_dominates():
    rng = np.random.default_rng(30)
    full_cols = nos.matrix_representation(nos.full_group(8)).columns
    subs = []
    while len(subs) < 50:
        masks = [int(m) for m in rng.integers(1, 256, 3)]
        s = nos.subgroup_from_basis_masks(8, masks)
        if s.order == 8:
            subs.append(nos.matrix_representation(s).columns)
    X = rng.standard_normal((1000, 8))
    fs = X @ full_cols
    frej = (np.count_nonzero(fs >= fs[:, 0][:, None], axis=1) / 256) <= 0.05
    violations = 0
    for cols in subs:
        ss = X @ cols
        srej = (np.count_nonzero(ss >= ss[:, 0][:, None], axis=1) / 8) <= 0.05
        violations += int(np.count_nonzero(srej & ~frej))
    assert violations == 0


def test_criterion_13_two_sample_zero_leak_exact():
    for m in (2, 4, 8):
        rep = nos.two_sample_oracle(m, m)
        iota_signs = np.sign(nos.iota_two_sample(m, m).coords).astype(int)
        for j in range(1, rep.M):
            col_signs = np.sign(rep.columns[:, j]).astype(int)
            assert int(np.sum(col_signs * iota_signs)) == 0
