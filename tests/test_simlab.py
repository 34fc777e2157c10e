"""Simulation harness: reproducibility, size control, threshold behavior."""

import json
import math

import numpy as np
import pytest

from nos.construct import oracle_orthogonal, oracle_signflip
from nos.leak import Direction, matrix_representation
from nos.simlab import (
    SimConfig,
    _cell_rng,
    _noise,
    conjecture_probe,
    consistency_probe,
    power_curve,
    power_table,
    pvalue_variability,
    size_audit,
)
from nos.testkit import exceed_counts

REPS = 20000  # desk-scale for unit tests; acceptance tests run the full 1e5


def _oracle_rep(n):
    return matrix_representation(oracle_signflip(n, n.bit_length() - 1))


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n=4, mu_grid=(), M_values=(4,), tests=("t",), replications=10)
    with pytest.raises(ValueError):
        SimConfig(n=4, mu_grid=(0.0,), M_values=(4,), tests=("nope",), replications=10)
    with pytest.raises(ValueError):
        SimConfig(n=4, mu_grid=(0.0,), M_values=(4,), tests=("t",), replications=0)
    with pytest.warns(UserWarning) as record:
        SimConfig(n=4, mu_grid=(0.0,), M_values=(7,), tests=("t",), replications=10, alpha=0.05)
    # the warning names the line that built the config, not the generated __init__
    assert [w.filename for w in record] == [__file__]


def test_power_table_reproducible():
    cfg = SimConfig(
        n=8, mu_grid=(0.0, 0.5), M_values=(8,), tests=("oracle-signflip", "mc-signflip", "t"),
        replications=2000, alpha=1 / 8, seed=77,
    )
    a = power_table(cfg)
    b = power_table(cfg)
    assert a.cells == b.cells
    assert all(0.0 <= c["power"] <= 1.0 for c in a.cells)


def test_power_table_monotone_in_mu():
    cfg = SimConfig(
        n=8, mu_grid=(0.0, 1.0, 2.5), M_values=(8,), tests=("oracle-signflip",),
        replications=REPS, alpha=1 / 8, seed=5,
    )
    cells = power_table(cfg).cells
    powers = [c["power"] for c in cells]
    slack = 3 * max(c["se"] for c in cells)
    assert powers[0] <= powers[1] + slack <= powers[2] + 2 * slack


def test_size_audit_exact_tests():
    for test_id, alpha, M in (
        ("oracle-signflip", 1 / 8, 8),
        ("mc-signflip", 0.05, 20),
        ("t", 0.05, None),
        ("mc-z", 1 / 20, 20),
    ):
        rate = size_audit(test_id, 8, alpha, REPS, seed=21, M=M)
        se = np.sqrt(alpha * (1 - alpha) / REPS)
        assert abs(rate - alpha) <= 4 * se, (test_id, rate)


def test_size_audit_mc_signflip_draws_many_distinct_patterns():
    # 63 of the 255 non-identity patterns per replication
    rate = size_audit("mc-signflip", 8, 1 / 16, 256, seed=3, M=64)
    assert abs(rate - 1 / 16) <= 5 * np.sqrt(1 / 16 * 15 / 16 / 256)


def test_power_table_two_sided_mc_z_is_symmetric():
    # a two-sided test has equal power at -mu and +mu; mc-z used to run one-sided here
    cfg = SimConfig(
        n=16, mu_grid=(-1.0, 1.0), M_values=(16,), tests=("mc-z",),
        replications=REPS, alpha=1 / 16, seed=3,
    )
    low, high = power_table(cfg, side="two").cells
    assert abs(low["power"] - high["power"]) <= 5 * np.hypot(low["se"], high["se"])


def test_consistency_probe_null_never_all_rejects():
    rep = _oracle_rep(8)
    out = consistency_probe(rep, 0.0, 2000, seed=1)
    assert not out["all_rejected"]
    assert out["count"] < 2000


def test_consistency_probe_above_threshold():
    # snr beyond sqrt(2): rejection is deterministic, not merely frequent
    rep = _oracle_rep(8)
    out = consistency_probe(rep, 1.5, REPS, seed=2)
    assert out["all_rejected"] and out["count"] == REPS


def test_power_curve_shape_and_endpoints():
    rep = _oracle_rep(8)
    rows = power_curve(8, 8, rep, [0.0, 2.0], 4000, seed=3)
    assert [r["snr"] for r in rows] == [0.0, 2.0]
    assert rows[0]["subgroup_power"] == pytest.approx(1 / 8, abs=0.03)
    assert rows[1]["subgroup_power"] == 1.0
    assert rows[1]["mc_orthogonal_power"] < 1.0


def test_pvalue_variability_ordering():
    rep = _oracle_rep(16)
    out = pvalue_variability(16, 0.5, 16, 50, 200, seed=4, rep_subgroup=rep)
    assert 0.0 < out["avg_var_subgroup_permuted"] < out["avg_var_mc"]


def test_conjecture_probe_reports_differences():
    rows = conjecture_probe(10, 10, [0.0, 1.0], 4000, seed=6)
    assert len(rows) == 2
    for row in rows:
        assert row["power_difference"] == pytest.approx(
            row["subgroup_power"] - row["mc_orthogonal_power"], abs=1e-12
        )
        assert row["difference_se"] > 0.0


def test_conjecture_probe_difference_se_is_paired():
    # replay the snr = 1 cell: both tests reject on the same datasets, so the
    # SE is that of the per-dataset differences of the two indicators
    n = M = 10
    reps = 4000
    row = conjecture_probe(n, M, [0.0, 1.0], reps, seed=6)[1]
    rep = oracle_orthogonal(n, M, Direction.uniform(n))
    rng = _cell_rng(6, 1)
    X = 1.0 * rep.iota + _noise(rng, reps, n, "fixed-norm-sphere", 1.0, 1.0)
    sub = exceed_counts("subgroup", X, rep=rep)[0] / M <= 1 / M
    mc = exceed_counts("mc-orthogonal", X, iota=rep.iota, M=M, rng=rng)[0] / M <= 1 / M
    diff = sub.astype(float) - mc
    assert row["power_difference"] == pytest.approx(diff.mean(), abs=1e-12)
    assert row["difference_se"] == pytest.approx(diff.std() / math.sqrt(reps), rel=1e-12)
    # the indicators correlate positively here, so pairing shrinks the SE
    assert np.corrcoef(sub, mc)[0, 1] > 0
    assert row["difference_se"] < math.hypot(row["subgroup_se"], row["mc_orthogonal_se"])


def test_mc_mode_with_replacement_runs():
    cfg = SimConfig(
        n=6, mu_grid=(0.5,), M_values=(16,), tests=("mc-signflip",),
        replications=2000, alpha=1 / 16, mc_mode="with", seed=9,
    )
    cells = power_table(cfg).cells
    assert 0.0 <= cells[0]["power"] <= 1.0


def test_report_serialization():
    cfg = SimConfig(n=4, mu_grid=(0.0,), M_values=(4,), tests=("t",), replications=100, alpha=0.25, seed=0)
    d = power_table(cfg).to_dict()
    assert d["config"]["n"] == 4
    assert len(d["cells"]) == 1
    # a seeded report is byte-reproducible: it holds no wall time
    assert json.dumps(d) == json.dumps(power_table(cfg).to_dict())
