"""Simulation harness: reproducibility, size control, threshold behavior."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from nos import simlab
from nos.construct import greedy_near_oracle, oracle_orthogonal, oracle_signflip
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


def _named_cells(test_id, subgroup_reps):
    cfg = SimConfig(
        n=16, mu_grid=(0.0, 1.0), M_values=(16,), tests=(test_id,), replications=2000, alpha=1 / 16,
        seed=8, subgroup_reps=subgroup_reps,
    )
    return [(c["M"], c["mu"], c["power"], c["se"]) for c in power_table(cfg).cells]


def test_named_subgroups_run_as_the_oracle_at_the_same_seed():
    s = oracle_signflip(16, 4)
    want = _named_cells("oracle-signflip", {})
    assert 0.0 < want[0][2] < want[1][2]
    for named in (s, matrix_representation(s)):
        assert _named_cells("subgroup:o", {"o": named}) == want
        assert size_audit("subgroup:o", 16, 1 / 16, 2000, seed=3, subgroup_reps={"o": named}) == size_audit(
            "oracle-signflip", 16, 1 / 16, 2000, seed=3
        )


def test_named_subgroups_are_checked_before_any_cell_runs():
    with pytest.raises(ValueError, match="^subgroup 'o' has n=8, expected 16$"):
        _named_cells("subgroup:o", {"o": oracle_signflip(8, 3)})
    with pytest.raises(ValueError, match="^subgroup 'o' has n=8, expected 16$"):
        size_audit("subgroup:o", 16, 1 / 16, 10, subgroup_reps={"o": matrix_representation(oracle_signflip(8, 3))})
    for reps in ({}, {"bar": oracle_signflip(16, 4)}):
        with pytest.raises(ValueError, match="^unknown test id 'subgroup:foo'$"):
            SimConfig(n=16, mu_grid=(0.0,), M_values=(16,), tests=("t", "subgroup:foo"), replications=10,
                      alpha=1 / 16, subgroup_reps=reps)
        with pytest.raises(ValueError, match="^unknown test id 'subgroup:foo'$"):
            size_audit("subgroup:foo", 16, 1 / 16, 10, subgroup_reps=reps)


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


def test_consistency_probe_counts_are_pinned():
    # the 4 096-row blocks draw the same normals, in the same order, as the
    # earlier 65 536-row blocks did: criterion 06's seeds, and a greedy
    # subgroup at n = 24
    rep8 = _oracle_rep(8)
    assert consistency_probe(rep8, 1.5, 100_000, seed=11)["count"] == 100_000
    assert consistency_probe(rep8, 1.30, 100_000, seed=12)["count"] == 99_835
    rep24 = matrix_representation(greedy_near_oracle(24, 32, seed=1))
    assert consistency_probe(rep24, 1.0, 100_000, seed=3)["count"] == 99_656


def _powers(tests, **kw):
    cfg = SimConfig(n=16, mu_grid=(0.0, 0.5), M_values=(16,), tests=tests, replications=5000, alpha=1 / 16,
                    seed=12, **kw)
    return {(c["test"], c["mu"]): c["power"] for c in power_table(cfg).cells}


def test_cells_without_mc_draws_ignore_the_rest_of_the_roster():
    named = {"o": oracle_signflip(16, 4)}
    alone = {t: _powers((t,), subgroup_reps=named) for t in ("t", "oracle-signflip", "subgroup:o")}
    full = _powers(("mc-signflip", "t", "mc-z", "subgroup:o", "oracle-signflip"), subgroup_reps=named)
    for t, cells in alone.items():
        for key, power in cells.items():
            assert full[key] == power, key
    # every cell tests the same datasets, so the named copy of the oracle agrees with it cell by cell
    assert full[("subgroup:o", 0.5)] == full[("oracle-signflip", 0.5)]


def test_power_table_cell_draws_what_one_whole_set_call_draws():
    # replay cell 3 (mc-signflip, M = 16, mu = 0.5) over 9 000 rows, three
    # blocks: the data and the cell's MC draws made in one call each
    n, M, reps, seed = 8, 16, 9000, 31
    cfg = SimConfig(n=n, mu_grid=(0.0, 0.5), M_values=(8, M), tests=("mc-signflip",), replications=reps,
                    alpha=1 / 8, seed=seed)
    cell = power_table(cfg).cells[3]
    assert (cell["M"], cell["mu"]) == (M, 0.5)
    iota = Direction.uniform(n)
    X = 0.5 * iota.coords + _noise(_cell_rng(seed), reps, n, "normal", 1.0, 1.0)
    counts = exceed_counts("mc-signflip", X, iota=iota.coords, M=M, rng=_cell_rng(seed, 3))[0]
    assert cell["power"] == np.count_nonzero(counts / M <= 1 / 8) / reps


def test_power_table_memory_is_one_block_at_n_256():
    # 20 000 rows at n = 256: the whole noise array alone is 39 MiB
    cfg = SimConfig(n=256, mu_grid=(0.2,), M_values=(16,), tests=("t", "mc-z"), replications=20_000,
                    alpha=1 / 16, seed=1)
    tracemalloc.start()
    try:
        power_table(cfg)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak / 2**20


def test_mc_signflip_size_audit_memory_is_bounded_by_bytes():
    # a 4 096-row block at n = 256, M = 64 unpacks 66 MB of int8 signs in one piece when
    # only rows bound it (97.1 MiB peak); the byte budget unpacks them in 16 MiB slices
    size_audit("mc-signflip", 16, 1 / 16, 100, M=16, seed=1)
    tracemalloc.start()
    try:
        size_audit("mc-signflip", 256, 1 / 16, 4096, M=64, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 56 * 2**20, peak / 2**20


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


def test_pvalue_variability_subgroup_figure_ignores_the_mc_stream(monkeypatch):
    rep = _oracle_rep(16)
    base = pvalue_variability(16, 0.5, 16, 20, 100, seed=4, rep_subgroup=rep)
    real = simlab.exceed_counts

    def other_mc_stream(family, X, side="one", **kw):
        if family.startswith("mc-"):
            kw["rng"] = np.random.default_rng(99)
        return real(family, X, side, **kw)

    monkeypatch.setattr(simlab, "exceed_counts", other_mc_stream)
    moved = pvalue_variability(16, 0.5, 16, 20, 100, seed=4, rep_subgroup=rep)
    assert moved["avg_var_subgroup_permuted"] == base["avg_var_subgroup_permuted"]
    assert moved["avg_var_mc"] != base["avg_var_mc"]


def test_pvalue_variability_blocks_draw_what_one_whole_set_call_draws():
    # 9 000 resamples of one dataset, three blocks, replayed by one call per family on the whole tiled set
    n, M, resamples, seed = 16, 16, 9000, 12
    rep = _oracle_rep(n)
    out = pvalue_variability(n, 0.5, M, 1, resamples, seed=seed, rep_subgroup=rep)
    tiled = np.tile(0.5 + _cell_rng(seed).standard_normal(n), (resamples, 1))
    sub = exceed_counts("subgroup", _cell_rng(seed, 1).permuted(tiled, axis=1), rep=rep)[0]
    flips = exceed_counts("mc-signflip", tiled, iota=Direction.uniform(n).coords, M=M, replacement="with",
                          rng=_cell_rng(seed, 0))[0]
    assert out["avg_var_subgroup_permuted"] == float(np.var(sub / M))
    assert out["avg_var_mc"] == float(np.var(flips / M))


def test_pvalue_variability_memory_does_not_grow_with_resamples():
    # 50 000 resamples at n = M = 32 peaked at 40.1 MiB as one tiled set, and at 9.0 MiB at 4 096
    rep = _oracle_rep(32)
    pvalue_variability(32, 0.5, 32, 1, 100, seed=4, rep_subgroup=rep)
    tracemalloc.start()
    try:
        pvalue_variability(32, 0.5, 32, 1, 50_000, seed=4, rep_subgroup=rep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20, peak / 2**20


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
    # SE is that of the per-dataset differences of the two indicators. The
    # data come from spawn key (), cell 1's MC draws from (1,); 4 000 rows are
    # one block
    n = M = 10
    reps = 4000
    row = conjecture_probe(n, M, [0.0, 1.0], reps, seed=6)[1]
    rep = oracle_orthogonal(n, M, Direction.uniform(n))
    X = 1.0 * rep.iota + _noise(_cell_rng(6), reps, n, "fixed-norm-sphere", 1.0, 1.0)
    sub = exceed_counts("subgroup", X, rep=rep)[0] / M <= 1 / M
    mc = exceed_counts("mc-orthogonal", X, iota=rep.iota, M=M, rng=_cell_rng(6, 1))[0] / M <= 1 / M
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
