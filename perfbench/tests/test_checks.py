"""Each benchmark check accepts a correct output and rejects a corrupted one.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
Correct outputs come from nos at small sizes; each corruption is the
smallest change that makes the output wrong.
"""

import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import checks  # noqa: E402
import nos  # noqa: E402


# --- census -------------------------------------------------------------------


@pytest.fixture(scope="module")
def census6():
    return nos.leak_census(6).to_dict(), nos.orbit_counts(6)


def test_q_binomials_match_closed_form():
    for n in range(10):
        assert checks.q_binomials(n) == [nos.gaussian_binomial(n, p) for p in range(n + 1)]


def test_census_accepts_correct_report(census6):
    assert checks.census_failures(*census6) == []


def test_census_rejects_dropped_class(census6):
    report, orbits = copy.deepcopy(census6)
    dropped = next(i for i, r in enumerate(report["representatives"]) if r["rank"] == 2)
    del report["representatives"][dropped]
    report["distinct_counts"]["2"] -= 1
    assert checks.census_failures(report, orbits)  # rank 2 no longer maps onto all of rank 4


def test_census_rejects_wrong_subgroup_count(census6):
    report, orbits = copy.deepcopy(census6)
    report["subgroup_counts"]["2"] += 1
    assert checks.census_failures(report, orbits)


def test_census_rejects_wrong_distribution(census6):
    report, orbits = copy.deepcopy(census6)
    rep = next(r for r in report["representatives"] if r["rank"] == 2)
    rep["scaled_distribution"][-1] += 2
    assert checks.census_failures(report, orbits)


def test_census_rejects_dependent_basis(census6):
    report, orbits = copy.deepcopy(census6)
    rep = next(r for r in report["representatives"] if r["rank"] == 2)
    rep["basis_masks"][1] = rep["basis_masks"][0]
    assert checks.census_failures(report, orbits)


def test_census_rejects_asymmetric_orbits(census6):
    report, orbits = copy.deepcopy(census6)
    orbits[2] += 1
    assert checks.census_failures(report, orbits)


def test_census_rejects_orbits_below_distinct(census6):
    report, orbits = copy.deepcopy(census6)
    orbits[3] = report["distinct_counts"]["3"] - 1
    assert checks.census_failures(report, orbits)


def test_macwilliams_maps_a_code_to_its_dual():
    # the [7,4] Hamming code and the [7,3] simplex code are duals
    hamming = checks.weight_distribution(checks.xor_span([0b0001011, 0b0010110, 0b0101100, 0b1011000]), 7)
    simplex = checks.macwilliams(hamming, 7)
    assert simplex == (1, 0, 0, 0, 7, 0, 0, 0)
    assert checks.macwilliams(simplex, 7) == hamming


# --- .nos files and subgroups -----------------------------------------------------


@pytest.fixture(scope="module")
def oracle16():
    sub = nos.oracle_signflip(16, 3)
    return sub, nos.format_subgroup(sub)


def test_parse_nos_reads_the_canonical_text(oracle16):
    sub, text = oracle16
    assert checks.parse_nos(text) == (16, sub.element_masks())


def test_parse_nos_rejects_bad_token(oracle16):
    _sub, text = oracle16
    with pytest.raises(ValueError):
        checks.parse_nos(text.replace("+1", "+2", 1))


def test_subgroup_accepts_oracle(oracle16):
    sub, _text = oracle16
    assert checks.subgroup_failures(sub.element_masks(), 16, 8, half_flips=True) == []


def test_subgroup_rejects_wrong_popcount(oracle16):
    sub, _text = oracle16
    masks = sub.element_masks()
    masks[-1] ^= 1 << 15  # one element now flips n/2 - 1 coordinates
    assert checks.subgroup_failures(masks, 16, 8, half_flips=True)
    assert checks.subgroup_failures([0] + sorted(masks[1:]), 16, 8)  # closure breaks too


def test_subgroup_rejects_wrong_order(oracle16):
    sub, _text = oracle16
    assert checks.subgroup_failures(sub.element_masks(), 16, 16)


def test_construct_report_rejects_wrong_delta(oracle16):
    sub, _text = oracle16
    masks = sub.element_masks()
    good = {"n": 16, "order": 8, "method": "oracle", "delta_abs": 0.0}
    assert checks.construct_report_failures(good, masks, 16, 8, "oracle") == []
    assert checks.construct_report_failures({**good, "delta_abs": 0.125}, masks, 16, 8, "oracle")


def test_sign_matrix_matches_elements(oracle16):
    sub, _text = oracle16
    signs = checks.sign_matrix(sub.element_masks(), 16)
    assert np.array_equal(signs, np.array([e.signs() for e in sub.elements], dtype=float))


# --- test results --------------------------------------------------------------------


@pytest.fixture(scope="module")
def dataset16():
    x = np.random.default_rng(3).standard_normal(16) + 0.3
    return nos.Dataset.from_vector(x)


def test_pvalue_rejects_off_by_one_over_m(dataset16):
    rep = nos.matrix_representation(nos.oracle_signflip(16, 4))
    res = nos.subgroup_test(dataset16, rep, 1 / 16).to_dict()
    assert checks.pvalue_failures(res, 16, 1 / 16) == []
    shifted = {**res, "p_value": res["p_value"] + 1 / 16}
    if shifted["p_value"] > 1:
        shifted["p_value"] = res["p_value"] - 1 / 16
    assert checks.pvalue_failures(shifted, 16, 1 / 16)
    assert checks.pvalue_failures({**res, "p_value": res["p_value"] + 0.5 / 16}, 16, 1 / 16)
    assert checks.pvalue_failures({**res, "reject": not res["reject"]}, 16, 1 / 16)


def test_t_test_rejects_a_shifted_pvalue(dataset16):
    res = nos.full_orthogonal_test(dataset16, 0.05).to_dict()
    assert checks.t_test_failures(res, dataset16.x) == []
    assert checks.t_test_failures({**res, "p_value": res["p_value"] + 1e-8}, dataset16.x)


def test_invariance_rejects_a_liberal_test(dataset16):
    sub = nos.oracle_signflip(16, 4)
    rep = nos.matrix_representation(sub)
    signs = checks.sign_matrix(sub.element_masks(), 16)
    iota = rep.iota
    alpha = 4 / 16

    def nos_rejects(y):
        return nos.subgroup_test(nos.Dataset.from_vector(y), rep, alpha).reject

    def off_by_one_rejects(y):  # leaves the identity out of the count: too liberal
        stats = y @ rep.columns
        return np.count_nonzero(stats > stats[0]) / 16 <= alpha

    assert checks.invariance_failures(dataset16.x, signs, iota, alpha, nos_rejects) == []
    assert checks.invariance_failures(dataset16.x, signs, iota, alpha, off_by_one_rejects)
    assert checks.invariance_failures(dataset16.x, signs, iota, alpha, lambda y: False)


def test_same_result_rejects_a_changed_count(dataset16):
    a = nos.mc_signflip_test(dataset16, 64, 0.05, seed=1).to_dict()
    b = nos.mc_signflip_test(dataset16, 64, 0.05, seed=1).to_dict()
    assert checks.same_result_failures(a, b, "same seed") == []
    assert checks.same_result_failures(a, {**b, "exceed_count": b["exceed_count"] + 1}, "same seed")


# --- simulation ------------------------------------------------------------------------


TESTS = ("oracle-signflip", "mc-z")
MUS = (0.0, 0.5)


@pytest.fixture(scope="module")
def table():
    cfg = nos.SimConfig(n=16, mu_grid=MUS, M_values=(16,), tests=TESTS, replications=4000,
                        alpha=1 / 16, seed=7)
    return nos.power_table(cfg).cells


def test_power_table_accepts_correct_cells(table):
    assert checks.power_table_failures(table, TESTS, MUS, 16, 1 / 16, 4000) == []


def test_power_table_rejects_an_inflated_null_rate(table):
    cells = copy.deepcopy(table)
    cells[0]["power"] = 2 / 16  # ties counted for rejection would roughly double it
    cells[0]["se"] = math.sqrt(cells[0]["power"] * (1 - cells[0]["power"]) / 4000)
    assert checks.power_table_failures(cells, TESTS, MUS, 16, 1 / 16, 4000)


def test_power_table_rejects_a_missing_cell(table):
    assert checks.power_table_failures(table[:-1], TESTS, MUS, 16, 1 / 16, 4000)


def test_power_table_rejects_oracle_far_from_mc_z(table):
    cells = copy.deepcopy(table)
    cells[1]["power"] = 0.5
    cells[1]["se"] = math.sqrt(0.25 / 4000)
    assert checks.power_table_failures(cells, TESTS, MUS, 16, 1 / 16, 4000)


def test_size_band():
    assert checks.size_failures(0.05, 0.05, 20000, "t") == []
    assert checks.size_failures(0.06, 0.05, 20000, "t")


def test_probe_checks():
    assert checks.probe_failures({"all_rejected": True, "count": 10, "replications": 10}, 10, True) == []
    assert checks.probe_failures({"all_rejected": False, "count": 9, "replications": 10}, 10, True)
    assert checks.probe_failures({"all_rejected": True, "count": 10, "replications": 10}, 10, False)
    assert checks.probe_failures({"all_rejected": True, "count": 9, "replications": 10}, 10, True)


def test_pvar_ordering():
    assert checks.pvar_failures({"avg_var_subgroup_permuted": 1e-4, "avg_var_mc": 2e-4}) == []
    assert checks.pvar_failures({"avg_var_subgroup_permuted": 2e-4, "avg_var_mc": 1e-4})


def test_cell_rerun_is_byte_identical(table):
    cfg = nos.SimConfig(n=16, mu_grid=MUS[:1], M_values=(16,), tests=TESTS[:1], replications=4000,
                        alpha=1 / 16, seed=7)
    assert json.dumps(nos.power_table(cfg).cells[0], sort_keys=True) == json.dumps(table[0], sort_keys=True)
