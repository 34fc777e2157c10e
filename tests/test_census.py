"""Counting, enumeration, and the leak census."""

import os
from itertools import combinations, islice, permutations

import numpy as np
import pytest

from nos.census import (
    EnumerationGuardError,
    _burnside_count,
    _pivotset_batches,
    count_all_subgroups,
    enumerate_subgroups,
    gaussian_binomial,
    leak_census,
    oracle_census,
    orbit_counts,
)
from nos.flipcore import is_subgroup
from nos.leak import Direction, leak_summary


def test_gaussian_binomial_small_values():
    assert gaussian_binomial(2, 1) == 3
    assert gaussian_binomial(4, 2) == 35
    assert gaussian_binomial(5, 0) == 1
    assert gaussian_binomial(5, 5) == 1
    assert gaussian_binomial(9, 4) == 3309747
    with pytest.raises(ValueError):
        gaussian_binomial(3, 4)


def test_gaussian_binomial_symmetry():
    for n in range(1, 10):
        for p in range(n + 1):
            assert gaussian_binomial(n, p) == gaussian_binomial(n, n - p)


def test_count_all_subgroups():
    assert count_all_subgroups(1) == 2
    assert count_all_subgroups(2) == 5
    assert count_all_subgroups(9) == 8283458


def test_enumerate_matches_count():
    for n in range(1, 7):
        for p in range(n + 1):
            assert sum(1 for _ in enumerate_subgroups(n, p)) == gaussian_binomial(n, p)


def test_enumerate_yields_valid_distinct_subgroups():
    seen = set()
    for s in enumerate_subgroups(5, 2):
        assert s.n == 5 and s.rank == 2
        assert is_subgroup(list(s.elements))
        key = tuple(s.element_masks())
        assert key not in seen
        seen.add(key)


def test_enumeration_guard():
    with pytest.raises(EnumerationGuardError):
        list(islice(enumerate_subgroups(13, 2), 1))
    with pytest.raises(EnumerationGuardError):
        leak_census(13)
    with pytest.raises(EnumerationGuardError):
        orbit_counts(13)


def test_leak_census_n4_rank2_has_6_distributions():
    report = leak_census(4, rank=2)
    assert report.subgroup_counts[2] == 35
    assert report.distinct_counts[2] == 6


def test_leak_census_n2_overall():
    report = leak_census(2)
    assert report.total_subgroups == 5
    assert report.subgroup_counts == {0: 1, 1: 3, 2: 1}
    # scaled distributions: {2}, {2,0} (x2 subgroups), {2,-2}, {2,0,0,-2}
    assert report.distinct_counts == {0: 1, 1: 2, 2: 1}


def test_leak_census_representatives_reproduce_distributions():
    report = leak_census(4, rank=2)
    for rep in report.representatives:
        if rep["rank"] == 0:
            continue
        from nos.flipcore import subgroup_from_basis_masks

        s = subgroup_from_basis_masks(4, rep["basis_masks"])
        summ = leak_summary(s)
        assert sorted(summ.scaled_distribution, reverse=True) == rep["scaled_distribution"]


def test_leak_census_counts_match_brute_force_on_general_direction():
    iota = Direction.from_vector([3.0, 2.0, 1.0, 1.0, 1.0], normalize=True)
    report = leak_census(5, iota=iota, rank=2)
    keys = set()
    for s in enumerate_subgroups(5, 2):
        summ = leak_summary(s, iota)
        keys.add(tuple(round(v, 10) for v in sorted(summ.scaled_distribution)))
    assert report.distinct_counts[2] == len(keys)


def _census_by_subgroup(n, iota):
    """Reference census report: every subgroup's leak summary, keyed by its rounded sorted distribution."""
    subgroup_counts, distinct_counts, representatives = {}, {}, []
    for p in range(n + 1):
        found = {}
        for s in enumerate_subgroups(n, p):
            subgroup_counts[p] = subgroup_counts.get(p, 0) + 1
            key = tuple(np.round(sorted(leak_summary(s, iota).scaled_distribution), 10)) if p else (n,)
            found.setdefault(key, s)
        distinct_counts[p] = len(found)
        for key, s in sorted(found.items()):
            representatives.append(
                {"rank": p, "scaled_distribution": list(key), "basis_masks": [b.mask for b in s.basis]}
            )
    return {
        "n": n,
        "uniform_iota": False,
        "subgroup_counts": {str(k): v for k, v in subgroup_counts.items()},
        "distinct_counts": {str(k): v for k, v in distinct_counts.items()},
        "total_subgroups": sum(subgroup_counts.values()),
        "total_distinct": sum(distinct_counts.values()),
        "representatives": representatives,
    }


def test_leak_census_general_direction_matches_per_subgroup_reference():
    # distributions compare as numbers: a zero leak may be 0.0 or -0.0 in the reference
    for n in range(1, 7):
        for v in (np.arange(1, n + 1), [3.0] + [1.0] * (n - 1), np.random.default_rng(n).standard_normal(n)):
            iota = Direction.from_vector(v, normalize=True)
            if not iota.is_uniform:
                assert leak_census(n, iota=iota).to_dict() == _census_by_subgroup(n, iota), (n, v)


def test_leak_census_parallel_matches_serial():
    general = Direction.from_vector([3.0, 2.0, 2.0, 1.0, 1.0, 1.0], normalize=True)
    serial = [leak_census(6).to_dict(), leak_census(6, iota=general).to_dict()]
    serial_orbits = orbit_counts(6)
    os.environ["NOS_THREADS"] = "4"
    try:
        parallel = [leak_census(6).to_dict(), leak_census(6, iota=general).to_dict()]
        parallel_orbits = orbit_counts(6)
    finally:
        del os.environ["NOS_THREADS"]
    assert serial == parallel
    assert serial_orbits == parallel_orbits


def test_oracle_census():
    assert oracle_census(3) == [1]
    assert oracle_census(4) == [1, 2, 4]
    assert oracle_census(6) == [1, 2]
    assert oracle_census(8) == [1, 2, 4, 8]


def _zero_leak_orders_by_scan(n):
    """Orders 2^p with a rank-p subgroup whose non-identity elements all flip n/2 coordinates.

    Zero leak passes to subgroups, so the scan stops at the first rank
    without one.
    """
    pop = np.array([bin(i).count("1") for i in range(1 << n)], dtype=np.int16)
    orders = [1]
    for p in range(1, n + 1):
        hit = n % 2 == 0 and any(
            np.any(np.all(pop[elements[:, 1:]] == n // 2, axis=1))  # column 0 is the identity
            for pivots in combinations(range(n), p)
            for _head, _tails, elements in _pivotset_batches(n, pivots)
        )
        if not hit:
            return orders
        orders.append(1 << p)
    return orders


def test_oracle_census_matches_full_scan():
    for n in range(1, 11):
        assert oracle_census(n) == _zero_leak_orders_by_scan(n), n


def test_census_report_serialization():
    report = leak_census(3)
    d = report.to_dict()
    assert d["total_subgroups"] == count_all_subgroups(3)
    assert d["total_distinct"] == report.total_distinct
    assert set(d["subgroup_counts"]) == {"0", "1", "2", "3"}


def _orbit_counts_brute_force(n):
    """Distinct canonical forms under all n! coordinate permutations, by rank.

    A subgroup's canonical form is the lexicographically smallest sorted
    element list among its images under every permutation.
    """
    masks = np.arange(1 << n)
    perms = list(permutations(range(n)))
    tables = np.zeros((len(perms), 1 << n), dtype=np.int64)
    for t, perm in enumerate(perms):
        for i, j in enumerate(perm):
            tables[t] |= ((masks >> i) & 1) << j
    counts = {}
    for p in range(n + 1):
        forms = set()
        for s in enumerate_subgroups(n, p):
            images = np.sort(tables[:, s.element_masks()], axis=1)
            forms.add(tuple(np.unique(images, axis=0)[0]))
        counts[p] = len(forms)
    return counts


def test_orbit_counts_match_brute_force():
    for n in range(1, 7):
        assert orbit_counts(n) == _orbit_counts_brute_force(n)


def test_orbit_counts_totals_are_inequivalent_binary_codes():
    totals = {n: sum(orbit_counts(n).values()) for n in range(4, 9)}
    assert totals == {4: 16, 5: 32, 6: 68, 7: 148, 8: 342}


def test_orbit_counts_dual_ranks_agree():
    # orbit_counts relies on this duality; enumerate the high ranks directly
    for n in range(1, 9):
        counts = orbit_counts(n)
        for p in range(n + 1):
            assert _burnside_count(n, p) == counts[n - p]
            assert orbit_counts(n, rank=p) == {p: counts[p]}
    with pytest.raises(ValueError):
        orbit_counts(4, rank=5)


def test_orbit_counts_bound_distinct_leak_multisets():
    # equivalent subgroups share their leak multiset; n = 6, rank 3 is the
    # first place where two inequivalent subgroups share one
    census = leak_census(6, with_representatives=False)
    orbits = orbit_counts(6)
    assert all(census.distinct_counts[p] <= orbits[p] for p in range(7))
    assert (census.distinct_counts[3], orbits[3]) == (21, 22)
