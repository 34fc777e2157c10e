"""Counting, enumeration, and the leak census."""

from itertools import combinations, islice, permutations
from math import comb

import numpy as np
import pytest

from nos import census
from nos.census import (
    EnumerationGuardError,
    _enumerator_keys,
    _first_of_keys,
    _fixed_by_cycle_type,
    _partitions,
    _pivotset_batches,
    _sorted_row_keys,
    count_all_subgroups,
    enumerate_subgroups,
    gaussian_binomial,
    leak_census,
    oracle_census,
    orbit_counts,
)
from nos.construct import iota_two_sample
from nos.flipcore import is_subgroup, subgroup_from_basis_masks
from nos.leak import Direction, leak_summary
from test_leak import _fsum_leaks


def test_gaussian_binomial_small_values():
    assert gaussian_binomial(2, 1) == 3
    assert gaussian_binomial(4, 2) == 35
    assert gaussian_binomial(5, 0) == 1
    assert gaussian_binomial(5, 5) == 1
    assert gaussian_binomial(9, 4) == 3309747
    with pytest.raises(ValueError):
        gaussian_binomial(3, 4)


def test_gaussian_binomial_q_pascal_rule():
    # [n, k]_q = [n - 1, k - 1]_q + q^k [n - 1, k]_q
    for q in (2, 3, 4):
        for n in range(1, 10):
            assert gaussian_binomial(n, 0, q) == gaussian_binomial(n, n, q) == 1
            for k in range(1, n):
                below = gaussian_binomial(n - 1, k - 1, q) + q**k * gaussian_binomial(n - 1, k, q)
                assert gaussian_binomial(n, k, q) == below, (q, n, k)


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
    counts = orbit_counts(13)  # a closed form, so no guard
    assert all(counts[p] == counts[13 - p] for p in range(14))


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
        keys.add(tuple(round(5 * v, 10) for v in sorted(_fsum_leaks(s.element_masks(), iota))))
    assert report.distinct_counts[2] == len(keys)


def _census_by_subgroup(n, iota):
    """Reference census report: every subgroup's fsum leaks, keyed by their rounded sorted n-scaled values."""
    subgroup_counts, distinct_counts, representatives = {}, {}, []
    for p in range(n + 1):
        found = {}
        for s in enumerate_subgroups(n, p):
            subgroup_counts[p] = subgroup_counts.get(p, 0) + 1
            key = tuple(np.round(sorted(n * v for v in _fsum_leaks(s.element_masks(), iota)), 10)) if p else (n,)
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


def test_leak_census_few_valued_directions_match_per_subgroup_reference():
    # every two-sample contrast, and directions whose nonzero squares are equal, take the code enumerator key
    directions = [iota_two_sample(m1, n - m1) for n in range(2, 7) for m1 in range(1, n)] + [iota_two_sample(3, 4)]
    directions += [Direction.from_vector(v, normalize=True) for v in ([1, 0, -1, 1], [0, 1, 1, -1, 0, -1])]
    for iota in directions:
        assert leak_census(iota.n, iota=iota).to_dict() == _census_by_subgroup(iota.n, iota), iota.coords


def test_sorted_rows_key_only_directions_with_many_leaks(monkeypatch):
    calls = []
    sorted_keys = census._sorted_row_keys

    def spy(table, rows):
        calls.append(len(rows))
        return sorted_keys(table, rows)

    monkeypatch.setattr(census, "_sorted_row_keys", spy)
    leak_census(6, iota=iota_two_sample(3, 3))
    assert calls == []
    leak_census(6, iota=Direction.from_vector(np.random.default_rng(6).standard_normal(6), normalize=True))
    assert calls


def test_batch_splits_change_no_output(monkeypatch):
    general = Direction.from_vector([3.0, 2.0, 2.0, 1.0, 1.0, 1.0], normalize=True)

    def outputs():
        return [leak_census(n).to_dict() for n in range(1, 7)] + [leak_census(6, iota=general).to_dict()]

    default = outputs()
    monkeypatch.setattr(census, "_BATCH_ELEMS", 64)
    assert len(list(_pivotset_batches(6, (0, 1)))) == 16  # 2^8 subgroups of 4 elements, 16 to a batch
    assert outputs() == default


def test_batches_are_bounded_and_hold_their_bases(monkeypatch):
    # rows follow enumerate_subgroups; column 2^j is basis row j and column i the XOR of the rows at i's bits
    for bound in (64, census._BATCH_ELEMS):
        monkeypatch.setattr(census, "_BATCH_ELEMS", bound)
        for n in range(1, 7):
            for p in range(n + 1):
                batches = []
                for pivots in combinations(range(n), p):
                    for elements in _pivotset_batches(n, pivots):
                        assert elements.size <= max(bound, 1 << p)
                        bases = elements[:, [1 << j for j in range(p)]]
                        for j, q in enumerate(pivots):
                            # pivot bit set, no lower bit, no other pivot bit
                            others = sum(1 << r for r in pivots) ^ (1 << q)
                            assert np.all(bases[:, j] & ((2 << q) - 1) == 1 << q)
                            assert not np.any(bases[:, j] & others)
                        for i in range(1 << p):
                            xor = np.zeros(len(elements), dtype=elements.dtype)
                            for j in range(p):
                                if i >> j & 1:
                                    xor ^= bases[:, j]
                            assert np.array_equal(elements[:, i], xor)
                        batches.append(elements)
                reference = [[b.mask for b in s.basis] for s in enumerate_subgroups(n, p)]
                assert np.concatenate(batches)[:, [1 << j for j in range(p)]].tolist() == reference


def test_first_of_keys_matches_unique():
    rng = np.random.default_rng(29)
    cases = [rng.integers(-50, 50, size=size) for size in (2, 17, 1000, 100_000)]  # heavy repeats
    cases += [rng.integers(-(2**62), 2**62, size=5000), np.array([7]), np.full(300, -3)]
    for keys in cases:
        got, expected = _first_of_keys(keys.astype(np.int64)), np.unique(keys, return_index=True)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))


def _flip_counts(n):
    return np.array([bin(m).count("1") for m in range(1 << n)], dtype=np.int8)


def _first_of_class(keys):
    """For every row, the index of the first row with the same key."""
    _keys, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    return first[inverse.reshape(-1)]


def test_weight_keys_partition_batches_like_sorted_rows():
    # same classes and same first-occurrence representatives, batch by batch
    checked = 0
    for n in range(1, 9):
        flips = _flip_counts(n)
        for p in range(n + 1):
            radix = (1 << p) + 1
            if radix ** (n + 1) > 1 << 63:
                continue
            lut = radix ** flips.astype(np.int64)
            for pivots in combinations(range(n), p):
                for elements in _pivotset_batches(n, pivots):
                    expected = _first_of_class(_sorted_row_keys(flips, elements))
                    assert np.array_equal(_first_of_class(_enumerator_keys(lut, elements)), expected)
                    checked += 1
    assert checked > 400


def test_rank_above_half_is_exact_where_a_naive_enumerator_overflows():
    # at n = 9, rank 8, 257^10 exceeds 2^63: an int64 enumerator at R = 2^8 + 1 wraps and merges two classes
    n, p = 9, 8
    flips = _flip_counts(n)
    batches = [e for pivots in combinations(range(n), p) for e in _pivotset_batches(n, pivots)]
    naive = np.concatenate([_enumerator_keys(257 ** flips.astype(np.int64), e) for e in batches])
    rows = np.concatenate([_sorted_row_keys(flips, e) for e in batches])
    assert (len(np.unique(naive)), len(np.unique(rows, axis=0))) == (8, 9)
    assert leak_census(n, rank=p).distinct_counts == {p: 9}


def test_n9_class_counts_match_the_census_of_every_rank():
    # the counts the census gave when it enumerated every rank; above n // 2 they now come from duality
    report = leak_census(9, with_representatives=False)
    assert report.distinct_counts == dict(enumerate([1, 9, 43, 121, 210, 210, 121, 43, 9, 1]))
    assert report.total_distinct == 768
    # rank 7 enumerated directly, independently of rank 2
    flips = _flip_counts(9)
    rows = [_sorted_row_keys(flips, e) for pv in combinations(range(9), 7) for e in _pivotset_batches(9, pv)]
    assert len(np.unique(np.concatenate(rows), axis=0)) == report.distinct_counts[7] == 43


def _macwilliams(dist, n):
    """Weight distribution of the dual code: A'_j = sum_i A_i K_j(i) / |C|, K_j the Krawtchouk polynomial."""
    size = sum(dist)
    out = []
    for j in range(n + 1):
        krawtchouk = [sum((-1) ** s * comb(i, s) * comb(n - i, j - s) for s in range(j + 1)) for i in range(n + 1)]
        total = sum(a * k for a, k in zip(dist, krawtchouk))
        assert total % size == 0
        out.append(total // size)
    return tuple(out)


def test_high_rank_representatives_are_macwilliams_duals():
    for n in range(1, 9):
        report = leak_census(n)
        flips = _flip_counts(n)
        dists = {p: [] for p in range(n + 1)}
        for rep in report.representatives:
            s = subgroup_from_basis_masks(n, rep["basis_masks"])
            assert s.rank == rep["rank"]
            if rep["rank"]:
                assert sorted(leak_summary(s).scaled_distribution, reverse=True) == rep["scaled_distribution"]
            weights = np.bincount(flips[s.element_masks()], minlength=n + 1)
            scaled = np.repeat(n - 2 * np.arange(n + 1), weights).tolist()
            assert rep["scaled_distribution"] == sorted(scaled, reverse=True)
            dists[rep["rank"]].append(tuple(weights.tolist()))
        for p in range(n // 2 + 1, n + 1):
            assert len(set(dists[p])) == len(dists[p]) == report.distinct_counts[p]
            assert sorted(dists[p]) == sorted(_macwilliams(d, n) for d in dists[n - p]), (n, p)
            # the derived class count equals a direct enumeration of rank p
            batches = [e for pv in combinations(range(n), p) for e in _pivotset_batches(n, pv)]
            rows = [_sorted_row_keys(flips, e) for e in batches]
            assert len(np.unique(np.concatenate(rows), axis=0)) == report.distinct_counts[p]
            assert report.subgroup_counts[p] == sum(len(r) for r in rows)


def test_leak_census_single_rank_matches_full_report():
    for n in range(1, 8):
        full = leak_census(n)
        for p in range(n + 1):
            alone = leak_census(n, rank=p)
            assert alone.subgroup_counts == {p: full.subgroup_counts[p]}
            assert alone.distinct_counts == {p: full.distinct_counts[p]}
            assert alone.representatives == [r for r in full.representatives if r["rank"] == p]


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
            for elements in _pivotset_batches(n, pivots)
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


def test_orbit_counts_match_enumerated_tables():
    # per-rank counts of the enumerating Burnside count that Birkhoff's formula replaced
    assert list(orbit_counts(7).values()) == [1, 7, 23, 43, 43, 23, 7, 1]
    assert list(orbit_counts(8).values()) == [1, 8, 32, 77, 106, 77, 32, 8, 1]
    assert list(orbit_counts(9).values()) == [1, 9, 43, 131, 240, 240, 131, 43, 9, 1]
    assert list(orbit_counts(10).values()) == [1, 10, 56, 213, 516, 705, 516, 213, 56, 10, 1]


def test_orbit_counts_rank_one_are_weights():
    # a rank-1 subgroup is one nonzero mask, and masks of equal weight are equivalent
    for n in range(1, 17):
        assert orbit_counts(n)[1] == n


def test_fixed_subgroups_match_enumeration():
    for n in range(1, 7):
        masks = np.arange(1 << n)
        for parts in _partitions(n):
            image = []  # the permutation cycles consecutive coordinates
            for k in parts:
                image += [len(image) + (i + 1) % k for i in range(k)]
            table = sum(((masks >> i) & 1) << j for i, j in enumerate(image))
            fixed = [0] * (n + 1)
            for p in range(n + 1):
                for s in enumerate_subgroups(n, p):
                    elements = s.element_masks()
                    fixed[p] += set(table[elements].tolist()) == set(elements)
            assert _fixed_by_cycle_type(parts).tolist() == fixed, parts


def test_orbit_counts_dual_ranks_agree():
    # a permutation fixes a subgroup iff it fixes the orthogonal complement;
    # ranks p and n - p are counted independently, so this is a check
    for n in range(1, 17):
        counts = orbit_counts(n)
        assert all(counts[p] == counts[n - p] for p in range(n + 1)), n
        if n <= 9:
            assert all(orbit_counts(n, rank=p) == {p: counts[p]} for p in range(n + 1))
    with pytest.raises(ValueError):
        orbit_counts(4, rank=5)


def test_orbit_counts_bound_distinct_leak_multisets():
    # equivalent subgroups share their leak multiset; n = 6, rank 3 is the
    # first place where two inequivalent subgroups share one
    census = leak_census(6, with_representatives=False)
    orbits = orbit_counts(6)
    assert all(census.distinct_counts[p] <= orbits[p] for p in range(7))
    assert (census.distinct_counts[3], orbits[3]) == (21, 22)
