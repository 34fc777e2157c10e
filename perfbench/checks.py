"""Output checks computed apart from nos.

Every function returns a list of failure messages; an empty list means
the output passed. Each check is a property or a standard-error band
that holds on any seed, so none stores a copy of a past output. The
algebra (2-binomials, XOR spans, weight distributions, Krawtchouk
transforms, .nos parsing) is written here from scratch and calls no nos
function.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

#: half-width of the standard-error bands, in standard errors; a correct
#: program fails one band check with probability about 6e-7
BAND_SE = 5.0


# --- GF(2) algebra ---------------------------------------------------------


def q_binomials(n: int) -> list[int]:
    """Row n of the 2-binomials by the q-Pascal rule [m,k] = [m-1,k-1] + 2^k [m-1,k]."""
    row = [1]
    for m in range(1, n + 1):
        row = [1] + [row[k - 1] + (1 << k) * row[k] for k in range(1, m)] + [1]
    return row


def xor_span(basis) -> list[int]:
    """Every XOR combination of the basis masks, with repeats if they are dependent."""
    elems = [0]
    for b in basis:
        elems += [e ^ b for e in elems]
    return elems


def xor_basis(masks) -> list[int]:
    """A basis of the span of ``masks`` (elimination on the highest set bit)."""
    basis: dict[int, int] = {}
    for m in masks:
        v = m
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return list(basis.values())


def weight_distribution(elems, n: int) -> tuple[int, ...]:
    """(A_0, ..., A_n): how many elements flip exactly w coordinates."""
    counts = Counter(e.bit_count() for e in elems)
    return tuple(counts.get(w, 0) for w in range(n + 1))


def macwilliams(dist: tuple[int, ...], n: int) -> tuple[int, ...] | None:
    """Weight distribution of the dual code, exactly; None if it is not integral."""
    size = sum(dist)
    out = []
    for j in range(n + 1):
        total = sum(
            a * sum((-1) ** s * math.comb(i, s) * math.comb(n - i, j - s) for s in range(j + 1))
            for i, a in enumerate(dist)
        )
        if total % size:
            return None
        out.append(total // size)
    return tuple(out)


# --- census ------------------------------------------------------------------


def census_failures(report: dict, orbits: dict) -> list[str]:
    """Check a ``LeakCensusReport.to_dict()`` over all ranks and its ``orbit_counts``."""
    out: list[str] = []
    n = report["n"]
    qb = q_binomials(n)
    counts = {int(p): v for p, v in report["subgroup_counts"].items()}
    distinct = {int(p): v for p, v in report["distinct_counts"].items()}
    orbits = {int(p): v for p, v in orbits.items()}
    if sorted(counts) != list(range(n + 1)) or sorted(distinct) != list(range(n + 1)):
        return [f"census ranks {sorted(counts)} are not 0..{n}"]
    for p in range(n + 1):
        if counts[p] != qb[p]:
            out.append(f"rank {p}: {counts[p]} subgroups, the 2-binomial is {qb[p]}")

    by_rank: dict[int, list[tuple[int, ...]]] = {p: [] for p in range(n + 1)}
    for rep in report["representatives"]:
        p, basis, scaled = rep["rank"], rep["basis_masks"], rep["scaled_distribution"]
        elems = xor_span(basis)
        if len(basis) != p or len(set(elems)) != 1 << p or any(not 0 <= b < 1 << n for b in basis):
            out.append(f"rank {p}: basis {basis} does not span a rank-{p} subgroup")
            continue
        mine = sorted((n - 2 * e.bit_count() for e in elems), reverse=True)
        if mine != list(scaled):
            out.append(f"rank {p}: basis {basis} spans the distribution {mine}, report says {scaled}")
        by_rank[p].append(weight_distribution(elems, n))
    for p, dists in by_rank.items():
        if len(set(dists)) != len(dists):
            out.append(f"rank {p}: two representatives share a leak distribution")
        if len(dists) != distinct[p]:
            out.append(f"rank {p}: {len(dists)} representatives, distinct_counts says {distinct[p]}")

    # MacWilliams: the dual of a rank-p class is a rank-(n - p) class, one to one
    for p, dists in by_rank.items():
        duals = {macwilliams(d, n) for d in set(dists)}
        if duals != set(by_rank[n - p]) or len(duals) != len(set(dists)):
            out.append(f"rank {p}: the MacWilliams transform does not map its classes onto rank {n - p}")

    if sorted(orbits) != list(range(n + 1)):
        out.append(f"orbit ranks {sorted(orbits)} are not 0..{n}")
    else:
        for p in range(n + 1):
            if orbits[p] != orbits[n - p]:
                out.append(f"orbit_counts[{p}] = {orbits[p]} != orbit_counts[{n - p}] = {orbits[n - p]}")
            if orbits[p] < distinct[p]:
                out.append(f"orbit_counts[{p}] = {orbits[p]} < distinct_counts[{p}] = {distinct[p]}")
    return out


# --- .nos files and subgroups -------------------------------------------------


def parse_nos(text: str) -> tuple[int, list[int]]:
    """(n, element masks) of canonical .nos text; raises ValueError on any deviation.

    Each row of ``+1``/``-1`` tokens is read with numpy as bytes: in
    canonical text the sign of coordinate i sits at byte 3i.
    """
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("text does not end with a newline")
    lines = lines[:-1]
    head = lines[0].split()
    if len(head) != 3 or head[0] != "NOS1":
        raise ValueError(f"bad header {lines[0]!r}")
    n, m = int(head[1]), int(head[2])
    if len(lines) != m + 1:
        raise ValueError(f"header promises {m} rows, found {len(lines) - 1}")
    width = 3 * n - 1
    masks = []
    for r, line in enumerate(lines[1:]):
        raw = np.frombuffer(line.encode("ascii"), dtype=np.uint8)
        if raw.size != width or np.any(raw[1::3] != ord("1")) or np.any(raw[2::3] != ord(" ")):
            raise ValueError(f"row {r} is not {n} tokens of +1/-1")
        sign = raw[0::3]
        if np.any((sign != ord("+")) & (sign != ord("-"))):
            raise ValueError(f"row {r} has a token that is not +1/-1")
        bits = np.packbits(sign == ord("-"), bitorder="little")
        masks.append(int.from_bytes(bits.tobytes(), "little"))
    return n, masks


def subgroup_failures(masks: list[int], n: int, order: int, half_flips: bool = False) -> list[str]:
    """The masks are a subgroup of the requested order, identity first, ascending after."""
    out: list[str] = []
    if len(masks) != order:
        out.append(f"{len(masks)} elements, requested order {order}")
    if not masks or masks[0] != 0:
        out.append("the first element is not the identity")
    if masks[1:] != sorted(masks[1:]):
        out.append("elements after the identity are not in ascending mask order")
    if len(set(masks)) != len(masks):
        out.append("elements repeat")
    if any(not 0 <= m < 1 << n for m in masks):
        out.append(f"an element does not fit in {n} bits")
    basis = xor_basis(masks)
    if (1 << len(basis)) != len(masks) or set(xor_span(basis)) != set(masks):
        out.append("elements are not closed under XOR")
    if half_flips:
        bad = [m for m in masks[1:] if 2 * m.bit_count() != n]
        if bad:
            out.append(f"{len(bad)} non-identity elements do not flip exactly n/2 coordinates")
    return out


def delta_abs(masks: list[int], n: int) -> float:
    """max |n - 2 popcount| / n over the non-identity elements."""
    return max(abs(n - 2 * m.bit_count()) for m in masks[1:]) / n


def construct_report_failures(report: dict, masks: list[int], n: int, order: int, method: str) -> list[str]:
    out = []
    for key, want in (("n", n), ("order", order), ("method", method)):
        if report.get(key) != want:
            out.append(f"construct report {key} = {report.get(key)!r}, expected {want!r}")
    if masks and report.get("delta_abs") != delta_abs(masks, n):
        out.append(
            f"construct report delta_abs = {report.get('delta_abs')!r}, "
            f"popcounts give {delta_abs(masks, n)!r}"
        )
    return out


def sign_matrix(masks: list[int], n: int) -> np.ndarray:
    """(M, n) array of +-1: row g is the diagonal of element g."""
    width = (n + 7) // 8
    raw = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), dtype=np.uint8)
    bits = np.unpackbits(raw.reshape(len(masks), width), axis=1, bitorder="little")[:, :n]
    return 1.0 - 2.0 * bits


# --- test results -------------------------------------------------------------


def pvalue_failures(result: dict, M: int, alpha: float) -> list[str]:
    """p = exceed/M with 1 <= exceed <= M, and reject iff p <= alpha."""
    p, exceed = result["p_value"], result["exceed_count"]
    k = round(p * M)
    if abs(p * M - k) > 1e-9 or not 1 <= k <= M:
        return [f"p-value {p!r} is not a multiple of 1/{M} in [1/{M}, 1]"]
    if exceed != k or result["total"] != M:
        return [f"exceed_count {exceed} / total {result['total']} do not give p = {p!r}"]
    if result["reject"] != (p <= alpha):
        return [f"reject = {result['reject']} at p = {p!r}, alpha = {alpha!r}"]
    return []


def t_test_pvalue(x: np.ndarray) -> float:
    """One-sided one-sample t-test p-value from scipy."""
    from scipy import stats

    n = len(x)
    t = math.sqrt(n - 1) * x.mean() / x.std(ddof=0)
    return float(stats.t.sf(t, n - 1))


def t_test_failures(result: dict, x: np.ndarray) -> list[str]:
    ref = t_test_pvalue(x)
    if not abs(result["p_value"] - ref) <= 1e-10:
        return [f"full-orthogonal p-value {result['p_value']!r} differs from the t-test's {ref!r}"]
    return []


def invariance_failures(x: np.ndarray, signs: np.ndarray, iota: np.ndarray, alpha: float, rejects) -> list[str]:
    """#{g in S : the test rejects at g.x} <= floor(alpha M), equal when the statistics are distinct.

    ``rejects(y)`` runs the test on data y and returns whether it rejects.
    """
    M = signs.shape[0]
    cap = math.floor(alpha * M + 1e-9)
    count = sum(bool(rejects(row * x)) for row in signs)
    stats = np.sort((signs * iota) @ x)
    distinct = np.all(np.diff(stats) > 1e-9 * (1.0 + np.abs(stats).max()))
    if count > cap or (distinct and count != cap):
        return [f"the test rejects at {count} of {M} group images, floor(alpha M) = {cap}"]
    return []


def same_result_failures(a: dict, b: dict, what: str) -> list[str]:
    return [] if a == b else [f"{what}: {a} != {b}"]


# --- simulation -----------------------------------------------------------------


def band_failure(value: float, target: float, se: float, what: str) -> list[str]:
    if abs(value - target) > BAND_SE * se:
        return [f"{what}: {value!r} is more than {BAND_SE} SE ({se:.3g}) from {target!r}"]
    return []


def power_table_failures(cells: list[dict], tests, mus, M: int, alpha: float, reps: int) -> list[str]:
    """Cell grid and SE fields; the oracle's null rate and its agreement with mc-z."""
    out: list[str] = []
    grid = {(c["test"], c["mu"]): c for c in cells}
    if len(cells) != len(tests) * len(mus) or set(grid) != {(t, m) for t in tests for m in mus}:
        return [f"power table cells {sorted(grid)} do not cover tests x mu"]
    for c in cells:
        p = c["power"]
        if not 0.0 <= p <= 1.0 or abs(c["se"] - math.sqrt(p * (1 - p) / reps)) > 1e-12:
            out.append(f"cell {c['test']} mu={c['mu']}: power {p!r} or se {c['se']!r} malformed")
    exact = math.floor(alpha * M + 1e-9) / M
    null = grid[("oracle-signflip", mus[0])]["power"]
    out += band_failure(null, exact, math.sqrt(exact * (1 - exact) / reps), "oracle-signflip null rate")
    for mu in mus:
        a, b = grid[("oracle-signflip", mu)], grid[("mc-z", mu)]
        out += band_failure(a["power"], b["power"], math.hypot(a["se"], b["se"]), f"oracle vs mc-z power at mu={mu}")
    return out


def size_failures(rate: float, alpha: float, reps: int, test_id: str) -> list[str]:
    return band_failure(rate, alpha, math.sqrt(alpha * (1 - alpha) / reps), f"{test_id} null size")


def probe_failures(result: dict, reps: int, above: bool) -> list[str]:
    if result["replications"] != reps or not 0 <= result["count"] <= reps:
        return [f"consistency probe counts {result} malformed"]
    if result["all_rejected"] != (result["count"] == reps):
        return [f"consistency probe all_rejected disagrees with its count: {result}"]
    if above and not result["all_rejected"]:
        return [f"above the threshold not every replication rejects: {result}"]
    if not above and result["all_rejected"]:
        return [f"below the threshold every replication rejects: {result}"]
    return []


def pvar_failures(result: dict) -> list[str]:
    sub, mc = result["avg_var_subgroup_permuted"], result["avg_var_mc"]
    if not 0.0 <= sub < mc:
        return [f"subgroup p-value variance {sub!r} is not below the MC variance {mc!r}"]
    return []
