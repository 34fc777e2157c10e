"""Which nos functions the traced run wraps, and the per-layer metrics read from their spans.

Each wrap names the module that holds the binding the caller uses: the
CLI calls ``leak_summary`` and ``matrix_representation`` through its own
imports, ``construct`` and ``io`` call ``span``-family functions through
theirs, and the benchmark calls every other function through its module.
"""

from __future__ import annotations

from checks import q_binomials
from tracer import Tracer, aggregate

CENSUS_MID = 4  # ranks <= 4 count as low at n = 8; MacWilliams duality would derive the rest

#: (metric name, unit) in report order
PER_LAYER = [
    ("census.low_ranks_s", "s"),
    ("census.high_ranks_s", "s"),
    ("census.orbit_counts_s", "s"),
    ("census.subgroups_per_s", "1/s"),
    ("construct.greedy_near_oracle_s", "s"),
    ("construct.candidates_per_s", "1/s"),
    ("construct.oracle_signflip_s", "s"),
    ("flipcore.span_s", "s"),
    ("flipcore.elements_per_s", "1/s"),
    ("io.format_subgroup_s", "s"),
    ("io.parse_subgroup_s", "s"),
    ("io.read_data_s", "s"),
    ("io.file_s", "s"),
    ("leak.matrix_representation_s", "s"),
    ("leak.leak_summary_s", "s"),
    ("testkit.subgroup_test_us", "us"),
    ("testkit.mc_signflip_test_us", "us"),
    ("testkit.full_orthogonal_test_us", "us"),
    ("testkit.statistic_gb_per_s", "GB/s"),
    ("special.beta_sym_cdf_us", "us"),
    ("simlab.oracle_signflip_s", "s"),
    ("simlab.mc_signflip_s", "s"),
    ("simlab.mc_z_s", "s"),
    ("simlab.mc_orthogonal_s", "s"),
    ("simlab.t_s", "s"),
    ("simlab.size_audit_s", "s"),
    ("simlab.consistency_probe_s", "s"),
    ("simlab.pvalue_variability_s", "s"),
    ("cli.construct_self_s", "s"),
    ("cli.test_self_s", "s"),
]


def _greedy_candidates(args, kwargs, result) -> int:
    """rounds x min(budget, 2^n - order), from the arguments: computed, not counted in nos."""
    n, target = args[0], args[1]
    budget = kwargs.get("candidate_budget", 100_000)
    init = kwargs.get("init")
    if init is not None:
        order = init.order
    else:  # the default start is the oracle subgroup of order 2^min(v2(n), log2 target)
        order = 1 << min((n & -n).bit_length() - 1, target.bit_length() - 1)
    total = 0
    while order < target:
        total += min(budget, (1 << n) - order)
        order *= 2
    return total


def _elements(args, kwargs, result) -> int:
    """Group elements one span() call built."""
    return result.order


def _census_subgroups(args, kwargs, result) -> int:
    qb = q_binomials(args[0])
    rank = kwargs.get("rank")
    return qb[rank] if rank is not None else sum(qb)


def install(tracer: Tracer, nos) -> None:
    """Wrap every function the per-layer metrics read."""
    census, cli, construct, flipcore = nos.census, nos.cli, nos.construct, nos.flipcore
    io, leak, simlab, testkit = nos.io, nos.leak, nos.simlab, nos.testkit

    tracer.wrap(census, "leak_census", "census.leak_census",
                label=lambda a, k: k.get("rank"), count=_census_subgroups)
    tracer.wrap(census, "orbit_counts", "census.orbit_counts")

    tracer.wrap(construct, "greedy_near_oracle", "construct.greedy_near_oracle", count=_greedy_candidates)
    tracer.wrap(construct, "oracle_signflip", "construct.oracle_signflip")

    tracer.wrap(flipcore, "span", "flipcore.span", count=_elements)
    for module in (flipcore, construct, io, census, leak):
        tracer.wrap(module, "extend", "flipcore.extend")
        tracer.wrap(module, "subgroup_from_basis_masks", "flipcore.subgroup_from_basis_masks")
    tracer.wrap(construct, "span", "flipcore.span", count=_elements)

    for attr in ("format_subgroup", "parse_subgroup", "read_data", "read_subgroup", "write_subgroup"):
        tracer.wrap(io, attr, f"io.{attr}")

    tracer.wrap(cli, "matrix_representation", "leak.matrix_representation")
    tracer.wrap(cli, "leak_summary", "leak.leak_summary")

    tracer.wrap(testkit, "subgroup_test", "testkit.subgroup_test",
                count=lambda a, k, r: 8 * a[1].n * a[1].M)
    tracer.wrap(testkit, "mc_signflip_test", "testkit.mc_signflip_test")
    tracer.wrap(testkit, "full_orthogonal_test", "testkit.full_orthogonal_test")
    tracer.wrap(testkit, "beta_sym_cdf", "special.beta_sym_cdf")

    tracer.wrap(simlab, "power_table", "simlab.power_table",
                label=lambda a, k: a[0].tests[0] if len(a[0].tests) == 1 else "roster")
    for attr in ("size_audit", "consistency_probe", "pvalue_variability"):
        tracer.wrap(simlab, attr, f"simlab.{attr}")

    tracer.wrap(cli, "main", "cli.main", label=lambda a, k: (a[0] if a else k["argv"])[0])


def metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced round; a layer the round never entered reads 0."""
    agg = aggregate(spans)

    def self_s(name, label=any):
        return sum(v["self_s"] for (nm, lb), v in agg.items() if nm == name and (label is any or label(lb)))

    def stat(name, key):
        return sum(v[key] for (nm, _lb), v in agg.items() if nm == name)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    def per_call_us(name):
        calls = stat(name, "calls")
        return 1e6 * self_s(name) / calls if calls else 0.0

    census_s = self_s("census.leak_census")
    greedy_s = self_s("construct.greedy_near_oracle")
    flip_s = sum(self_s(f"flipcore.{f}") for f in ("span", "extend", "subgroup_from_basis_masks"))
    out = {
        "census.low_ranks_s": self_s("census.leak_census", lambda r: r is not None and r <= CENSUS_MID),
        "census.high_ranks_s": self_s("census.leak_census", lambda r: r is not None and r > CENSUS_MID),
        "census.orbit_counts_s": self_s("census.orbit_counts"),
        "census.subgroups_per_s": rate(stat("census.leak_census", "count"), census_s),
        "construct.greedy_near_oracle_s": greedy_s,
        "construct.candidates_per_s": rate(stat("construct.greedy_near_oracle", "count"), greedy_s),
        "construct.oracle_signflip_s": self_s("construct.oracle_signflip"),
        "flipcore.span_s": flip_s,
        "flipcore.elements_per_s": rate(stat("flipcore.span", "count"), flip_s),
        "io.format_subgroup_s": self_s("io.format_subgroup"),
        "io.parse_subgroup_s": self_s("io.parse_subgroup"),
        "io.read_data_s": self_s("io.read_data"),
        "io.file_s": self_s("io.read_subgroup") + self_s("io.write_subgroup"),
        "leak.matrix_representation_s": self_s("leak.matrix_representation"),
        "leak.leak_summary_s": self_s("leak.leak_summary"),
        "testkit.subgroup_test_us": per_call_us("testkit.subgroup_test"),
        "testkit.mc_signflip_test_us": per_call_us("testkit.mc_signflip_test"),
        "testkit.full_orthogonal_test_us": per_call_us("testkit.full_orthogonal_test"),
        "testkit.statistic_gb_per_s": rate(stat("testkit.subgroup_test", "count"), self_s("testkit.subgroup_test")) / 1e9,
        "special.beta_sym_cdf_us": per_call_us("special.beta_sym_cdf"),
        "simlab.size_audit_s": self_s("simlab.size_audit"),
        "simlab.consistency_probe_s": self_s("simlab.consistency_probe"),
        "simlab.pvalue_variability_s": self_s("simlab.pvalue_variability"),
        "cli.construct_self_s": self_s("cli.main", lambda c: c == "construct"),
        "cli.test_self_s": self_s("cli.main", lambda c: c == "test"),
    }
    for test_id in ("oracle-signflip", "mc-signflip", "mc-z", "mc-orthogonal", "t"):
        out[f"simlab.{test_id.replace('-', '_')}_s"] = self_s("simlab.power_table", lambda t: t == test_id)
    return {name: float(value) for name, value in out.items()}
