"""The four workloads: seeded inputs, one round of user operations, and the checks.

A workload's ``setup(seed, workdir)`` builds every input from the seed
and returns them. ``run_round(inputs, split)`` performs the user
operations once and returns a ``Round``: stage times, the work done, and
each operation's output. ``split`` asks for a multi-part library call to
be made one public call per part (the census per rank, the power table
per test), so that the traced run can time each part; the work is the
same. ``check(inputs, outputs)`` checks one round's outputs against
computations made apart from nos and returns the failing operations.
"""

from __future__ import annotations

import contextlib
import io as _io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from nos import census, cli, construct, leak, simlab, testkit
from nos import io as nos_io


# Each workload class names its stage metrics, STAGES: metric name -> (unit, stage),
# where a "1/s" metric is the stage's work over its seconds.


@dataclass
class Round:
    seconds: dict = field(default_factory=dict)  # stage name -> wall seconds
    work: dict = field(default_factory=dict)  # stage name -> items done in that stage
    outputs: dict = field(default_factory=dict)  # operation key -> (operation count, output)
    digests: dict = field(default_factory=dict)  # operation key -> digest of its output


def _cli(argv: list[str]) -> str:
    """Run ``nos`` in-process and return what it printed."""
    buf = _io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"nos {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def _write_data(path: Path, x: np.ndarray) -> None:
    path.write_text("".join(f"{float(v)!r}\n" for v in x), encoding="utf-8")


def _fails(key: str, messages: list[str], index: int = 0) -> list[tuple[str, int, str]]:
    return [(key, index, m) for m in messages]


# --- census ---------------------------------------------------------------------


class Census:
    """``leak_census(8)`` over all ranks with representatives, then ``orbit_counts(8)``.

    The inputs do not depend on the seed: n = 8 is the whole input.
    """

    STAGES = {"census_pass_s": ("s", "census_pass")}
    N = 8

    def setup(self, seed: int, workdir: Path) -> dict:
        census.orbit_counts(self.N, rank=1)  # warm-up: fills the per-n cycle-type tables
        return {"n": self.N}

    def run_round(self, inputs: dict, split: bool) -> Round:
        n = inputs["n"]
        r = Round()
        t0 = time.perf_counter()
        if split:
            parts = [census.leak_census(n, rank=p) for p in range(n + 1)]
            report = census.LeakCensusReport(
                n=n,
                uniform_iota=parts[0].uniform_iota,
                subgroup_counts={p: x.subgroup_counts[p] for p, x in enumerate(parts)},
                distinct_counts={p: x.distinct_counts[p] for p, x in enumerate(parts)},
                representatives=[rep for x in parts for rep in x.representatives],
            )
        else:
            report = census.leak_census(n)
        orbits = census.orbit_counts(n)
        r.seconds = {"census_pass": time.perf_counter() - t0}
        r.outputs = {"leak_census": (1, report.to_dict()), "orbit_counts": (1, orbits)}
        return r

    def check(self, inputs: dict, outputs: dict) -> list:
        return _fails("leak_census", checks.census_failures(outputs["leak_census"], outputs["orbit_counts"]))


# --- analyst and large: the CLI path, then many datasets ---------------------------


class _CliWorkload:
    """``nos construct`` to files, ``nos test --subgroup`` on a data file, then library tests.

    Subclasses set ``inputs["constructs"]`` to (argv, n, order, method) per
    construct command; the last one builds the subgroup that ``nos test``
    and the datasets use. ``_per_dataset`` runs the library tests.
    """

    STAGES = {"construct_s": ("s", "construct"), "load_test_s": ("s", "load_test"),
              "datasets_per_s": ("1/s", "datasets")}
    ALPHA: float
    DATASETS: int
    INVARIANCE_DATASETS: int

    def _datasets(self, rng: np.random.Generator, n: int) -> list:
        iota = leak.Direction.uniform(n)
        mus = rng.choice([0.0, 0.25, 0.5], size=self.DATASETS)
        xs = mus[:, None] + rng.standard_normal((self.DATASETS, n))
        return [testkit.Dataset(n, x, iota) for x in xs]

    def _files(self, workdir: Path, datasets: list, sub) -> dict:
        """Inputs shared by both workloads; writes the data file ``nos test`` reads."""
        inputs = {
            "data_path": workdir / "x.txt",
            "report_path": workdir / "test.json",
            "datasets": datasets,
            "rep": leak.matrix_representation(sub),
            "memory_masks": sub.element_masks(),
        }
        _write_data(inputs["data_path"], datasets[0].x)
        return inputs

    def _per_dataset(self, inputs: dict, count: int) -> dict:
        raise NotImplementedError

    def run_round(self, inputs: dict, split: bool) -> Round:
        r = Round()
        t0 = time.perf_counter()
        reports = [_cli(argv) for argv, *_ in inputs["constructs"]]
        t1 = time.perf_counter()
        _cli(["test", str(inputs["data_path"]), "--subgroup", inputs["constructs"][-1][0][-1],
              "--alpha", repr(self.ALPHA), "--out", str(inputs["report_path"])])
        t2 = time.perf_counter()
        results = self._per_dataset(inputs, self.DATASETS)
        t3 = time.perf_counter()
        r.seconds = {"construct": t1 - t0, "load_test": t2 - t1, "datasets": t3 - t2}
        r.work = {"datasets": self.DATASETS}
        for i, ((argv, *_), report) in enumerate(zip(inputs["constructs"], reports)):
            r.outputs[f"construct_{i}"] = (1, (report, Path(argv[-1]).read_text(encoding="utf-8")))
        r.outputs["test"] = (1, inputs["report_path"].read_text(encoding="utf-8"))
        for name, res in results.items():
            r.outputs[name] = (len(res), [x.to_dict() for x in res])
        return r

    def _check_construct(self, key: str, output, n: int, order: int, method: str) -> tuple[list, list]:
        """(failures, element masks) of one construct command's report and file."""
        report_text, text = output
        try:
            fn, masks = checks.parse_nos(text)
        except ValueError as exc:
            return _fails(key, [f"unreadable .nos file: {exc}"]), []
        msgs = [] if fn == n else [f".nos header n = {fn}, expected {n}"]
        msgs += checks.subgroup_failures(masks, n, order, half_flips=method == "oracle")
        msgs += checks.construct_report_failures(json.loads(report_text), masks, n, order, method)
        return _fails(key, msgs), masks

    def check(self, inputs: dict, outputs: dict) -> list:
        fails, masks = [], []
        for i, (_argv, n, order, method) in enumerate(inputs["constructs"]):
            found, masks = self._check_construct(f"construct_{i}", outputs[f"construct_{i}"], n, order, method)
            fails += found
        if not masks:
            return fails
        last = f"construct_{len(inputs['constructs']) - 1}"
        if list(inputs["memory_masks"]) != masks:
            fails += _fails(last, ["the .nos file's elements differ from the subgroup built in memory"])

        rep, data, a = inputs["rep"], inputs["datasets"], self.ALPHA
        cli_report = json.loads(outputs["test"])
        cli_report.pop("schema_version", None)
        lib = testkit.subgroup_test(data[0], rep, a).to_dict()
        fails += _fails("test", checks.same_result_failures(cli_report, lib, "nos test report vs library"))
        fails += _fails("test", checks.pvalue_failures(cli_report, rep.M, a))

        for i, res in enumerate(outputs["subgroup_test"]):
            fails += _fails("subgroup_test", checks.pvalue_failures(res, rep.M, a), i)
        signs = checks.sign_matrix(masks, rep.n)
        for i in range(self.INVARIANCE_DATASETS):
            def rejects(y):
                return testkit.subgroup_test(testkit.Dataset(rep.n, y, data[i].iota), rep, a).reject
            fails += _fails("subgroup_test", checks.invariance_failures(data[i].x, signs, rep.iota, a, rejects), i)
        return fails


class Analyst(_CliWorkload):
    """Greedy constructs at n = 24 (order 32) and n = 32 (order 64), then per-dataset tests at n = 32."""

    ALPHA = 1 / 16
    DATASETS = 2000
    INVARIANCE_DATASETS = 3
    MC_RECHECK = 5

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        seed_a, seed_b = (int(s) for s in rng.integers(0, 2**31, size=2))
        datasets = self._datasets(rng, 32)
        inputs = self._files(workdir, datasets, construct.greedy_near_oracle(32, 64, seed=seed_b))
        inputs["mc_seeds"] = [int(s) for s in rng.integers(0, 2**31, size=self.DATASETS)]
        inputs["constructs"] = [
            (["construct", "--n", "24", "--order", "32", "--seed", str(seed_a), "--out", str(workdir / "a24.nos")],
             24, 32, "greedy"),
            (["construct", "--n", "32", "--order", "64", "--seed", str(seed_b), "--out", str(workdir / "a32.nos")],
             32, 64, "greedy"),
        ]
        self._per_dataset(inputs, 1)  # warm-up
        return inputs

    def _per_dataset(self, inputs: dict, count: int) -> dict:
        rep, a = inputs["rep"], self.ALPHA
        sub, mc, full = [], [], []
        for d, s in zip(inputs["datasets"][:count], inputs["mc_seeds"]):
            sub.append(testkit.subgroup_test(d, rep, a))
            mc.append(testkit.mc_signflip_test(d, rep.M, a, seed=s))
            full.append(testkit.full_orthogonal_test(d, a))
        return {"subgroup_test": sub, "mc_signflip_test": mc, "full_orthogonal_test": full}

    def check(self, inputs: dict, outputs: dict) -> list:
        fails = super().check(inputs, outputs)
        for i in range(len(inputs["constructs"])):
            # .nos round trip through nos: text -> subgroup -> text
            text = outputs[f"construct_{i}"][1]
            if nos_io.format_subgroup(nos_io.parse_subgroup(text)) != text:
                fails += _fails(f"construct_{i}", [".nos round trip through parse_subgroup/format_subgroup changed the text"])
        a, M = self.ALPHA, inputs["rep"].M
        for i, (d, res) in enumerate(zip(inputs["datasets"], outputs["mc_signflip_test"])):
            fails += _fails("mc_signflip_test", checks.pvalue_failures(res, M, a), i)
            if i < self.MC_RECHECK:
                again = testkit.mc_signflip_test(d, M, a, seed=inputs["mc_seeds"][i]).to_dict()
                fails += _fails("mc_signflip_test", checks.same_result_failures(res, again, "same seed"), i)
        for i, (d, res) in enumerate(zip(inputs["datasets"], outputs["full_orthogonal_test"])):
            fails += _fails("full_orthogonal_test", checks.t_test_failures(res, d.x), i)
        return fails


class Large(_CliWorkload):
    """One zero-leak subgroup with n = M = 2048 through the CLI, then ``subgroup_test`` on datasets."""

    N = 2048
    ALPHA = 1 / 64
    DATASETS = 200
    INVARIANCE_DATASETS = 1

    def setup(self, seed: int, workdir: Path) -> dict:
        datasets = self._datasets(np.random.default_rng(seed), self.N)
        inputs = self._files(workdir, datasets, construct.oracle_signflip(self.N, self.N.bit_length() - 1))
        argv = ["construct", "--n", str(self.N), "--order", str(self.N), "--out", str(workdir / "large.nos")]
        inputs["constructs"] = [(argv, self.N, self.N, "oracle")]
        self._per_dataset(inputs, 1)  # warm-up
        return inputs

    def _per_dataset(self, inputs: dict, count: int) -> dict:
        rep, a = inputs["rep"], self.ALPHA
        return {"subgroup_test": [testkit.subgroup_test(d, rep, a) for d in inputs["datasets"][:count]]}


# --- simulate ---------------------------------------------------------------------


class Simulate:
    """Power table, size audit, consistency probe and p-value variability; no io, census or greedy."""

    STAGES = {"sim_replications_per_s": ("1/s", "sim"), "pvar_datasets_per_s": ("1/s", "pvar")}

    TESTS = ("oracle-signflip", "mc-z", "mc-signflip", "mc-orthogonal", "t")
    MUS = (0.0, 0.25, 0.5, 0.75, 1.0)
    N, M, ALPHA, REPS = 16, 16, 1 / 16, 20_000
    # criterion 09's roster at n = 8: (test id, alpha, M)
    SIZE_ROSTER = (("oracle-signflip", 1 / 8, 8), ("mc-signflip", 0.05, 20), ("mc-orthogonal", 0.05, 20),
                   ("mc-z", 1 / 20, 20), ("t", 0.05, None))
    SIZE_REPS = 20_000
    PROBE_SNRS, PROBE_REPS = (1.5, 1.30), 100_000
    PVAR_N, PVAR_M, PVAR_MU, PVAR_DATASETS, PVAR_RESAMPLES = 32, 64, 0.5, 100, 200
    PVAR_SUBGROUP_SEED = 101

    def setup(self, seed: int, workdir: Path) -> dict:
        seeds = [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=4)]
        greedy = construct.greedy_near_oracle(self.PVAR_N, self.PVAR_M, seed=self.PVAR_SUBGROUP_SEED)
        return {
            "seeds": seeds,
            "oracle8": leak.matrix_representation(construct.oracle_signflip(8, 3)),
            "greedy": leak.matrix_representation(greedy),
        }

    def _config(self, tests, mus, seed):
        return simlab.SimConfig(n=self.N, mu_grid=tuple(mus), M_values=(self.M,), tests=tuple(tests),
                                replications=self.REPS, alpha=self.ALPHA, seed=seed)

    def run_round(self, inputs: dict, split: bool) -> Round:
        s_table, s_size, s_probe, s_pvar = inputs["seeds"]
        r = Round()
        t0 = time.perf_counter()
        if split:
            cells = [c for t in self.TESTS for c in simlab.power_table(self._config([t], self.MUS, s_table)).cells]
        else:
            cells = simlab.power_table(self._config(self.TESTS, self.MUS, s_table)).cells
        sizes = [simlab.size_audit(t, 8, a, self.SIZE_REPS, seed=s_size, M=M) for t, a, M in self.SIZE_ROSTER]
        probes = [simlab.consistency_probe(inputs["oracle8"], snr, self.PROBE_REPS, seed=s_probe)
                  for snr in self.PROBE_SNRS]
        t1 = time.perf_counter()
        pvar = simlab.pvalue_variability(self.PVAR_N, self.PVAR_MU, self.PVAR_M, self.PVAR_DATASETS,
                                         self.PVAR_RESAMPLES, seed=s_pvar, rep_subgroup=inputs["greedy"])
        t2 = time.perf_counter()
        reps = (len(self.TESTS) * len(self.MUS) * self.REPS + len(self.SIZE_ROSTER) * self.SIZE_REPS
                + len(self.PROBE_SNRS) * self.PROBE_REPS)
        r.seconds = {"sim": t1 - t0, "pvar": t2 - t1}
        r.work = {"sim": reps, "pvar": self.PVAR_DATASETS}
        r.outputs = {
            "power_table": (1, cells),
            "size_audit": (len(sizes), sizes),
            "consistency_probe": (len(probes), probes),
            "pvalue_variability": (1, pvar),
        }
        return r

    def check(self, inputs: dict, outputs: dict) -> list:
        s_table = inputs["seeds"][0]
        cells = outputs["power_table"]
        fails = _fails("power_table", checks.power_table_failures(cells, self.TESTS, self.MUS, self.M, self.ALPHA, self.REPS))
        # cell 0 alone, same seed: byte-identical to cell 0 of the table
        again = simlab.power_table(self._config(self.TESTS[:1], self.MUS[:1], s_table)).cells
        if json.dumps(again[0], sort_keys=True) != json.dumps(cells[0], sort_keys=True):
            fails += _fails("power_table", [f"cell 0 re-run gives {again[0]}, the table has {cells[0]}"])
        for i, ((test_id, alpha, _M), rate) in enumerate(zip(self.SIZE_ROSTER, outputs["size_audit"])):
            fails += _fails("size_audit", checks.size_failures(rate, alpha, self.SIZE_REPS, test_id), i)
        for i, (snr, res) in enumerate(zip(self.PROBE_SNRS, outputs["consistency_probe"])):
            # threshold sqrt(2)/sqrt(1 - delta) with delta = 0
            above = snr > np.sqrt(2.0)
            fails += _fails("consistency_probe", checks.probe_failures(res, self.PROBE_REPS, above), i)
        return fails + _fails("pvalue_variability", checks.pvar_failures(outputs["pvalue_variability"]))


WORKLOADS = {"census": Census, "analyst": Analyst, "large": Large, "simulate": Simulate}
