"""Two sets of benchmark runs of the same code, and each metric's spread against its bound.

    python3 perfbench/steady.py

Two sets of ten runs on every workload of ``BENCHMARK.json``. Each run is
``perfbench/run.py --trace 0`` with its own seed (set s, run i gets seed
1000 s + i) and the run length from ``BENCHMARK.json``. For every
end-to-end metric of every workload this prints, per set, the median and
the spread (distance between the first and third quartiles over the
median), and the drift (how much worse the second set's median is than
the first set's, as a share). A spread or a drift above the metric's
bound, or a different share of failed operations between the sets, is
marked FAIL and makes the exit code 1. The raw results go to
``.perfbench_out/steady-<unix time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
RUNS = 10


def _spread(values: list[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]

    results: dict = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for w in workloads:
            for i in range(RUNS):
                t0 = time.perf_counter()
                res = _run(w, 1000 * (s + 1) + i, spec["run_seconds"])
                print(f"set {s + 1} {w:9s} run {i + 1:2d}: {time.perf_counter() - t0:6.1f} s wall, "
                      f"correct={res['correct']} failed={res['failed']}/{res['attempted']}", flush=True)
                results[w][s].append(res)

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"steady-{int(time.time())}.json").write_text(json.dumps(results, indent=1), encoding="utf-8")

    ok = True
    print(f"\n{'workload':9s} {'metric':14s} {'bound':>6s} " + " ".join(
        f"{'median' + str(s + 1):>12s} {'spread' + str(s + 1):>8s}" for s in range(SETS)) + f" {'drift':>7s}")
    for w in workloads:
        shares = {r["failed"] / r["attempted"] for runs in results[w] for r in runs}
        if len(shares) != 1 or not all(r["correct"] for runs in results[w] for r in runs):
            ok = False
            print(f"{w}: FAIL failed shares {sorted(shares)} or an incorrect run")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [[r["metrics"][name]["value"] for r in runs] for runs in results[w]]
            medians = [statistics.median(v) for v in sets]
            spreads = [_spread(v) for v in sets]
            sign = 1 if m["better"] == "lower" else -1
            drift = sign * (medians[1] - medians[0]) / medians[0]
            verdict = "FAIL" if max(spreads) > bound or drift > bound else "ok"
            ok &= verdict == "ok"
            cols = " ".join(f"{med:12.5g} {sp:8.3f}" for med, sp in zip(medians, spreads))
            print(f"{w:9s} {name:14s} {bound:6.2f} {cols} {drift:+7.3f} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
