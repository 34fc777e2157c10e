"""Run one nos benchmark workload and print its metrics.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Workloads: census, analyst, large, simulate (see README.md), or ``all``
to run each in its own process. The run sets up the seeded inputs, then
repeats whole rounds of the workload's operations until ``--seconds``
have passed, checks the first round's outputs against computations made
apart from nos (later rounds must reproduce them exactly), and prints
one line per metric followed by a JSON object as the last line.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds, reports the per-layer metrics of the traced
ones, the stage metrics of the untraced ones and the tracing overhead
between the two, and writes the spans to ``.perfbench_out/``.

Set-up time runs from the first statement of this file to the first
timed operation: importing nos, building the inputs and the warm-up.
Two more processes repeat the set-up alone, and the median of the three
is reported. nos is imported from ``src/`` next to this directory.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402 - the set-up clock starts before any import
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
NAMES = ("census", "analyst", "large", "simulate")
SETUP_SAMPLES = 3


def _environment() -> None:
    """Pin the thread settings and import path before numpy or nos load."""
    if not (SRC / "nos" / "__init__.py").is_file():
        sys.exit(f"error: no nos sources at {SRC}")
    os.environ.pop("NOS_THREADS", None)
    cpus = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = cpus
    sys.path.insert(0, str(SRC))


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _stage_metrics(workload, rounds) -> dict:
    """Median over rounds of each stage's seconds, or for a "1/s" stage of its work over its seconds."""
    out = {}
    for metric, (unit, stage) in workload.STAGES.items():
        if unit == "s":
            value = statistics.median(r.seconds[stage] for r in rounds)
        else:
            value = statistics.median(r.work[stage] / r.seconds[stage] for r in rounds)
        out[metric] = (value, unit)
    return out


def _setup_samples(args, own: float) -> list[float]:
    """This process's set-up time and that of SETUP_SAMPLES - 1 fresh processes."""
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            check=True, capture_output=True, text=True, timeout=120,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def _account(workload, inputs, rounds) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages): the first round of each mode is checked in full,
    later rounds must reproduce its outputs exactly."""
    attempted = failed = 0
    messages: list[str] = []
    failing: dict = {}  # traced -> {operation key: indices that failed a check}
    reference: dict = {}  # (traced, key) -> digest of the first round's output
    for traced, rnd, _wall, _spans in rounds:
        if traced not in failing:
            failing[traced] = {}
            try:
                found = workload.check(inputs, {k: v[1] for k, v in rnd.outputs.items()})
            except Exception:  # a check that crashes fails every operation of the round
                messages.append(traceback.format_exc())
                found = [(k, i, "check raised") for k, (ops, _) in rnd.outputs.items() for i in range(ops)]
            for key, index, msg in found:
                failing[traced].setdefault(key, set()).add(index)
                messages.append(f"{key}[{index}]: {msg}")
        for key, (ops, _payload) in rnd.outputs.items():
            attempted += ops
            digest = rnd.digests[key]
            if reference.setdefault((traced, key), digest) != digest:
                failed += ops
                messages.append(f"{key}: a later round's output differs from the first round's")
            else:
                failed += min(ops, len(failing[traced].get(key, ())))
    return attempted, failed, messages


def _print(metrics: dict, kind: str) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{kind:10s} {name:34s} {value:14.6g} {unit}")


def _run_workload(args) -> int:
    import layers
    import nos
    from tracer import Tracer
    from workloads import WORKLOADS

    if Path(nos.__file__).resolve().parent != SRC / "nos":
        sys.exit(f"error: nos imported from {nos.__file__}, not from {SRC}")
    workload = WORKLOADS[args.workload]()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = workload.setup(args.seed, workdir)
        own_setup = time.perf_counter() - T_START
        if args.setup_only:
            print(repr(own_setup))
            return 0

        tracer = Tracer()
        if args.trace:
            layers.install(tracer, nos)
        rounds = []  # (traced, Round, wall seconds, spans)
        measured = 0.0
        while measured < args.seconds or (args.trace and len(rounds) % 2):
            traced = bool(args.trace) and len(rounds) % 2 == 1
            gc.collect()
            tracer.recording = traced
            t0 = time.perf_counter()
            rnd = workload.run_round(inputs, split=traced)
            wall = time.perf_counter() - t0
            tracer.recording = False
            measured += wall
            # only the first round of each mode keeps its outputs for the checks
            rnd.digests = {key: _digest(payload) for key, (_ops, payload) in rnd.outputs.items()}
            if any(r[0] == traced for r in rounds):
                rnd.outputs = {key: (ops, None) for key, (ops, _payload) in rnd.outputs.items()}
            rounds.append((traced, rnd, wall, tracer.take()))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tracer.unwrap_all()

        attempted, failed, messages = _account(workload, inputs, rounds)
        for msg in messages:
            print(f"check failed: {msg}", file=sys.stderr)

        plain = [r for r in rounds if not r[0]]
        stage = _stage_metrics(workload, [r[1] for r in plain])
        if args.trace:
            every_stage = {m: v for w in WORKLOADS.values() for m, v in w.STAGES.items()}
            metrics = _traced_metrics(args, rounds, stage, every_stage, layers)
            _print(metrics, "per-layer")
        else:
            setup = _setup_samples(args, own_setup)
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (peak_rss_mb, "MiB"),
                "round_s": (statistics.median(r[2] for r in plain), "s"),
            }
            _print(metrics, "end-to-end")
            _print(stage, "stage")
            print(f"round walls {[round(r[2], 3) for r in rounds]}, set-up samples {[round(s, 3) for s in setup]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _traced_metrics(args, rounds, stage, every_stage, layers) -> dict:
    traced = [r for r in rounds if r[0]]
    plain = [r for r in rounds if not r[0]]
    per_round = [layers.metrics(r[3]) for r in traced]
    out = {name: (statistics.median(m[name] for m in per_round), unit) for name, unit in layers.PER_LAYER}
    for metric, (unit, _stage) in every_stage.items():
        out[metric] = stage.get(metric, (0.0, unit))
    overhead = statistics.median(r[2] for r in traced) / statistics.median(r[2] for r in plain) - 1.0
    out["trace.overhead_pct"] = (100.0 * overhead, "%")

    OUT.mkdir(exist_ok=True)
    dump = {
        "workload": args.workload,
        "seed": args.seed,
        "span_fields": ["id", "parent", "name", "label", "start_s", "duration_s", "self_s", "count"],
        "first_traced_round": traced[0][3],
        "per_round_layers": per_round,
    }
    (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(dump), encoding="utf-8")
    return out


def _run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    results = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"{name:9s} {line}")
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="set up, print the set-up seconds, exit")
    args = parser.parse_args(argv)
    _environment()
    if args.workload == "all":
        return _run_all(args)
    return _run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
