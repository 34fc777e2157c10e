"""Command-line front end.

Subcommands: construct (build and save a low-leak subgroup), delta
(inspect a subgroup file), test (run an invariance test on a data file),
census (enumerate and classify subgroups), simulate (power table),
power-curve, pvar (p-value variability). All reports are JSON with a
top-level ``schema_version``; --out writes the report to a file instead
of stdout.

Exit codes: 0 success, 2 validation error, 3 infeasible request, 4 I/O
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from collections import Counter

import numpy as np

from . import construct, io, simlab, testkit
from .census import EnumerationGuardError, leak_census
from .construct import InfeasibleOrderError
from .leak import Direction, leak_summary, matrix_representation

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4


def _emit(report: dict, out: str | None) -> None:
    # streamed, so that no copy of a large report's text is ever whole
    with open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout) as fh:
        json.dump({"schema_version": SCHEMA_VERSION, **report}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_iota(args, n: int) -> Direction:
    if getattr(args, "two_sample", None):
        m1, m2 = args.two_sample
        if m1 + m2 != n:
            raise ValueError(f"two-sample sizes {m1}+{m2} do not match data length {n}")
        return construct.iota_two_sample(m1, m2)
    if getattr(args, "iota", None):
        iota = io.read_direction(args.iota)
        if iota.n != n:
            raise ValueError(f"direction length {iota.n} does not match data length {n}")
        return iota
    return Direction.uniform(n)


def cmd_construct(args) -> int:
    if args.order < 1 or args.order & (args.order - 1):
        raise InfeasibleOrderError(f"order must be a power of two, got {args.order}")
    k = args.order.bit_length() - 1
    if args.init == "file" and not args.init_file:
        raise ValueError("--init file requires --init-file")
    if k <= construct.two_adic_valuation(args.n):
        sub = construct.oracle_signflip(args.n, k)
        method = "oracle"
    else:
        init = None
        if args.init == "trivial":
            init = construct.subgroup_from_basis_masks(args.n, [])
        elif args.init == "file":
            init = io.read_subgroup(args.init_file)
        sub = construct.greedy_near_oracle(
            args.n,
            args.order,
            objective=args.objective.replace("-", "_"),
            init=init,
            candidate_budget=args.budget,
            seed=args.seed,
        )
        method = "greedy"
    if args.out:
        io.write_subgroup(args.out, sub)
    summ = leak_summary(sub) if sub.order > 1 else None
    _emit(
        {
            "n": args.n,
            "order": sub.order,
            "method": method,
            "delta": summ.delta if summ else None,
            "delta_abs": summ.delta_abs if summ else None,
            "file": args.out,
        },
        None,
    )
    return EXIT_OK


def cmd_delta(args) -> int:
    sub = io.read_subgroup(args.subgroup)
    iota = _load_iota(args, sub.n)
    summ = leak_summary(sub, iota)
    hist = Counter(summ.scaled_distribution)
    _emit(
        {
            "n": sub.n,
            "order": sub.order,
            "delta": summ.delta,
            "delta_abs": summ.delta_abs,
            "scaled_histogram": {str(k): v for k, v in sorted(hist.items())},
        },
        args.out,
    )
    return EXIT_OK


def cmd_test(args) -> int:
    x = io.read_data(args.data)
    n = len(x)
    iota = _load_iota(args, n)
    data = testkit.Dataset(n, x, iota)
    modes = [bool(args.subgroup), args.mc is not None, args.full_orthogonal, args.t]
    if sum(modes) != 1:
        raise ValueError("choose exactly one of --subgroup, --mc, --full-orthogonal, --t")
    if args.subgroup:
        sub = io.read_subgroup(args.subgroup)
        if sub.n != n:
            raise ValueError(f"subgroup n={sub.n} does not match data length {n}")
        rep = matrix_representation(sub, iota)
        result = testkit.subgroup_test(data, rep, args.alpha, args.side)
    elif args.mc is not None:
        result = testkit.mc_signflip_test(
            data, args.mc, args.alpha, args.side, replacement=args.replacement, seed=args.seed
        )
    else:  # --full-orthogonal and --t coincide by the t-test equivalence
        result = testkit.full_orthogonal_test(data, args.alpha, args.side)
    _emit(result.to_dict(), args.out)
    return EXIT_OK


def cmd_census(args) -> int:
    iota = io.read_direction(args.iota) if args.iota else None
    report = leak_census(
        args.n,
        iota=iota,
        rank=args.rank,
        allow_large=args.allow_large,
        with_representatives=args.representatives,
    )
    _emit(report.to_dict(), args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = simlab.SimConfig(
        n=args.n,
        mu_grid=tuple(args.mu),
        M_values=tuple(args.M),
        tests=tuple(args.tests),
        replications=args.reps,
        alpha=args.alpha,
        model=args.model,
        mc_mode=args.replacement,
        seed=args.seed,
    )
    _emit(simlab.power_table(config).to_dict(), args.out)
    return EXIT_OK


def cmd_power_curve(args) -> int:
    if args.subgroup:
        sub = io.read_subgroup(args.subgroup)
        rep = matrix_representation(sub)
    else:
        k = args.M.bit_length() - 1
        if (1 << k) != args.M:
            raise InfeasibleOrderError(f"default oracle subgroup needs power-of-two M, got {args.M}")
        rep = matrix_representation(construct.oracle_signflip(args.n, k))
    rows = simlab.power_curve(args.n, args.M, rep, args.snr, args.reps, seed=args.seed)
    _emit({"n": args.n, "M": args.M, "curve": rows}, args.out)
    return EXIT_OK


def cmd_pvar(args) -> int:
    result = simlab.pvalue_variability(
        args.n, args.mu, args.M, args.datasets, args.resamples, seed=args.seed
    )
    _emit(result, args.out)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nos", description="Subgroup-invariance testing toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a low-leak subgroup and save it")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--objective", choices=["delta", "delta-abs"], default="delta-abs")
    p.add_argument("--init", choices=["oracle", "trivial", "file"], default="oracle")
    p.add_argument("--init-file")
    p.add_argument("--budget", type=int, default=100_000)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("delta", help="leak summary of a subgroup file")
    p.add_argument("subgroup")
    p.add_argument("--iota")
    p.add_argument("--two-sample", type=int, nargs=2, metavar=("M1", "M2"))
    p.add_argument("--out")
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("test", help="run an invariance test on a data file")
    p.add_argument("data")
    p.add_argument("--subgroup")
    p.add_argument("--mc", type=int, metavar="M")
    p.add_argument("--full-orthogonal", action="store_true")
    p.add_argument("--t", action="store_true")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--side", choices=["one", "two"], default="one")
    p.add_argument("--replacement", choices=["with", "without"], default="without")
    p.add_argument("--iota")
    p.add_argument("--two-sample", type=int, nargs=2, metavar=("M1", "M2"))
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("census", help="count and classify subgroups by leak distribution")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rank", type=int)
    p.add_argument("--iota")
    p.add_argument("--allow-large", action="store_true")
    p.add_argument("--no-representatives", dest="representatives", action="store_false")
    p.add_argument("--out")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("simulate", help="power table over a test roster")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu", type=float, nargs="+", required=True)
    p.add_argument("--M", type=int, nargs="+", required=True)
    p.add_argument("--tests", nargs="+", required=True)
    p.add_argument("--reps", type=int, default=100_000)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--model", choices=["normal", "fixed-norm-sphere"], default="normal")
    p.add_argument("--replacement", choices=["with", "without"], default="without")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("power-curve", help="subgroup vs MC-orthogonal power on the sphere model")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--snr", type=float, nargs="+", default=[0.0, 0.5, 1.0, 1.2, 1.35, 1.45, 1.5, 2.0])
    p.add_argument("--reps", type=int, default=100_000)
    p.add_argument("--subgroup")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_power_curve)

    p = sub.add_parser("pvar", help="p-value variability: permuted subgroup vs MC")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--datasets", type=int, default=1000)
    p.add_argument("--resamples", type=int, default=1000)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_pvar)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InfeasibleOrderError, EnumerationGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, KeyError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
