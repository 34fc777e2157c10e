"""Seeded Monte Carlo experiments at desk scale.

Power tables over a roster of invariance tests, consistency-threshold
probes on the fixed-norm sphere model, power curves, null size audits,
p-value-variability comparisons, and an exploratory probe of the
subgroup-vs-Monte-Carlo power ordering.

Every experiment draws from a generator derived deterministically from
(seed, cell index) through SeedSequence spawn keys, so reports are
bit-reproducible and independent of evaluation order; replications are
vectorized in fixed-size chunks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .construct import oracle_orthogonal, oracle_signflip
from .leak import Direction, MatrixRepresentation, matrix_representation
from .special import beta_sym_quantile
from .testkit import exceed_counts

__all__ = [
    "SimConfig",
    "SimReport",
    "power_table",
    "power_curve",
    "consistency_probe",
    "pvalue_variability",
    "size_audit",
    "conjecture_probe",
]

_KNOWN_TESTS = ("t", "mc-z", "mc-signflip", "mc-orthogonal", "oracle-signflip", "oracle-orthogonal")


def _cell_rng(seed, index: int) -> np.random.Generator:
    """Independent substream for one experiment cell, stable under reordering."""
    entropy = 0 if seed is None else seed
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy, spawn_key=(index,)))


def _se(phat: float, reps: int) -> float:
    return float(np.sqrt(phat * (1.0 - phat) / reps))


def _check_test_id(test_id, n: int, subgroup_reps: dict) -> None:
    """Refuse an unknown id, and a subgroup:<name> whose name is missing or whose n is not n."""
    if test_id in _KNOWN_TESTS:
        return
    kind, _, name = str(test_id).partition(":")
    if kind != "subgroup" or name not in subgroup_reps:
        raise ValueError(f"unknown test id {test_id!r}")
    if subgroup_reps[name].n != n:
        raise ValueError(f"subgroup {name!r} has n={subgroup_reps[name].n}, expected {n}")


@dataclass
class SimConfig:
    """Settings of one power-table run."""

    n: int
    mu_grid: tuple
    M_values: tuple
    tests: tuple
    replications: int
    alpha: float = 0.05
    model: str = "normal"  # or "fixed-norm-sphere"
    sigma: float = 1.0
    norm_eps: float = 1.0
    mc_mode: str = "without"
    seed: int | None = None
    subgroup_reps: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if not self.mu_grid or not self.M_values or not self.tests:
            raise ValueError("mu grid, M values and test roster must be nonempty")
        if self.model not in ("normal", "fixed-norm-sphere"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.mc_mode not in ("with", "without"):
            raise ValueError(f"mc_mode must be 'with' or 'without', got {self.mc_mode!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha={self.alpha} outside (0, 1)")
        for t in self.tests:
            _check_test_id(t, self.n, self.subgroup_reps)
        for M in self.M_values:
            if abs(self.alpha * M - round(self.alpha * M)) > 1e-9:
                warnings.warn(
                    f"alpha*M = {self.alpha * M} is not an integer; finite tests "
                    "are conservative rather than exact at this level",
                    stacklevel=3,  # past the generated __init__, to the caller's line
                )


@dataclass
class SimReport:
    """Per-cell rejection proportions with Monte Carlo standard errors."""

    config: SimConfig
    cells: list

    def to_dict(self) -> dict:
        cfg = {
            "n": self.config.n,
            "mu_grid": list(self.config.mu_grid),
            "M_values": list(self.config.M_values),
            "tests": list(self.config.tests),
            "replications": self.config.replications,
            "alpha": self.config.alpha,
            "model": self.config.model,
            "sigma": self.config.sigma,
            "norm_eps": self.config.norm_eps,
            "mc_mode": self.config.mc_mode,
            "seed": self.config.seed,
        }
        return {"config": cfg, "cells": self.cells}


def _noise(rng: np.random.Generator, reps: int, n: int, model: str, sigma: float, norm_eps: float) -> np.ndarray:
    if model == "normal":
        return sigma * rng.standard_normal((reps, n))
    g = rng.standard_normal((reps, n))
    return norm_eps * g / np.linalg.norm(g, axis=1, keepdims=True)


def _t_rejects(X: np.ndarray, iota: np.ndarray, alpha: float, side: str) -> np.ndarray:
    """Closed-form orthogonal-group (equivalently t-) test, vectorized."""
    n = X.shape[1]
    z = (X @ iota) / np.linalg.norm(X, axis=1)
    if side == "one":
        return z >= beta_sym_quantile(1.0 - alpha, n)
    return np.abs(z) >= beta_sym_quantile(1.0 - alpha / 2.0, n)


def _resolve_rep(test_id: str, n: int, M: int, iota: Direction, subgroup_reps: dict) -> MatrixRepresentation:
    """The matrix representation of a subgroup-style test id."""
    if test_id == "oracle-signflip":
        k = M.bit_length() - 1
        if (1 << k) != M:
            raise ValueError(f"oracle-signflip needs a power-of-two M, got {M}")
        if not iota.is_uniform:
            raise ValueError("oracle-signflip requires the uniform direction")
        return matrix_representation(oracle_signflip(n, k), iota)
    if test_id == "oracle-orthogonal":
        return oracle_orthogonal(n, M, iota)
    rep = subgroup_reps[test_id.split(":", 1)[1]]
    return rep if isinstance(rep, MatrixRepresentation) else matrix_representation(rep, iota)


def _rejects_for(
    test_id: str,
    X: np.ndarray,
    iota: Direction,
    M: int,
    alpha: float,
    side: str,
    mc_mode: str,
    sigma: float,
    rng: np.random.Generator,
    subgroup_reps: dict,
) -> np.ndarray:
    if test_id == "t":
        return _t_rejects(X, iota.coords, alpha, side)
    if test_id.startswith("mc-"):
        counts, _obs = exceed_counts(
            test_id, X, side, iota=iota.coords, M=M, replacement=mc_mode, sigma=sigma, rng=rng
        )
        return counts / M <= alpha
    rep = _resolve_rep(test_id, X.shape[1], M, iota, subgroup_reps)
    counts, _obs = exceed_counts("subgroup", X, side, rep=rep)
    return counts / rep.M <= alpha


def power_table(config: SimConfig, side: str = "one") -> SimReport:
    """Rejection proportion for every (test, M, mu) cell of the config."""
    iota = Direction.uniform(config.n)
    cells = []
    index = 0
    for test_id in config.tests:
        for M in config.M_values:
            for mu in config.mu_grid:
                rng = _cell_rng(config.seed, index)
                index += 1
                X = mu * iota.coords + _noise(
                    rng, config.replications, config.n, config.model, config.sigma, config.norm_eps
                )
                rej = _rejects_for(
                    test_id, X, iota, M, config.alpha, side, config.mc_mode,
                    config.sigma, rng, config.subgroup_reps,
                )
                phat = float(np.mean(rej))
                cells.append(
                    {
                        "test": test_id,
                        "M": M,
                        "mu": mu,
                        "power": phat,
                        "se": _se(phat, config.replications),
                    }
                )
    return SimReport(config=config, cells=cells)


def consistency_probe(
    rep_subgroup: MatrixRepresentation, snr: float, reps: int, seed=None, alpha: float | None = None
) -> dict:
    """Rejection count of the subgroup test at a given signal-to-noise ratio.

    Fixed-norm-sphere model with unit noise norm and signal snr along the
    representation's own direction; alpha defaults to 1/M, the regime
    where the consistency threshold sqrt(2)/sqrt(1 - delta) is sharp.
    """
    if reps < 1:
        raise ValueError("need at least one replication")
    M = rep_subgroup.M
    if alpha is None:
        alpha = 1.0 / M
    iota = rep_subgroup.iota
    rng = _cell_rng(seed, 0)
    count = 0
    for lo in range(0, reps, 1 << 16):
        c = min(1 << 16, reps - lo)
        X = snr * iota + _noise(rng, c, rep_subgroup.n, "fixed-norm-sphere", 1.0, 1.0)
        counts, _obs = exceed_counts("subgroup", X, rep=rep_subgroup)
        count += int(np.count_nonzero(counts / M <= alpha))
    return {"all_rejected": count == reps, "count": count, "replications": reps}


def _sphere_cells(n: int, M: int, rep: MatrixRepresentation, snr_grid, reps: int, seed):
    """Per snr: the power_curve row, then the subgroup and MC-orthogonal rejection indicators.

    Both tests run on the same sphere-model draws of the snr's cell.
    """
    alpha = 1.0 / M
    for i, snr in enumerate(snr_grid):
        rng = _cell_rng(seed, i)
        X = float(snr) * rep.iota + _noise(rng, reps, n, "fixed-norm-sphere", 1.0, 1.0)
        sub_counts, _obs = exceed_counts("subgroup", X, rep=rep)
        mc_counts, _obs = exceed_counts("mc-orthogonal", X, iota=rep.iota, M=M, rng=rng)
        sub_rej, mc_rej = sub_counts / M <= alpha, mc_counts / M <= alpha
        sub, mc = float(np.mean(sub_rej)), float(np.mean(mc_rej))
        row = {
            "snr": float(snr),
            "subgroup_power": sub,
            "subgroup_se": _se(sub, reps),
            "mc_orthogonal_power": mc,
            "mc_orthogonal_se": _se(mc, reps),
        }
        yield row, sub_rej, mc_rej


def power_curve(
    n: int, M: int, rep_subgroup: MatrixRepresentation, snr_grid, reps: int, seed=None
) -> list:
    """Subgroup-test and MC-orthogonal-test power on the sphere model, per snr."""
    if rep_subgroup.n != n or rep_subgroup.M != M:
        raise ValueError("representation does not match the requested n, M")
    return [row for row, _sub, _mc in _sphere_cells(n, M, rep_subgroup, snr_grid, reps, seed)]


def pvalue_variability(
    n: int,
    mu: float,
    M: int,
    n_datasets: int,
    n_resamples: int,
    seed=None,
    rep_subgroup: MatrixRepresentation | None = None,
) -> dict:
    """Average p-value variance: permuted subgroup test vs fresh MC draws.

    Datasets are X = mu*1 + N(0, I). For each dataset the subgroup test
    is re-run on random coordinate permutations of the data (the uniform
    direction is permutation-invariant, so only the subgroup's view of
    the coordinates changes), while the MC sign-flip test is re-run with
    fresh with-replacement draws; both p-value variances are averaged
    over datasets.
    """
    from .construct import greedy_near_oracle  # deferred: heavy only when needed

    if rep_subgroup is None:
        rep_subgroup = matrix_representation(greedy_near_oracle(n, M, seed=seed))
    if rep_subgroup.n != n or rep_subgroup.M != M:
        raise ValueError("representation does not match the requested n, M")
    iota = Direction.uniform(n)
    rng = _cell_rng(seed, 0)
    var_sub = np.empty(n_datasets)
    var_mc = np.empty(n_datasets)
    for d in range(n_datasets):
        x = mu + rng.standard_normal(n)
        tiled = np.tile(x, (n_resamples, 1))
        perms = rng.permuted(tiled, axis=1)
        sub, _obs = exceed_counts("subgroup", perms, rep=rep_subgroup)
        mc, _obs = exceed_counts("mc-signflip", tiled, iota=iota.coords, M=M, replacement="with", rng=rng)
        var_sub[d] = np.var(sub / M)
        var_mc[d] = np.var(mc / M)
    return {
        "avg_var_subgroup_permuted": float(np.mean(var_sub)),
        "avg_var_mc": float(np.mean(var_mc)),
        "n_datasets": n_datasets,
        "n_resamples": n_resamples,
    }


def size_audit(
    test_id: str,
    n: int,
    alpha: float,
    reps: int,
    seed=None,
    M: int | None = None,
    mc_mode: str = "without",
    side: str = "one",
    subgroup_reps: dict | None = None,
) -> float:
    """Null rejection rate of one test; must not exceed alpha materially."""
    subgroup_reps = subgroup_reps or {}
    _check_test_id(test_id, n, subgroup_reps)
    iota = Direction.uniform(n)
    rng = _cell_rng(seed, 0)
    X = _noise(rng, reps, n, "normal", 1.0, 1.0)
    rej = _rejects_for(test_id, X, iota, M if M is not None else n, alpha, side, mc_mode, 1.0, rng, subgroup_reps)
    return float(np.mean(rej))


def conjecture_probe(n: int, M: int, snr_grid, reps: int, seed=None) -> list:
    """Oracle-subgroup power vs MC-orthogonal power on the sphere model.

    Exploratory: reports empirical differences with standard errors and
    asserts nothing. The subgroup side uses the zero-leak orthogonal
    construction, so any order M <= n is available at every n. Both sides
    run on the same datasets, so ``difference_se`` is the standard error
    of the paired per-dataset differences.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    rep = oracle_orthogonal(n, M, Direction.uniform(n))
    rows = []
    for row, sub_rej, mc_rej in _sphere_cells(n, M, rep, snr_grid, reps, seed):
        diff = sub_rej.astype(float) - mc_rej
        row["power_difference"] = row["subgroup_power"] - row["mc_orthogonal_power"]
        row["difference_se"] = float(np.std(diff) / np.sqrt(reps))
        rows.append(row)
    return rows
