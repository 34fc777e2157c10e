"""Seeded Monte Carlo experiments at desk scale.

Power tables over a roster of invariance tests, consistency-threshold
probes on the fixed-norm sphere model, power curves, null size audits,
p-value-variability comparisons, and an exploratory probe of the
subgroup-vs-Monte-Carlo power ordering.

Replications run in blocks of 4 096 rows (``testkit._CHUNK``), so an
experiment holds one block of data at any number of replications. Each
random role draws from its own generator, the SeedSequence child of the
seed (entropy 0 when the seed is None) with this spawn key:

- ``()``, the data: one noise block eps per block of rows, shared by every
  cell of the call. A power-table cell tests mu iota + eps and a sphere
  cell snr iota + eps, so all cells run on the same datasets (common
  random numbers).
- ``(i,)``, the Monte Carlo draws of cell i: in roster order (test, then
  M, then mu) in ``power_table``, in snr order in ``power_curve`` and
  ``conjecture_probe``, and 0 for the one cell of ``size_audit`` and
  ``pvalue_variability``.
- ``(1,)``, the coordinate permutations of ``pvalue_variability``.
- ``consistency_probe`` has no Monte Carlo draws and draws its data from
  ``(0,)``.

The keys of one call differ, and none depends on the blocks. Each block is
one Monte Carlo chunk of ``exceed_counts``, so a cell draws what it would
draw on the whole replication set at once. A cell's result therefore
depends on the seed, its own settings and, if it draws, its index, and not
on the order cells run in: a cell without Monte Carlo draws (t, the
oracles, ``subgroup:<name>``) gives the same power whatever else the
roster holds. Reports are bit-reproducible.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .construct import oracle_orthogonal, oracle_signflip
from .leak import Direction, MatrixRepresentation, matrix_representation
from .special import beta_sym_quantile
from .testkit import _CHUNK, exceed_counts

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


def _cell_rng(seed, *key: int) -> np.random.Generator:
    """The generator of one role: spawn key () for the data, (i,) for cell i (see the module docstring)."""
    entropy = 0 if seed is None else seed
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy, spawn_key=key))


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


def _noise(
    rng: np.random.Generator, reps: int, n: int, model: str, sigma: float = 1.0, norm_eps: float = 1.0
) -> np.ndarray:
    if model == "normal":
        return sigma * rng.standard_normal((reps, n))
    g = rng.standard_normal((reps, n))
    return norm_eps * g / np.linalg.norm(g, axis=1, keepdims=True)


def _tally(reps: int, noise, cells, outcomes: int = 2) -> np.ndarray:
    """(cells, outcomes) counts: how many of ``reps`` replications gave each cell each outcome code.

    ``noise(c)`` draws the next block's (c, n) noise, and each cell maps a
    block to one code in range(outcomes) per row. Blocks are _CHUNK rows.
    """
    counts = np.zeros((len(cells), outcomes), dtype=np.int64)
    for lo in range(0, reps, _CHUNK):
        eps = noise(min(_CHUNK, reps - lo))
        for row, cell in zip(counts, cells):
            row += np.bincount(cell(eps), minlength=outcomes)
    return counts


def _cell(rejects, shift, rng):
    """A cell of a call: ``rejects`` at shift + eps of each noise block, with the cell's own generator."""
    return lambda eps: rejects(shift + eps, rng)


def _subgroup_rejects(rep: MatrixRepresentation, alpha: float, side: str = "one"):
    """rejects(X, rng) of the subgroup test over ``rep``, which draws nothing and ignores rng."""
    return lambda X, rng=None: exceed_counts("subgroup", X, side, rep=rep)[0] / rep.M <= alpha


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
    n: int,
    iota: Direction,
    M: int,
    alpha: float,
    side: str,
    mc_mode: str,
    sigma: float,
    subgroup_reps: dict,
):
    """rejects(X, rng), the rejection indicators of one test on a block X, with its constants computed once."""
    if test_id == "t":  # the closed-form orthogonal-group (equivalently t-) test
        crit = beta_sym_quantile(1.0 - alpha if side == "one" else 1.0 - alpha / 2.0, n)

        def rejects(X, rng):
            z = (X @ iota.coords) / np.linalg.norm(X, axis=1)
            return (z if side == "one" else np.abs(z)) >= crit

        return rejects
    if test_id.startswith("mc-"):
        return lambda X, rng: exceed_counts(
            test_id, X, side, iota=iota.coords, M=M, replacement=mc_mode, sigma=sigma, rng=rng
        )[0] / M <= alpha
    return _subgroup_rejects(_resolve_rep(test_id, n, M, iota, subgroup_reps), alpha, side)


def power_table(config: SimConfig, side: str = "one") -> SimReport:
    """Rejection proportion for every (test, M, mu) cell of the config.

    Replications run in 4 096-row blocks. Every cell tests mu iota + eps on
    the same noise blocks eps, drawn once from the data generator, and cell
    i (roster order: test, then M, then mu) draws its Monte Carlo
    transformations from its own generator, spawn key (i,). Memory is one
    block's at any ``config.replications``, and a cell without Monte Carlo
    draws has the same power whatever else the roster holds.
    """
    n = config.n
    iota = Direction.uniform(n)
    keys, cells = [], []
    for test_id in config.tests:
        for M in config.M_values:
            rejects = _rejects_for(
                test_id, n, iota, M, config.alpha, side, config.mc_mode, config.sigma, config.subgroup_reps
            )
            for mu in config.mu_grid:
                cells.append(_cell(rejects, mu * iota.coords, _cell_rng(config.seed, len(cells))))
                keys.append((test_id, M, mu))
    noise = partial(
        _noise, _cell_rng(config.seed), n=n, model=config.model, sigma=config.sigma, norm_eps=config.norm_eps
    )
    counts = _tally(config.replications, noise, cells)
    out = []
    for (test_id, M, mu), (_kept, rejected) in zip(keys, counts):
        phat = float(rejected / config.replications)
        out.append({"test": test_id, "M": M, "mu": mu, "power": phat, "se": _se(phat, config.replications)})
    return SimReport(config=config, cells=out)


def consistency_probe(
    rep_subgroup: MatrixRepresentation, snr: float, reps: int, seed=None, alpha: float | None = None
) -> dict:
    """Rejection count of the subgroup test at a given signal-to-noise ratio.

    Fixed-norm-sphere model with unit noise norm and signal snr along the
    representation's own direction; alpha defaults to 1/M, the regime
    where the consistency threshold sqrt(2)/sqrt(1 - delta) is sharp.
    The test has no Monte Carlo draws, so one generator, spawn key (0,),
    draws the noise, in 4 096-row blocks: memory is one block's at any
    ``reps``, and the count is the one a single draw of all rows gives.
    """
    if reps < 1:
        raise ValueError("need at least one replication")
    if alpha is None:
        alpha = 1.0 / rep_subgroup.M
    noise = partial(_noise, _cell_rng(seed, 0), n=rep_subgroup.n, model="fixed-norm-sphere")
    cell = _cell(_subgroup_rejects(rep_subgroup, alpha), snr * rep_subgroup.iota, None)
    count = int(_tally(reps, noise, [cell])[0, 1])
    return {"all_rejected": count == reps, "count": count, "replications": reps}


def _sphere_cells(n: int, M: int, rep: MatrixRepresentation, snr_grid, reps: int, seed):
    """Per snr: the power_curve row, then the (2, 2) counts of (subgroup, MC-orthogonal) rejections.

    Entry [a, b] of the counts is the number of datasets on which the
    subgroup test's rejection is a and the MC test's is b. Every snr cell
    tests snr iota + eps on the same noise blocks, and both of its tests run
    on the same datasets; cell i's MC draws come from spawn key (i,).
    """
    alpha = 1.0 / M
    subgroup = _subgroup_rejects(rep, alpha)

    def outcomes(X, rng):
        mc = exceed_counts("mc-orthogonal", X, iota=rep.iota, M=M, rng=rng)[0] / M <= alpha
        return 2 * subgroup(X) + mc

    noise = partial(_noise, _cell_rng(seed), n=n, model="fixed-norm-sphere")
    cells = [_cell(outcomes, float(snr) * rep.iota, _cell_rng(seed, i)) for i, snr in enumerate(snr_grid)]
    for snr, table in zip(snr_grid, _tally(reps, noise, cells, 4).reshape(-1, 2, 2)):
        sub, mc = float(table[1].sum() / reps), float(table[:, 1].sum() / reps)
        row = {
            "snr": float(snr),
            "subgroup_power": sub,
            "subgroup_se": _se(sub, reps),
            "mc_orthogonal_power": mc,
            "mc_orthogonal_se": _se(mc, reps),
        }
        yield row, table


def power_curve(
    n: int, M: int, rep_subgroup: MatrixRepresentation, snr_grid, reps: int, seed=None
) -> list:
    """Subgroup-test and MC-orthogonal-test power on the sphere model, per snr."""
    if rep_subgroup.n != n or rep_subgroup.M != M:
        raise ValueError("representation does not match the requested n, M")
    return [row for row, _table in _sphere_cells(n, M, rep_subgroup, snr_grid, reps, seed)]


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
    over datasets. Datasets, permutations and MC draws have their own
    generators (spawn keys (), (1,) and (0,)), so the subgroup figure does
    not depend on the MC draws. A dataset's resamples run in 4 096-row
    blocks, so memory does not grow with ``n_resamples`` beyond its counts.
    """
    from .construct import greedy_near_oracle  # deferred: heavy only when needed

    if rep_subgroup is None:
        rep_subgroup = matrix_representation(greedy_near_oracle(n, M, seed=seed))
    if rep_subgroup.n != n or rep_subgroup.M != M:
        raise ValueError("representation does not match the requested n, M")
    iota = Direction.uniform(n)
    data, perms, mc = _cell_rng(seed), _cell_rng(seed, 1), _cell_rng(seed, 0)
    var_sub = np.empty(n_datasets)
    var_mc = np.empty(n_datasets)
    sub, flips = np.empty(n_resamples, dtype=np.int64), np.empty(n_resamples, dtype=np.int64)
    for d in range(n_datasets):  # one dataset at a time: batching them was measured slower
        x = mu + data.standard_normal(n)
        for lo in range(0, n_resamples, _CHUNK):  # resamples in blocks, each one MC chunk
            tiled = np.tile(x, (min(_CHUNK, n_resamples - lo), 1))
            sub[lo : lo + _CHUNK] = exceed_counts("subgroup", perms.permuted(tiled, axis=1), rep=rep_subgroup)[0]
            flips[lo : lo + _CHUNK] = exceed_counts(
                "mc-signflip", tiled, iota=iota.coords, M=M, replacement="with", rng=mc
            )[0]
        var_sub[d] = np.var(sub / M)
        var_mc[d] = np.var(flips / M)
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
    """Null rejection rate of one test; must not exceed alpha materially.

    The data and the test's Monte Carlo draws have their own generators
    (spawn keys () and (0,)), and replications run in 4 096-row blocks.
    """
    subgroup_reps = subgroup_reps or {}
    _check_test_id(test_id, n, subgroup_reps)
    iota = Direction.uniform(n)
    rejects = _rejects_for(test_id, n, iota, M if M is not None else n, alpha, side, mc_mode, 1.0, subgroup_reps)
    noise = partial(_noise, _cell_rng(seed), n=n, model="normal")
    return float(_tally(reps, noise, [_cell(rejects, 0.0, _cell_rng(seed, 0))])[0, 1] / reps)


def conjecture_probe(n: int, M: int, snr_grid, reps: int, seed=None) -> list:
    """Oracle-subgroup power vs MC-orthogonal power on the sphere model.

    Exploratory: reports empirical differences with standard errors and
    asserts nothing. The subgroup side uses the zero-leak orthogonal
    construction, so any order M <= n is available at every n. Both sides
    run on the same datasets, so ``difference_se`` is the standard error
    of the paired per-dataset differences: +1 where the subgroup test
    alone rejects, -1 where the MC test alone does, 0 elsewhere.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    rep = oracle_orthogonal(n, M, Direction.uniform(n))
    rows = []
    for row, table in _sphere_cells(n, M, rep, snr_grid, reps, seed):
        sub_only, mc_only = table[1, 0] / reps, table[0, 1] / reps
        row["power_difference"] = row["subgroup_power"] - row["mc_orthogonal_power"]
        row["difference_se"] = float(np.sqrt((sub_only + mc_only - (sub_only - mc_only) ** 2) / reps))
        rows.append(row)
    return rows
