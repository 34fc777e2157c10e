"""Invariance tests: subgroup, Monte Carlo, full orthogonal group, references.

All finite tests share one execution path, ``exceed_counts``: it maps a
batch of datasets X (reps x n) to exceed counts for one transformation
family (a representation, MC sign-flip, MC orthogonal, MC z), and a single
dataset is the batch at reps = 1. The statistic of a transformation is an
inner product with the data, and the p-value is the fraction of the M
transformations, the identity included, whose statistic reaches the
observed one. Ties count against rejection, in floating point too: a
statistic within tau = 2 n eps ||x||_2 below the observed one counts as
reaching it. That is twice the worst-case rounding error of an n-term
inner product with a unit column, so an exact tie is never lost to
rounding and the test is never anti-conservative. The MC sign-flip
statistic is computed from the 0/1 pattern bits as iota'x - 2 S, with
S = sum_i bits_i x_i iota_i; a computed k-term inner product is off by at
most k eps/2 ||x||_2. At a one-sided tie S is exactly 0, so the computed
statistic misses iota'x by at most (n + 1/2) eps ||x||_2 < tau. At a
two-sided tie S may instead equal iota'x, which is computed apart, and
the miss is at most (2n + 2k + 1) eps/2 ||x||_2 for a pattern of k set
bits, below tau for k < n. The one pattern with k = n, g = -I, is
replaced by the identity, whose two-sided statistic is the same and exact.
For a representation with signatures, one dataset's M statistics are the
Walsh-Hadamard transform (in flipcore) of B_s = sum of x_i iota_i over
sig_i = s, O(n + M log M) work. Each is a tree sum of the n rounded
products of depth <= (largest bin) + log2 M <= 2n, and a depth-d sum is off
by at most d eps/2 ||x||_2: by n eps ||x||_2 at most, the bound behind tau.
The MC sign-flip patterns are drawn as packed mask words by the flipcore
sampler, ``random_masks`` with replacement or ``distinct_masks`` outside
the identity without, and unpacked to bits once per chunk. The MC z
family has no data vector and uses tau = 0. The MC orthogonal family
draws each statistic from the symmetric Beta law, O(M) work per dataset.
The full-orthogonal-group test has a closed form through the same law
and is equivalent to the one-sample t-test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flipcore import (
    DimensionMismatchError, _walsh_hadamard, distinct_masks, masks_to_bits, masks_to_words, random_masks,
)
from .leak import Direction, MatrixRepresentation
from .special import beta_sym_cdf

__all__ = [
    "Dataset",
    "TestResult",
    "statistic",
    "subgroup_test",
    "mc_signflip_test",
    "mc_orthogonal_test",
    "full_orthogonal_test",
    "mc_z_test",
    "exceed_counts",
]

_COLUMN_MATCH_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Dataset:
    """An observation vector together with the direction of interest."""

    n: int
    x: np.ndarray
    iota: Direction

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"x shape {x.shape} != ({self.n},)")
        if not np.all(np.isfinite(x)):
            raise ValueError("x must be finite-valued")
        if self.iota.n != self.n:
            raise DimensionMismatchError(f"iota n={self.iota.n} != {self.n}")
        x.flags.writeable = False
        object.__setattr__(self, "x", x)

    @classmethod
    def from_vector(cls, x, iota: Direction | None = None) -> "Dataset":
        x = np.asarray(x, dtype=float)
        if iota is None:
            iota = Direction.uniform(len(x))
        return cls(len(x), x, iota)


@dataclass(frozen=True)
class TestResult:
    """Outcome of one invariance test.

    For finite transformation sets, ``p_value = exceed_count / total``
    and the identity always ties itself, so ``exceed_count >= 1``. The
    closed-form orthogonal-group test reports ``exceed_count`` and
    ``total`` as None.
    """

    p_value: float
    reject: bool
    statistic: float
    exceed_count: int | None
    total: int | None
    side: str
    alpha: float

    def to_dict(self) -> dict:
        return {
            "p_value": float(self.p_value),
            "reject": bool(self.reject),
            "statistic": float(self.statistic),
            "exceed_count": None if self.exceed_count is None else int(self.exceed_count),
            "total": None if self.total is None else int(self.total),
            "side": self.side,
            "alpha": float(self.alpha),
        }


def _check_side(side: str):
    if side not in ("one", "two"):
        raise ValueError(f"side must be 'one' or 'two', got {side!r}")


def _check_alpha(alpha: float):
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha={alpha} outside (0, 1)")


def statistic(x, iota: Direction, side: str = "one") -> float:
    """iota'x for one-sided testing, |iota'x| for two-sided."""
    _check_side(side)
    x = np.asarray(x, dtype=float)
    if x.shape != (iota.n,):
        raise DimensionMismatchError(f"x shape {x.shape} != ({iota.n},)")
    v = float(iota.coords @ x)
    return abs(v) if side == "two" else v


#: rows per Monte Carlo draw; fixes the draw order of seeded batches
_CHUNK = 4096
#: tie tolerance tau = _TIE_EPS * n * ||x||_2 (see the module docstring)
_TIE_EPS = 2.0 * np.finfo(float).eps


def tie_tolerance(X: np.ndarray) -> np.ndarray:
    """Per-row tie tolerance tau = 2 n eps ||x||_2 of a (reps, n) batch."""
    return _TIE_EPS * X.shape[1] * np.sqrt((X * X).sum(axis=1))


def _walsh_pays(reps: int, n: int, M: int) -> bool:
    """Measured: one dataset's product costs ~0.3 ns per n M, its transform ~25 us + 1.2 ns per M log2 M."""
    return reps == 1 and n * M >= (1 << 17) + 4 * M * (M.bit_length() - 1)


def _exceed(stats: np.ndarray, obs: np.ndarray, tau: np.ndarray, side: str) -> np.ndarray:
    """The one exceedance counter: #{j : stats[r, j] >= obs[r] - tau[r]} for every row r."""
    if side == "two":
        stats, obs = np.abs(stats), np.abs(obs)
    return (stats >= (obs - tau)[:, None]).sum(axis=1)


def _subgroup_stats(X: np.ndarray, rep: MatrixRepresentation) -> np.ndarray:
    """X @ rep.columns, by the binned transform when ``rep`` has signatures and ``_walsh_pays``."""
    reps, n = X.shape
    if rep.signatures is None or not _walsh_pays(reps, n, rep.M):
        return X @ rep.columns
    return _walsh_hadamard(np.bincount(rep.signatures, X[0] * rep.iota, rep.M))[None]


def _signflip_stats(bits: np.ndarray, X: np.ndarray, iota: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """iota'(g x) = iota'x - 2 sum_i bits_i x_i iota_i for each (rows, draws, n) sign pattern g."""
    return obs[:, None] - 2.0 * np.einsum("cmn,cn->cm", bits, X * iota)


def exceed_counts(
    family: str,
    X,
    side: str = "one",
    *,
    rep: MatrixRepresentation | None = None,
    iota: np.ndarray | None = None,
    M: int = 1,
    replacement: str = "without",
    sigma: float = 1.0,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exceed counts and observed statistics of every row of X (reps x n) under one finite family.

    ``family`` is "subgroup" (statistics X @ rep.columns, the identity in
    column 0, or their Walsh-Hadamard form when ``rep`` has signatures),
    "mc-signflip" (M - 1 random sign patterns of
    ``iota``, drawn with or without ``replacement``), "mc-orthogonal" (M - 1
    uniform random rotations of ``iota``) or "mc-z" (M - 1 draws of
    N(0, sigma^2) against X @ iota, with tau = 0). Row r's count is the
    number of transformations, the identity included, whose statistic
    reaches row r's observed one. Monte Carlo draws come from ``rng`` in
    chunks of 4096 rows. The observed statistics are returned as absolute
    values when ``side`` is "two".
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None]
    reps, n = X.shape
    tau = np.zeros(reps) if family == "mc-z" else tie_tolerance(X)
    if family == "subgroup":
        stats = _subgroup_stats(X, rep)
        obs = stats[:, 0]
        counts = _exceed(stats, obs, tau, side)
    else:
        obs = X @ iota
        counts = np.empty(reps, dtype=np.int64)
        for lo in range(0, reps, _CHUNK):
            xc = X[lo : lo + _CHUNK]
            c = len(xc)
            if family == "mc-signflip":
                if replacement == "with":
                    words = random_masks(rng, n, (c, M - 1))
                else:
                    words = distinct_masks(rng, n, c, M - 1, masks_to_words([0], n))
                bits = masks_to_bits(words, n)
                if side == "two":  # -I has the identity's two-sided statistic (module docstring)
                    bits[bits.all(axis=2)] = 0
                stats = _signflip_stats(bits, xc, iota, obs[lo : lo + c])
            elif family == "mc-orthogonal":
                if n > 1:  # (1 + u) / 2 ~ Beta((n-1)/2, (n-1)/2), which has no n = 1 case
                    u = 2.0 * rng.beta((n - 1) / 2, (n - 1) / 2, (c, M - 1)) - 1.0
                else:  # u = +-1 with probability 1/2 each
                    u = np.sign(rng.standard_normal((c, M - 1)))
                stats = u * np.linalg.norm(xc, axis=1, keepdims=True)
            elif family == "mc-z":
                stats = sigma * rng.standard_normal((c, M - 1))
            else:
                raise ValueError(f"unknown test family {family!r}")
            counts[lo : lo + c] = 1 + _exceed(stats, obs[lo : lo + c], tau[lo : lo + c], side)
    return counts, (np.abs(obs) if side == "two" else obs)


def _finite_result(family: str, x, total: int, alpha: float, side: str, **kwargs) -> TestResult:
    """TestResult of one dataset: the batched kernel at reps = 1."""
    counts, obs = exceed_counts(family, x, side, **kwargs)
    exceed = int(counts[0])
    p = exceed / total
    return TestResult(
        p_value=p,
        reject=p <= alpha,
        statistic=float(obs[0]),
        exceed_count=exceed,
        total=total,
        side=side,
        alpha=alpha,
    )


def subgroup_test(data: Dataset, rep: MatrixRepresentation, alpha: float, side: str = "one") -> TestResult:
    """Exact invariance test over the transformation set held in ``rep``."""
    _check_side(side)
    _check_alpha(alpha)
    if rep.n != data.n:
        raise DimensionMismatchError(f"representation n={rep.n} != data n={data.n}")
    if np.max(np.abs(rep.iota - data.iota.coords)) > _COLUMN_MATCH_TOL:
        raise ValueError("column 0 of the representation must equal the data's iota")
    return _finite_result("subgroup", data.x, rep.M, alpha, side, rep=rep)


def mc_signflip_test(
    data: Dataset,
    M: int,
    alpha: float,
    side: str = "one",
    replacement: str = "without",
    seed=None,
) -> TestResult:
    """Monte Carlo sign-flipping test: M-1 random sign patterns plus the identity."""
    _check_side(side)
    _check_alpha(alpha)
    if replacement not in ("with", "without"):
        raise ValueError(f"replacement must be 'with' or 'without', got {replacement!r}")
    if M < 1:
        raise ValueError("M must be at least 1")
    return _finite_result(  # the sampler rejects M - 1 > 2^n - 1 draws without replacement
        "mc-signflip", data.x, M, alpha, side, iota=data.iota.coords, M=M,
        replacement=replacement, rng=np.random.default_rng(seed),
    )


def mc_orthogonal_test(data: Dataset, M: int, alpha: float, side: str = "one", seed=None) -> TestResult:
    """Monte Carlo test over the full orthogonal group.

    Each draw needs only the image of the statistic: iota'Hx = u ||x||,
    where u, the projection of a uniform unit vector on a fixed one, has
    (1 + u) / 2 ~ Beta((n-1)/2, (n-1)/2), the symmetric Beta law of
    ``full_orthogonal_test``. So each draw is one Beta variate, and no
    n x n matrix or n-vector is sampled. At n = 1, u = +-1 with
    probability 1/2 each.
    """
    _check_side(side)
    _check_alpha(alpha)
    if M < 1:
        raise ValueError("M must be at least 1")
    if not np.any(data.x):
        raise ValueError("x must have positive norm")
    return _finite_result(
        "mc-orthogonal", data.x, M, alpha, side, iota=data.iota.coords, M=M, rng=np.random.default_rng(seed)
    )


def full_orthogonal_test(data: Dataset, alpha: float, side: str = "one") -> TestResult:
    """Invariance test over the entire orthogonal group, in closed form.

    Equivalent to the one-sample t-test: the p-value is the upper tail of
    the symmetric Beta law at iota'x / ||x||.
    """
    _check_side(side)
    _check_alpha(alpha)
    n = data.n
    norm2 = float(data.x @ data.x)
    if norm2 == 0.0:
        raise ValueError("x must have positive norm")
    proj = float(data.iota.coords @ data.x)
    resid2 = norm2 - proj * proj
    if resid2 <= 1e-12 * norm2:
        raise ValueError("x is (numerically) proportional to iota; the test is undefined")
    z = float(proj / np.sqrt(norm2))
    z = min(1.0, max(-1.0, z))
    if side == "one":  # the lower tail at -z, so that no p-value is 1 - cdf with its cancellation
        p = beta_sym_cdf(-z, n)
        obs = proj
    else:
        p = 2.0 * beta_sym_cdf(-abs(z), n)
        obs = abs(proj)
    return TestResult(
        p_value=p,
        reject=bool(p <= alpha),
        statistic=obs,
        exceed_count=None,
        total=None,
        side=side,
        alpha=alpha,
    )


def t_statistic(data: Dataset) -> float:
    """sqrt(n-1) iota'x / sqrt(x'(I - iota iota')x), the classical t form."""
    proj = float(data.iota.coords @ data.x)
    resid2 = float(data.x @ data.x) - proj * proj
    if resid2 <= 0:
        raise ValueError("x is proportional to iota; the t-statistic is undefined")
    return np.sqrt(data.n - 1) * proj / np.sqrt(resid2)


def mc_z_test(observed: float, M: int, alpha: float, sigma: float = 1.0, seed=None) -> TestResult:
    """Rank the observed value among M-1 independent N(0, sigma^2) draws."""
    _check_alpha(alpha)
    if M < 1:
        raise ValueError("M must be at least 1")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    # the observed value is the statistic of a one-coordinate dataset along iota = (1,)
    return _finite_result(
        "mc-z", [[float(observed)]], M, alpha, "one", iota=np.ones(1), M=M, sigma=sigma,
        rng=np.random.default_rng(seed),
    )

