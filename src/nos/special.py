"""Self-contained special functions for the test layer.

Regularized incomplete beta via the standard continued fraction (modified
Lentz evaluation), and the derived quantities actually used by the tests:
the CDF of the symmetric Beta law on [-1, 1] (the distribution of the
inner product of a fixed unit vector with a uniformly random one) and its
quantile, by bisection of that CDF down to adjacent doubles. There is no
general inverse of the incomplete beta.

The upper tail of the same law also has an array form, ``beta_sym_sf``,
for the Monte Carlo orthogonal-group test, which needs one tail per
dataset. With u = sin t the law's density is proportional to cos^(n-2) t,
and unrolling the reduction formula of the integral of cos^k gives the
closed forms of Abramowitz & Stegun 26.7.3-4: a fixed vector of positive
coefficients per n against the powers of 1 - u^2, which one cumprod and one
matrix-vector product evaluate for a whole array.

Target accuracies: 1e-12 for CDF values; 1e-13 for the array tail up to
n = 4 096 (its measured distance from scipy grows about as n: 1e-14 at
n = 1 024, 4e-14 at 4 096); 1e-10 for quantile round trips, or the CDF's
step between adjacent doubles where larger (z near -1, n = 2).
"""

from __future__ import annotations

import math

import numpy as np

#: bytes of one temporary that grows as rows x n x M (MC sign-flip signs in testkit, greedy scores
#: in construct) or as rows x n / 2 (the powers of ``beta_sym_sf``)
_TEMP_BYTES = 1 << 24

_MAX_CF_ITER = 500
_CF_EPS = 1e-15
_TINY = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Lentz's method)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_CF_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise RuntimeError(f"incomplete beta continued fraction failed for a={a}, b={b}, x={x}")


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x={x} outside [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # the continued fraction converges fast on one side of the mean
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def beta_sym_cdf(z: float, n: int) -> float:
    """CDF at z of the Beta((n-1)/2, (n-1)/2) law mapped affinely to [-1, 1]."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not -1.0 <= z <= 1.0:
        raise ValueError(f"z={z} outside [-1, 1]")
    h = (n - 1) / 2.0
    return betainc_reg(h, h, (z + 1.0) / 2.0)


def beta_sym_quantile(p: float, n: int) -> float:
    """Quantile of the symmetric Beta law on [-1, 1]: hi of adjacent doubles lo < hi with cdf(lo) < p <= cdf(hi)."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    if p in (0.0, 0.5, 1.0):
        return 2.0 * p - 1.0
    lo, hi = -1.0, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:  # bisection of the CDF
        lo, hi = (mid, hi) if beta_sym_cdf(mid, n) < p else (lo, mid)
    return hi


def _sf_series(n: int) -> np.ndarray:
    """Coefficients of the tail's series in the powers s^0, s^1, .. of s = 1 - u^2.

    They are [1, b_3, b_5, .., b_(n-2)] at odd n and [b_2, b_4, .., b_(n-2)]
    at even n, where b_j = 1 / (j prod_{l = j0+2, j0+4, .., j} (l-1)/l) and
    j0 = n mod 2 (so b_2 = 1). The even series of n = 2 is empty: [0].
    """
    j = np.arange(2 + n % 2, n - 1, 2, dtype=float)
    b = 1.0 / (j * np.cumprod((j - 1.0) / j))
    return np.r_[1.0, b] if n % 2 else b if n > 2 else np.zeros(1)


def beta_sym_sf(z, n: int):
    """Upper tail P(u >= z) of the symmetric Beta law on [-1, 1], elementwise over an array z.

    With s = 1 - u^2 and the series coefficients c of ``_sf_series``,
    F(u) - 1/2 is u/2 sum_m c_m s^m at odd n and
    arcsin(u)/pi + u sqrt(s)/pi sum_m c_m s^m at even n. The powers s^m are
    one cumprod over row slices of at most _TEMP_BYTES, and the sum one
    product with c: no loop over terms. The tail is 1 below -1 and 0 above
    1, and it is clipped to [0, 1] against rounding.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    z = np.asarray(z, dtype=float)
    u = np.clip(z, -1.0, 1.0).ravel()
    s = (1.0 - u) * (1.0 + u)
    c = _sf_series(n)
    series = np.full(len(u), c[0])
    step = max(1, _TEMP_BYTES // (8 * len(c)))
    for lo in range(0, len(u), step):
        part = s[lo : lo + step, None]
        series[lo : lo + step] += np.cumprod(np.broadcast_to(part, (len(part), len(c) - 1)), axis=1) @ c[1:]
    if n % 2:
        half = 0.5 * u * series
    else:
        half = (np.arcsin(u) + u * np.sqrt(s) * series) / np.pi
    return np.clip(0.5 - half, 0.0, 1.0).reshape(z.shape)[()]
