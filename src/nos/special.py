"""Self-contained special functions for the test layer.

Regularized incomplete beta via the standard continued fraction (modified
Lentz evaluation), and the derived quantities actually used by the tests:
the CDF of the symmetric Beta law on [-1, 1] (the distribution of the
inner product of a fixed unit vector with a uniformly random one) and its
quantile, by bisection of that CDF down to adjacent doubles. There is no
general inverse of the incomplete beta.

Target accuracies: 1e-12 for CDF values; 1e-10 for quantile round trips,
or the CDF's step between adjacent doubles where larger (z near -1, n = 2).
"""

from __future__ import annotations

import math

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
