"""The symmetric Beta law on [-1, 1], in two forms with one role each.

The law is Beta(h, h), h = (n-1)/2, mapped affinely to [-1, 1]: that of the
inner product of a fixed unit vector with a uniformly random one.

``beta_sym_cdf`` serves full-orthogonal p-values and, bisected by
``beta_sym_quantile``, t critical values, which need relative accuracy in
the tail. It sums the incomplete beta's hypergeometric form (DLMF 8.17.8),
F(-a) = (1 - a^2)^h sum_k c_k (1 - a)^k / d for a >= 0 (d sets F(0) = 1/2),
whose terms are all positive, about 50 + 9 sqrt(n) of them. Up to n = 65 536 it
is within 1.3e-14 of scipy, and 6.5e-13 relative of a 40-digit sum down to
1e-300. Quantile round trips hold to 1e-10, or to the CDF's step between
adjacent doubles where larger.

``beta_sym_sf`` is the array tail for the Monte Carlo orthogonal test's
binomial probabilities, which need absolute accuracy only: Abramowitz &
Stegun 26.7.3-4, about n/2 coefficients against the powers of 1 - u^2,
within 1e-13 of scipy up to n = 4 096. As 1/2 minus a sum near 1/2, it has
relative error 2e-5 at (n = 50, z = 0.8) and 100 % beyond, so it cannot give
p-values; the positive series, at 50 + 9 sqrt(n) terms against n/2, would
slow simlab's blocks at small n.
"""

from __future__ import annotations

import functools
import math

import numpy as np

#: bytes of one temporary that grows as rows x n x M (MC sign-flip signs in testkit, greedy scores
#: in construct) or as rows x n / 2 (the powers of ``beta_sym_sf``)
_TEMP_BYTES = 1 << 24


@functools.lru_cache(maxsize=64)
def _lower_series(n: int) -> tuple[float, tuple[float, ...]]:
    """(d, c): c_k = prod_(j<k) (n-1+j)/(n+1+2j), highest k first, and d = 2 sum_k c_k as Horner sums it.

    The ratios r_k = (n-1+k)/(n+1+2k) tend to 1/2, from above at n >= 3 and from below at n = 2, so the
    whole remainder past c_k is at most c_k / (1 - max(r_k, 1/2)); c ends before that falls below 2^-56.
    """
    c = [1.0]
    while True:
        k = len(c)
        ck = c[-1] * (n - 2 + k) / (n - 1 + 2 * k)
        if ck / (1.0 - max((n - 1 + k) / (n + 1 + 2 * k), 0.5)) < 2.0**-56:
            c = tuple(reversed(c))  # d is then the Horner sum at y = 1, and F(0) = 1/2 exactly
            return 2.0 * functools.reduce(float.__add__, c), c
        c.append(ck)


def beta_sym_cdf(z: float, n: int) -> float:
    """CDF at z of the Beta((n-1)/2, (n-1)/2) law mapped affinely to [-1, 1]: F(-|z|) by its series, or 1 minus it."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not -1.0 <= z <= 1.0:
        raise ValueError(f"z={z} outside [-1, 1]")
    a = abs(z)
    if a == 1.0:
        return 1.0 if z > 0 else 0.0
    d, c = _lower_series(n)
    y = 1.0 - a
    s = 0.0
    for ck in c:
        s = s * y + ck
    # (1 - a^2)^h as exp(h (log1p(-a) + log1p(a))), not as a power of a rounded 1 - a^2, whose rounding h multiplies
    lower = math.exp(0.5 * (n - 1) * (math.log1p(-a) + math.log1p(a))) * s / d
    return 1.0 - lower if z > 0 else lower


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


@functools.lru_cache(maxsize=64)
def _sf_series(n: int) -> np.ndarray:
    """Coefficients of the tail's series in the powers s^0, s^1, .. of s = 1 - u^2.

    They are [1, b_3, b_5, .., b_(n-2)] at odd n and [b_2, b_4, .., b_(n-2)]
    at even n, where b_j = 1 / (j prod_{l = j0+2, j0+4, .., j} (l-1)/l) and
    j0 = n mod 2 (so b_2 = 1). The even series of n = 2 is empty: [0].
    """
    j = np.arange(2 + n % 2, n - 1, 2, dtype=float)
    b = 1.0 / (j * np.cumprod((j - 1.0) / j))
    c = np.r_[1.0, b] if n % 2 else b if n > 2 else np.zeros(1)
    c.flags.writeable = False
    return c


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
