"""Special functions against scipy, which serves only as an independent oracle."""

import math

import numpy as np
import pytest
from scipy import special as sp
from scipy import stats

from nos.special import beta_sym_cdf, beta_sym_quantile, beta_sym_sf
from nos.testkit import Dataset, full_orthogonal_test


def _snapped(z):
    # z on the multiples of 2^-53, so that the argument (1 + z) / 2 of a reference is exact
    return np.round(np.asarray(z) * 2.0**53) / 2.0**53


@pytest.mark.parametrize("n", [2, 3, 16, 64, 1024, 4096, 16384, 65536])
def test_beta_sym_cdf_matches_scipy(n):
    # absolute on [-1, 1] (within 8 sd of 0 for large n, where the rest rounds to 0 or 1), and relative on
    # the lower tail down to 1e-300, which p-values take; scipy's own distance from a 40-digit sum of the
    # same series is up to 1.9e-12 relative at n = 16 384
    h = (n - 1) / 2.0
    zmax = 1.0 if n < 1024 else 8.0 / math.sqrt(n)
    z = _snapped(np.r_[np.linspace(-zmax, zmax, 401), np.random.default_rng(n).uniform(-zmax, zmax, 200)])
    want = np.where(z > 0, stats.beta.sf((1.0 - z) / 2.0, h, h), stats.beta.cdf((1.0 + z) / 2.0, h, h))
    assert max(abs(beta_sym_cdf(float(v), n) - w) for v, w in zip(z, want)) <= 1e-12
    z = _snapped(-np.linspace(0.0, 1.0, 1001)[1:-1])
    want = stats.beta.cdf((1.0 + z) / 2.0, h, h)
    z, want = z[want >= 1e-300], want[want >= 1e-300]
    assert max(abs(beta_sym_cdf(float(v), n) / w - 1.0) for v, w in zip(z, want)) <= 1e-11
    # the support's ends, and the centre exactly
    assert (beta_sym_cdf(-1.0, n), beta_sym_cdf(0.0, n), beta_sym_cdf(1.0, n)) == (0.0, 0.5, 1.0)
    for bad_z, bad_n in ((1.5, n), (-1.5, n), (0.5, 1)):
        with pytest.raises(ValueError):
            beta_sym_cdf(bad_z, bad_n)


def test_beta_sym_cdf_symmetry():
    for n in (3, 10, 30):
        assert beta_sym_cdf(0.0, n) == pytest.approx(0.5, abs=1e-14)
        for z in (0.1, 0.4, 0.9):
            assert beta_sym_cdf(-z, n) == pytest.approx(1.0 - beta_sym_cdf(z, n), abs=1e-12)


_QUANTILE_PS = (1e-8, 1e-3, 0.01, 0.1, 0.2, 0.5, 0.8, 0.9, 0.99, 0.999, 1 - 1e-6)


def test_beta_sym_quantile_roundtrip():
    # n = 2, 4 and 10 are Beta(a, a) at a = 0.5, 1.5 and 4.5. The quantile is a double, so the round trip
    # is checked to 1e-10 or to the CDF's step from the next double below, whichever is larger: at n = 2,
    # p = 1e-8 the quantile is -1 + 5.6e-16, where adjacent doubles are 1.1e-16 apart and the CDF steps 1.1e-9
    for n in (2, 3, 4, 8, 10, 25, 1000):
        for p in _QUANTILE_PS:
            z = beta_sym_quantile(p, n)
            step = beta_sym_cdf(z, n) - beta_sym_cdf(np.nextafter(z, -1.0), n)
            assert abs(beta_sym_cdf(z, n) - p) <= max(1e-10, step), (n, p)


def test_beta_sym_quantile_matches_scipy():
    for n in (2, 3, 4, 8, 10, 25, 1000):
        h = (n - 1) / 2
        for p in (1e-12,) + _QUANTILE_PS:
            assert beta_sym_quantile(p, n) == pytest.approx(2 * float(sp.betaincinv(h, h, p)) - 1, abs=1e-11), (n, p)


def test_beta_sym_quantile_endpoints_and_validation():
    assert [beta_sym_quantile(p, 5) for p in (0.0, 0.5, 1.0)] == [-1.0, 0.0, 1.0]
    with pytest.raises(ValueError):
        beta_sym_quantile(1.5, 5)
    with pytest.raises(ValueError):
        beta_sym_quantile(0.5, 1)


def test_beta_to_t_pushes_law_forward():
    # z -> sqrt(n - 1) z / sqrt(1 - z^2) carries the symmetric Beta law to
    # t_{n-1}, so F_t(map(z)) must equal F_beta(z)
    for n in (2, 4, 12, 40):
        for z in (-0.9, -0.3, 0.0, 0.5, 0.95):
            t = math.sqrt(n - 1) * z / math.sqrt(1.0 - z * z)
            assert beta_sym_cdf(z, n) == pytest.approx(float(stats.t.cdf(t, n - 1)), abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5, 12, 40, 101])
def test_full_orthogonal_p_value_is_the_t_tail(n):
    # the closed-form orthogonal-group test is the one-sample t-test: its
    # p-value is the t_{n-1} tail at the textbook sqrt(n) mean / sd
    rng = np.random.default_rng(n)
    for shift in (-1.0, 0.0, 0.3, 2.0):
        x = rng.standard_normal(n) + shift
        t = math.sqrt(n) * x.mean() / x.std(ddof=1)
        data = Dataset.from_vector(x)
        one = full_orthogonal_test(data, alpha=0.05).p_value
        two = full_orthogonal_test(data, alpha=0.05, side="two").p_value
        assert one == pytest.approx(float(stats.t.sf(t, n - 1)), abs=1e-12)
        assert two == pytest.approx(2.0 * float(stats.t.sf(abs(t), n - 1)), abs=1e-12)


def _scipy_sym_sf(z, n):
    # scipy's Beta tail at arguments that round to nothing: 1 - z is exact for
    # z > 0 (the far tail by symmetry) and 1 + z for z <= -1/2. The plain
    # beta.sf((z + 1) / 2) loses up to 8e-13 near z = 1 at n = 2, where the
    # density is steep and z + 1 rounds
    h = (n - 1) / 2.0
    return np.where(z > 0, stats.beta.cdf((1.0 - z) / 2.0, h, h), stats.beta.sf((1.0 + z) / 2.0, h, h))


@pytest.mark.parametrize("n", list(range(2, 65)) + [257, 1024, 2048, 4096])
def test_beta_sym_sf_matches_scipy(n):
    edges = [-1.0, -(1.0 - 1e-9), -0.5, 0.0, 0.5, 1.0 - 1e-9, 1.0]
    z = np.r_[edges, np.linspace(-1.0, 1.0, 401), np.random.default_rng(n).uniform(-1.0, 1.0, 200)]
    got = beta_sym_sf(z, n)
    assert got.shape == z.shape
    assert np.max(np.abs(got - _scipy_sym_sf(z, n))) <= 1e-13
    assert np.all((0.0 <= got) & (got <= 1.0))
    # the scalar form, and the support's ends
    assert beta_sym_sf(0.0, n) == pytest.approx(0.5, abs=1e-15)
    assert beta_sym_sf(1.0, n) == 0.0 and beta_sym_sf(-1.0, n) == 1.0
    assert list(beta_sym_sf([-3.0, 2.0], n)) == [1.0, 0.0]


def test_beta_sym_sf_stays_in_the_unit_interval_near_the_ends():
    # near z = 1 the tail is 1/2 less a sum near 1/2; unclipped it rounds below 0
    for n in (2, 3, 64, 2048, 2049, 4096):
        z = np.r_[1.0 - np.logspace(-16, -1, 400), -1.0 + np.logspace(-16, -1, 400)]
        got = beta_sym_sf(z, n)
        assert np.all((0.0 <= got) & (got <= 1.0)), n


def test_beta_sym_sf_at_n2_is_the_arcsine_law():
    # the U-shaped law of the paper's n = 2 counterexample: F(z) = 1/2 + arcsin(z)/pi
    z = np.linspace(-1.0, 1.0, 1001)
    assert np.max(np.abs(beta_sym_sf(z, 2) - (0.5 - np.arcsin(z) / np.pi))) <= 1e-15


def test_beta_sym_sf_matches_the_scalar_cdf_and_rejects_n1():
    for n in (2, 3, 10, 33, 1024, 4096):
        # and within 1.2 sd of 0, where the mass of large n lies (the law's sd is 1 / sqrt(n))
        for z in (-0.9, -0.2, 0.4, 0.99) + tuple(t / math.sqrt(n) for t in (-1.2, -0.6, 0.3, 0.9)):
            assert beta_sym_sf(z, n) == pytest.approx(beta_sym_cdf(-z, n), abs=1e-13)
    with pytest.raises(ValueError):
        beta_sym_sf(0.5, 1)
