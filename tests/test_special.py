"""Special functions against scipy, which serves only as an independent oracle."""

import math

import numpy as np
import pytest
from scipy import special as sp
from scipy import stats

from nos.special import beta_sym_cdf, beta_sym_quantile, betainc_inv_reg, betainc_reg
from nos.testkit import Dataset, full_orthogonal_test


@pytest.mark.parametrize("a,b", [(0.5, 0.5), (1.0, 3.0), (4.5, 4.5), (24.5, 0.5), (10.0, 2.0)])
def test_betainc_matches_scipy(a, b):
    for x in np.linspace(0.001, 0.999, 41):
        assert betainc_reg(a, b, x) == pytest.approx(float(sp.betainc(a, b, x)), abs=1e-12)


def test_betainc_endpoints_and_validation():
    assert betainc_reg(2.0, 3.0, 0.0) == 0.0
    assert betainc_reg(2.0, 3.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        betainc_reg(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        betainc_reg(1.0, 1.0, 1.5)


@pytest.mark.parametrize("a,b", [(0.5, 0.5), (1.5, 1.5), (4.5, 4.5), (10.0, 3.0)])
def test_betainc_inverse_roundtrip(a, b):
    # the upper endpoint stays at 1 - 1e-6: beyond that the Beta(.5,.5) CDF
    # slope near x = 1 outruns the spacing of representable doubles
    for p in (1e-8, 1e-3, 0.1, 0.5, 0.9, 0.999, 1 - 1e-6):
        x = betainc_inv_reg(a, b, p)
        assert betainc_reg(a, b, x) == pytest.approx(p, abs=1e-10)


def test_beta_sym_cdf_symmetry():
    for n in (3, 10, 30):
        assert beta_sym_cdf(0.0, n) == pytest.approx(0.5, abs=1e-14)
        for z in (0.1, 0.4, 0.9):
            assert beta_sym_cdf(-z, n) == pytest.approx(1.0 - beta_sym_cdf(z, n), abs=1e-12)


def test_beta_sym_quantile_roundtrip():
    for n in (3, 8, 25):
        for p in (0.01, 0.2, 0.5, 0.8, 0.99):
            z = beta_sym_quantile(p, n)
            assert beta_sym_cdf(z, n) == pytest.approx(p, abs=1e-10)


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
