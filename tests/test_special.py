"""Special functions against scipy, which serves only as an independent oracle."""

import math

import numpy as np
import pytest
from scipy import special as sp
from scipy import stats

from nos.special import beta_sym_cdf, beta_sym_quantile, betainc_reg
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
