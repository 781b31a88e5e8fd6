import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate, stats

from risnoise.fading import (
    CascadeApprox,
    amplitude_mean_factor,
    cascade_approx,
    cascade_moments,
    cdf_X,
    gamma_approx,
    pdf_Y,
    sample_nakagami,
    y_gamma_params,
)


def mp_cascade_moments(n, m_bn, m_nd, om_bn, om_nd):
    # independent high-precision route: products of exact gamma functions
    with mp.workdps(40):
        g = (mp.gamma(m_bn + mp.mpf(1) / 2) * mp.gamma(m_nd + mp.mpf(1) / 2)
             / (mp.gamma(m_bn) * mp.gamma(m_nd)))
        mu = g * mp.sqrt(mp.mpf(om_bn) * om_nd / (mp.mpf(m_bn) * m_nd)) * n
        var = n * mp.mpf(om_bn) * om_nd * (1 - g * g / (mp.mpf(m_bn) * m_nd))
        return float(mu), float(var)


@pytest.mark.parametrize("m,expect", [
    (0.5, 1.0 / math.sqrt(math.pi)),   # Gamma(1)/Gamma(1/2)
    (1.0, math.sqrt(math.pi) / 2.0),   # Gamma(3/2)/Gamma(1)
    (2.0, 0.75 * math.sqrt(math.pi)),  # Gamma(5/2)/Gamma(2)
])
def test_amplitude_mean_factor_closed_forms(m, expect):
    assert_allclose(amplitude_mean_factor(m), expect, rtol=1e-14)


def test_amplitude_mean_factor_refuses_a_shape_past_lgamma():
    # lgamma overflowed with an OverflowError traceback through every sweep
    with pytest.raises(ValueError, match=r"m: lgamma\(m\) is past the double range"):
        amplitude_mean_factor(1.7976931348623157e308)


def mp_large_shape_moments(n, m_bn, m_nd, om_bn, om_nd):
    # loggamma differences at enough digits to outlast their cancellation
    with mp.workdps(60 + 2 * int(math.log10(max(m_bn, m_nd)))):
        log_g = sum(mp.loggamma(mp.mpf(m) + mp.mpf(1) / 2) - mp.loggamma(m) - mp.log(m) / 2
                    for m in (m_bn, m_nd))
        return (float(n * mp.sqrt(mp.mpf(om_bn) * om_nd) * mp.exp(log_g)),
                float(-n * mp.mpf(om_bn) * om_nd * mp.expm1(2 * log_g)))


@pytest.mark.parametrize("m", [64.0, 64.5, 100.0, 1e3, 1e4, 1e5, 1e6, 1e8, 1e10, 1e12,
                               1e306])
def test_cascade_moments_at_large_shapes(m):
    # 1 - g^2/(m_bn*m_nd) cancelled to 1e-6 relative at m = 1e4 and 87x at
    # 1e8, and lgamma refused m = 1e306; the series needs no lgamma
    for m_bn, m_nd in ((m, m), (m, 2.0), (0.5, m)):
        got = cascade_moments(10, m_bn, m_nd, 1.0, 0.25)
        want = mp_large_shape_moments(10, m_bn, m_nd, 1.0, 0.25)
        assert_allclose(got, want, rtol=1e-14)
        if m_bn == m_nd:
            assert_allclose(got, want, rtol=4e-16)


def test_shapes_past_the_double_range_are_refused_by_name():
    big = 1.7976931348623157e308
    with pytest.raises(ValueError, match=r"^mu, sigma2: the shape mu\^2/sigma2"):
        cascade_approx(5, big, big, 1e-6, 0.25)
    with pytest.raises(ValueError, match=r"^n, m_nd: the shape n\*m_nd"):
        y_gamma_params(10, big, 0.25)


@pytest.mark.parametrize("n,m_bn,m_nd,om_bn,om_nd", [
    (1, 2.0, 2.0, 1.0, 1.0),
    (5, 2.0, 2.0, 10.0 ** -6.4, 0.25),
    (10, 2.0, 2.0, 10.0 ** -6.4, 0.25),
    (20, 3.0, 1.5, 2e-7, 0.015625),
    (7, 0.5, 4.5, 1.0, 3.0),
])
def test_cascade_moments_match_high_precision(n, m_bn, m_nd, om_bn, om_nd):
    mu, var = cascade_moments(n, m_bn, m_nd, om_bn, om_nd)
    mu_mp, var_mp = mp_cascade_moments(n, m_bn, m_nd, om_bn, om_nd)
    assert_allclose(mu, mu_mp, rtol=1e-13)
    assert_allclose(var, var_mp, rtol=1e-12)


def test_cascade_moments_against_sampling():
    rng = np.random.default_rng(20240817)
    n, m, om_bn, om_nd = 10, 2.0, 10.0 ** -6.4, 0.25
    trials = 400_000
    a = sample_nakagami(rng, m, om_bn, size=(trials, n))
    b = sample_nakagami(rng, m, om_nd, size=(trials, n))
    d = (a * b).sum(axis=1)
    mu, var = cascade_moments(n, m, m, om_bn, om_nd)
    se_mu = math.sqrt(var / trials)
    assert abs(d.mean() - mu) < 5 * se_mu
    assert abs(d.var(ddof=1) - var) < 0.02 * var


def test_reference_shape_and_scale():
    # for m = 2 on both hops: delta = N g^2/(4 - g^2) with g = (3 sqrt(pi)/4)^2,
    # and zeta/sqrt(om_bn om_nd) = 2/g - g/2
    g = (0.75 * math.sqrt(math.pi)) ** 2
    om_bn, om_nd = 10.0 ** -6.4, 0.25
    for n in (5, 10, 20):
        ap = cascade_approx(n, 2.0, 2.0, om_bn, om_nd)
        assert_allclose(ap.delta, n * g * g / (4.0 - g * g), rtol=1e-13)
        assert_allclose(ap.zeta, math.sqrt(om_bn * om_nd) * (2.0 / g - g / 2.0),
                        rtol=1e-13)
    ap = cascade_approx(10, 2.0, 2.0, om_bn, om_nd)
    assert_allclose(ap.delta, 35.5998700, atol=5e-6)
    assert_allclose(ap.zeta / math.sqrt(om_bn * om_nd), 0.2481956, atol=5e-7)
    # the shape is independent of the mean powers, the scale is not
    ap2 = cascade_approx(10, 2.0, 2.0, 1.0, 1.0)
    assert_allclose(ap2.delta, ap.delta, rtol=1e-13)


@pytest.mark.parametrize("n,expect", [(5, 18), (10, 36), (20, 71)])
def test_integer_shape_rounds_half_up(n, expect):
    # delta = 17.79993/35.59987/71.19974 -> 18/36/71
    assert cascade_approx(n, 2.0, 2.0, 1.0, 1.0).delta_int == expect


def test_integer_shape_floor_is_one():
    # the smallest shape the domain allows (m = 1/2 on both hops, N = 1)
    # still rounds up to the minimum usable integer shape
    ap = cascade_approx(1, 0.5, 0.5, 1.0, 1.0)
    assert ap.delta == pytest.approx(0.6814769, abs=5e-7)
    assert ap.delta_int == 1


def test_gamma_approx_identity_point():
    ap = gamma_approx(1.0, 1.0)
    assert ap.delta == 1.0 and ap.zeta == 1.0 and ap.delta_int == 1


def test_gamma_approx_recovers_moments_exactly():
    # shape*scale = mu and shape*scale^2 = sigma2 are algebraic identities
    for mu, s2 in [(4.41786, 1.0965), (0.2, 3.0), (123.4, 0.01)]:
        ap = gamma_approx(mu, s2)
        assert_allclose(ap.delta * ap.zeta, mu, rtol=1e-14)
        assert_allclose(ap.delta * ap.zeta ** 2, s2, rtol=1e-14)


def test_gamma_approx_unit_power_five_elements():
    mu, s2 = cascade_moments(5, 2.0, 2.0, 1.0, 1.0)
    assert_allclose(mu, 4.41786, atol=5e-6)
    assert_allclose(s2, 1.09649, atol=5e-6)
    assert_allclose(gamma_approx(mu, s2).delta, 17.79994, atol=5e-6)


def test_cascade_approx_rejects_bad_input():
    with pytest.raises(ValueError):
        cascade_approx(0, 2.0, 2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        cascade_approx(5, 0.3, 2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        cascade_approx(5, 2.0, 2.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        cascade_approx(True, 2.0, 2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        gamma_approx(0.0, 1.0)
    with pytest.raises(ValueError):
        gamma_approx(1.0, -0.5)


class TestCdfX:
    def test_matches_gamma_cdf_of_sqrt(self):
        ap = cascade_approx(10, 2.0, 2.0, 10.0 ** -6.4, 0.25)
        x = np.geomspace(1e-12, 1e-6, 25)
        want = stats.gamma.cdf(np.sqrt(x), a=ap.delta, scale=ap.zeta)
        assert_allclose(cdf_X(x, ap), want, rtol=1e-12)

    def test_scalar_and_edges(self):
        ap = cascade_approx(5, 2.0, 2.0, 1.0, 1.0)
        assert cdf_X(0.0, ap) == 0.0
        assert cdf_X(-1.0, ap) == 0.0
        assert isinstance(cdf_X(1.0, ap), float)
        assert 0.0 < cdf_X(ap.mu ** 2, ap) < 1.0
        assert cdf_X(1e12, ap) == pytest.approx(1.0, abs=1e-12)

    def test_monotone(self):
        ap = cascade_approx(10, 2.0, 2.0, 1.0, 1.0)
        v = cdf_X(np.linspace(0.0, 400.0, 200), ap)
        assert np.all(np.diff(v) >= 0.0)

    def test_against_empirical_distribution(self):
        # moment-matched Gamma tracks the true D^2 law well in the bulk
        rng = np.random.default_rng(7)
        n, m = 5, 2.0
        ap = cascade_approx(n, m, m, 1.0, 1.0)
        a = sample_nakagami(rng, m, 1.0, size=(300_000, n))
        b = sample_nakagami(rng, m, 1.0, size=(300_000, n))
        x = ((a * b).sum(axis=1)) ** 2
        for q in (0.1, 0.25, 0.5, 0.75, 0.9):
            xq = np.quantile(x, q)
            assert cdf_X(xq, ap) == pytest.approx(q, abs=0.01)


class TestPdfY:
    def test_params(self):
        assert y_gamma_params(10, 2.0, 0.25) == (20.0, 8.0)
        with pytest.raises(ValueError):
            y_gamma_params(0, 2.0, 0.25)

    def test_matches_scipy(self):
        y = np.geomspace(1e-3, 30.0, 40)
        got = pdf_Y(y, 10, 2.0, 0.25)
        shape, rate = y_gamma_params(10, 2.0, 0.25)
        assert_allclose(got, stats.gamma.pdf(y, a=shape, scale=1.0 / rate),
                        rtol=1e-12)

    def test_normalization_and_moments(self):
        n, m, om = 10, 2.0, 0.25
        total, _ = integrate.quad(lambda y: pdf_Y(y, n, m, om), 0.0, np.inf)
        mean, _ = integrate.quad(lambda y: y * pdf_Y(y, n, m, om), 0.0, np.inf)
        ex2, _ = integrate.quad(lambda y: y * y * pdf_Y(y, n, m, om), 0.0, np.inf)
        assert_allclose(total, 1.0, rtol=1e-9)
        assert_allclose(mean, n * om, rtol=1e-9)              # E Y = N omega
        assert_allclose(ex2 - mean ** 2, n * om * om / m, rtol=1e-8)  # Var = N om^2/m

    def test_edges(self):
        assert pdf_Y(0.0, 10, 2.0, 0.25) == 0.0
        assert pdf_Y(-1.0, 10, 2.0, 0.25) == 0.0
        assert pdf_Y(0.0, 1, 1.0, 2.0) == 0.5          # shape 1: pdf(0) = rate
        assert np.isinf(pdf_Y(0.0, 1, 0.7, 1.0))       # shape < 1 diverges
        assert isinstance(pdf_Y(1.0, 10, 2.0, 0.25), float)

    def test_matches_empirical_sum(self):
        rng = np.random.default_rng(99)
        n, m, om = 10, 2.0, 0.25
        y = (sample_nakagami(rng, m, om, size=(200_000, n)) ** 2).sum(axis=1)
        assert abs(y.mean() - n * om) < 5 * math.sqrt(n * om * om / m / 200_000)
        shape, rate = y_gamma_params(n, m, om)
        for q in (0.05, 0.5, 0.95):
            assert np.quantile(y, q) == pytest.approx(
                stats.gamma.ppf(q, a=shape, scale=1.0 / rate), rel=0.02)


class TestSampleNakagami:
    def test_moments(self):
        rng = np.random.default_rng(3)
        m, om = 2.0, 0.25
        s = sample_nakagami(rng, m, om, size=500_000)
        assert abs((s ** 2).mean() - om) < 5 * om / math.sqrt(2 * 500_000)
        want_mean = amplitude_mean_factor(m) * math.sqrt(om / m)
        assert s.mean() == pytest.approx(want_mean, rel=5e-3)

    def test_rayleigh_special_case(self):
        # m = 1 is Rayleigh: P(|g| > r) = exp(-r^2/omega)
        rng = np.random.default_rng(11)
        s = sample_nakagami(rng, 1.0, 2.0, size=400_000)
        r = 1.3
        assert (s > r).mean() == pytest.approx(math.exp(-r * r / 2.0), abs=4e-3)

    def test_shape_and_validation(self):
        rng = np.random.default_rng(0)
        assert sample_nakagami(rng, 2.0, 1.0, size=(3, 4)).shape == (3, 4)
        assert np.all(sample_nakagami(rng, 2.0, 1.0, size=100) >= 0.0)
        with pytest.raises(ValueError):
            sample_nakagami(rng, 0.2, 1.0)
        with pytest.raises(ValueError):
            sample_nakagami(rng, 2.0, -1.0)
