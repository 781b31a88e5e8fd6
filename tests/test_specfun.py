import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate, special

from risnoise import specfun
from risnoise.specfun import (
    AccuracyError,
    UnsupportedShapeError,
    integrate_semi_infinite,
    kummer_1f1,
    kummer_1f1_mpf,
    meijer_g_1_1_1_2,
    meijer_g_2_1_1_2,
    meijer_g_2_1_1_2_contour,
    meijer_g_2_1_1_2_mpf,
    reg_lower_gamma,
)


class TestRegLowerGamma:
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 17.8, 35.6, 71.2])
    @pytest.mark.parametrize("x", [1e-8, 0.1, 1.0, 10.0, 80.0])
    def test_against_mpmath(self, a, x):
        got = reg_lower_gamma(a, x)
        with mp.workdps(30):
            want = float(mp.gammainc(a, 0, x, regularized=True))
        assert_allclose(got, want, rtol=1e-12, atol=1e-300)

    def test_vectorized(self):
        x = np.array([0.0, 1.0, 5.0])
        got = reg_lower_gamma(2.0, x)
        assert got.shape == (3,)
        assert got[0] == 0.0
        assert_allclose(got[1], 1.0 - 2.0 * math.exp(-1.0), rtol=1e-14)

    def test_edges(self):
        assert reg_lower_gamma(3.0, 0.0) == 0.0
        assert reg_lower_gamma(3.0, 1e6) == 1.0
        assert isinstance(reg_lower_gamma(3.0, 1.0), float)

    def test_domain(self):
        with pytest.raises(UnsupportedShapeError):
            reg_lower_gamma(0.0, 1.0)
        with pytest.raises(UnsupportedShapeError):
            reg_lower_gamma(-2.0, 1.0)
        with pytest.raises(ValueError):
            reg_lower_gamma(2.0, -1.0)

    def test_float_arguments_take_the_array_path_bits_and_errors(self):
        # two floats skip the array conversion; it must not show
        edges = [0.0, -0.0, 5e-324, 2.2e-308, 1e-300, 0.5, 3.0, 1e6,
                 math.inf, -math.inf, math.nan, -5e-324, -1.0, -1e300]
        for a in edges:
            for x in edges:
                try:
                    want = reg_lower_gamma(np.array(a), np.array(x))
                except ValueError as exc:
                    with pytest.raises(ValueError) as info:
                        reg_lower_gamma(a, x)
                    assert type(info.value) is type(exc), (a, x)
                    continue
                got = reg_lower_gamma(a, x)
                assert type(got) is float
                assert np.array(got).tobytes() == np.array(want).tobytes(), (a, x)


class TestKummer:
    @pytest.mark.parametrize("a,b,z", [
        (0.5, 0.5, 0.3), (10.0, 0.5, 8.8), (2.5, 1.5, 12.0),
        (35.5, 1.5, 2.0), (1.0, 2.0, -5.0), (3.0, 7.5, -20.0),
        (75.5, 0.5, 28.0), (0.7, 1.3, 0.0),
    ])
    def test_against_libraries(self, a, b, z):
        got = kummer_1f1(a, b, z)
        with mp.workdps(30):
            want = float(mp.hyp1f1(a, b, z))
        assert_allclose(got, want, rtol=1e-12)

    def test_terminating_polynomial(self):
        # a = -2: 1 - 2z/b + z^2/(b(b+1)) exactly
        b, z = 1.5, 0.7
        want = 1.0 - 2.0 * z / b + z * z / (b * (b + 1.0))
        assert_allclose(kummer_1f1(-2.0, b, z), want, rtol=1e-14)

    def test_pole_rejected(self):
        for b in (0.0, -1.0, -3.0):
            with pytest.raises(UnsupportedShapeError):
                kummer_1f1(1.0, b, 0.5)
            with pytest.raises(UnsupportedShapeError):
                kummer_1f1_mpf(1.0, b, 0.5)

    def test_exponential_special_case(self):
        # 1F1(a; a; z) = e^z
        for z in (-3.0, 0.5, 12.0):
            assert_allclose(kummer_1f1(4.2, 4.2, z), math.exp(z), rtol=1e-12)

    @pytest.mark.parametrize("a,b,z", [
        (0.5, 1.5, 2.0), (3.0, 4.5, 6.0), (17.8, 18.8, 1.5), (2.0, 9.0, 25.0),
    ])
    def test_reflection_identity_against_independent_reference(self, a, b, z):
        # 1F1(a;b;z) = e^z 1F1(b-a;b;-z); the right side comes from mpmath,
        # so the identity holds scipy's hyp1f1, which kummer_1f1 wraps, to
        # an implementation it shares no code with
        lhs = kummer_1f1(a, b, z)
        with mp.workdps(30):
            rhs = math.exp(z) * float(mp.hyp1f1(b - a, b, -z))
        assert_allclose(lhs, rhs, rtol=1e-9)


class TestMeijerG1112:
    @pytest.mark.parametrize("delta,x", [(1.0, 0.5), (2.0, 3.0), (17.8, 10.0),
                                         (35.6, 30.0), (5.5, 0.01)])
    def test_is_lower_incomplete_gamma(self, delta, x):
        got = meijer_g_1_1_1_2(delta, x)
        with mp.workdps(30):
            want = float(mp.gammainc(delta, 0, x))
        assert_allclose(got, want, rtol=1e-12)

    def test_against_mpmath_meijerg(self):
        for delta, x in [(2.0, 1.5), (4.5, 3.0), (17.8, 10.0)]:
            with mp.workdps(30):
                want = float(mp.meijerg([[1], []], [[delta], [0]], x))
            assert_allclose(meijer_g_1_1_1_2(delta, x), want, rtol=1e-11)

    def test_series_route_cross_check(self):
        # gamma(delta, x) = Gamma(delta) x^delta e^{-x}... via the 1F1 form:
        # x^delta / delta * 1F1(delta; delta + 1; -x)
        for delta, x in [(2.0, 1.5), (7.5, 4.0), (17.8, 9.0)]:
            want = x ** delta / delta * kummer_1f1(delta, delta + 1.0, -x)
            assert_allclose(meijer_g_1_1_1_2(delta, x), want, rtol=1e-10)

    def test_domain(self):
        with pytest.raises(UnsupportedShapeError):
            meijer_g_1_1_1_2(0.0, 1.0)
        with pytest.raises(ValueError):
            meijer_g_1_1_1_2(2.0, -0.5)


def laplace_reference(a1, z):
    # positive-integrand route: G = sqrt(pi) * int t^(al-1) e^(-t - 2 sqrt(z t)) dt
    alpha = 1.0 - a1
    lg = special.gammaln(alpha)

    def f(t):
        if t <= 0.0:
            return 0.0
        return math.exp((alpha - 1.0) * math.log(t) - t - 2.0 * math.sqrt(z * t) - lg)

    val, err = integrate.quad(f, 0.0, np.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    return val * math.sqrt(math.pi) * math.exp(lg)


# alpha = 1 - a1 spans the shapes the outage series actually visits
# (m*N + p/2 for the bundled element counts), z up to the deep high-power end
G_CASES = [
    (1.0 - 10.0, 0.1), (1.0 - 12.5, 0.5), (1.0 - 75.0, 8.8),
    (1.0 - 20.0, 0.1), (1.0 - 3.5, 2.0), (1.0 - 75.5, 28.0),
    (0.5 - 1e-3, 1e-4), (1.0 - 12.0, 3.0), (1.0 - 40.0, 15.0),
]


class TestMeijerG2112:
    def test_z_zero_closed_form(self):
        # only the residue at s = 0 survives: sqrt(pi) Gamma(alpha)
        for a1 in (0.5, -9.0, -39.0):
            alpha = 1.0 - a1
            want = math.sqrt(math.pi) * math.exp(math.lgamma(alpha))
            assert_allclose(meijer_g_2_1_1_2(a1, 0.0), want, rtol=1e-13)
            assert_allclose(meijer_g_2_1_1_2_contour(a1, 0.0), want, rtol=1e-13)

    @pytest.mark.parametrize("a1,z", G_CASES)
    def test_dual_route_agreement(self, a1, z):
        slater = meijer_g_2_1_1_2(a1, z)
        contour = meijer_g_2_1_1_2_contour(a1, z)
        assert_allclose(slater, contour, rtol=1e-9)

    @pytest.mark.parametrize("a1,z", [(1.0 - 10.0, 0.1), (1.0 - 12.5, 0.5),
                                      (1.0 - 3.5, 2.0), (1.0 - 12.0, 3.0)])
    def test_against_mpmath_library(self, a1, z):
        with mp.workdps(40):
            want = float(mp.meijerg([[a1], []], [[0, mp.mpf(1) / 2], []], z))
        assert_allclose(meijer_g_2_1_1_2(a1, z), want, rtol=1e-11)

    @pytest.mark.parametrize("a1,z", [(-19.0, 250.5), (-37.0, 400.0)])
    def test_large_argument_against_mpmath_library(self, a1, z):
        # z large next to the shape: the Slater subtraction cancels 170 and
        # 287 digits, 46 and 71 more than the sqrt(z*alpha) rule budgets;
        # unchecked, the series returned -6.97e6 and 6.65e32
        with mp.workdps(30):
            want = float(mp.meijerg([[a1], []], [[0, mp.mpf(1) / 2], []], z))
        assert_allclose(meijer_g_2_1_1_2(a1, z), want, rtol=1e-9)
        assert_allclose(meijer_g_2_1_1_2_contour(a1, z), want, rtol=1e-9)

    @pytest.mark.parametrize("a1,z", G_CASES)
    def test_against_positive_integrand(self, a1, z):
        assert_allclose(meijer_g_2_1_1_2(a1, z), laplace_reference(a1, z),
                        rtol=1e-9)

    def test_positive_over_domain(self):
        # the restricted G is a Laplace transform of a positive function
        for a1, z in G_CASES:
            assert meijer_g_2_1_1_2(a1, z) > 0.0

    def test_mpf_variant_respects_caller_precision(self):
        a1, z = 1.0 - 40.0, 15.0
        with mp.workdps(120):
            hi = meijer_g_2_1_1_2_mpf(a1, z)
        assert_allclose(meijer_g_2_1_1_2(a1, z), float(hi), rtol=1e-11)

    def test_mpf_variant_refuses_short_precision(self):
        # 150 digits, 170 of them cancelled: a wrong number, not a result
        with mp.workdps(150), pytest.raises(AccuracyError):
            meijer_g_2_1_1_2_mpf(-19.0, 250.5)

    def test_domain(self):
        for fn in (meijer_g_2_1_1_2, meijer_g_2_1_1_2_contour, meijer_g_2_1_1_2_mpf):
            with pytest.raises(UnsupportedShapeError):
                fn(1.0, 0.5)      # alpha = 0
            with pytest.raises(UnsupportedShapeError):
                fn(2.0, 0.5)      # alpha < 0
            with pytest.raises(UnsupportedShapeError):
                fn(-3.0, -0.1)    # negative argument
            with pytest.raises(UnsupportedShapeError, match="a1"):
                fn(math.nan, 0.5)
            with pytest.raises(UnsupportedShapeError, match="nonnegative"):
                fn(-3.0, math.nan)

    def test_contour_z_zero_loads_no_mpmath(self):
        # the oracle shares nothing with the Slater route, its residue at
        # z = 0 included
        code = ("import sys\n"
                "from risnoise.specfun import meijer_g_2_1_1_2_contour\n"
                "print(meijer_g_2_1_1_2_contour(-9.0, 0.0), 'mpmath' in sys.modules)\n")
        env = dict(os.environ)
        src = str(Path(specfun.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        value, loaded = proc.stdout.split()
        assert_allclose(float(value), math.sqrt(math.pi) * math.gamma(10.0), rtol=1e-14)
        assert loaded == "False"


class TestIntegrateSemiInfinite:
    def test_exponential(self):
        got = integrate_semi_infinite(lambda y: math.exp(-y), scale=1.0)
        assert_allclose(got, 1.0, rtol=1e-10)

    def test_gamma_density_normalizes(self):
        shape, rate = 20.0, 8.0

        def pdf(y):
            return math.exp(shape * math.log(rate) - math.lgamma(shape)
                            + (shape - 1.0) * math.log(y) - rate * y) if y > 0 else 0.0

        assert_allclose(integrate_semi_infinite(pdf, scale=shape / rate), 1.0,
                        rtol=1e-10)
        mean = integrate_semi_infinite(lambda y: y * pdf(y), scale=shape / rate)
        assert_allclose(mean, shape / rate, rtol=1e-10)

    def test_scale_invariance_of_result(self):
        for scale in (0.1, 1.0, 25.0):
            got = integrate_semi_infinite(lambda y: math.exp(-0.5 * y), scale=scale)
            assert_allclose(got, 2.0, rtol=1e-9)

    def test_tiny_values_pass_through(self):
        got = integrate_semi_infinite(lambda y: 1e-290 * math.exp(-y), scale=1.0)
        assert_allclose(got, 1e-290, rtol=1e-9)

    def test_accuracy_error_carries_best_estimate(self):
        with pytest.raises(AccuracyError) as exc:
            integrate_semi_infinite(math.sin, scale=1.0)
        assert isinstance(exc.value.best_estimate, float)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            integrate_semi_infinite(math.exp, scale=0.0)
