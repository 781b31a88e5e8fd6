"""Special-function kernels behind the outage expressions.

The closed-form signal-outage factor needs G^{2,1}_{1,2}(z | a1; 0, 1/2), a
Meijer G restricted to second-parameter offsets {0, 1/2}.  Two independent
evaluators are kept side by side on purpose:

  * meijer_g_2_1_1_2      residue (Slater) expansion: two Kummer 1F1 terms.
    The terms grow like exp(z + 2*sqrt(z*alpha)) while the result decays, so
    the difference is formed in mpmath with enough guard digits; the
    cancellation it actually suffered is measured, and the precision is
    raised until 17 correct digits survive it.
  * meijer_g_2_1_1_2_contour   Mellin-Barnes integral on a vertical line
    Re s = sigma0.  Any sigma0 in (-alpha, 0) separates the two pole
    families; the route takes the integrand's saddle point there and sums
    the line by the exponentially convergent trapezoid rule in double
    precision (complex loggamma; at z = 0, math.gamma).  Its dps argument
    is the number of digits requested, capped at the 16 a double resolves.
    It shares nothing with the expansion, mpmath included; it exists to
    cross-check the primary route and must not be removed in favor of it.

Both, and the expansion's mpf twin, raise UnsupportedShapeError outside the
region they were built for (alpha = 1 - a1 > 0, z >= 0; NaN is outside).

at_slater_precision is the one precision loop of the Slater routes, here
and in outage.xi1_closed; both accept a result once SLATER_GOOD_DIGITS
digits survive its cancellation.  kummer_1f1_mpf is mpmath.hyp1f1 behind a
pole check, kept only because perfbench's tracer names it.

The double-precision kummer_1f1 (scipy.special.hyp1f1) and
meijer_g_1_1_1_2 (reg_lower_gamma times Gamma(delta)) are library calls
behind the package's refusals; only checks call them.

The arbitrary-precision kernels (mpmath) and the root finding and
quadrature routes (scipy.optimize, scipy.integrate) serve only checks; each
imports its library on first call, so a sweep never loads them.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np
from scipy import special

if TYPE_CHECKING:
    import mpmath as mp


class UnsupportedShapeError(ValueError):
    """Parameter combination outside the implemented special-function region."""


class AccuracyError(ArithmeticError):
    """Requested tolerance not met; .best_estimate holds the unconverged value."""

    def __init__(self, message: str, best_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate


def reg_lower_gamma(a, x):
    """Regularized lower incomplete gamma P(a, x) (scalar or array)."""
    if type(a) is float and type(x) is float:
        # the same checks and the same ufunc without the array round trip,
        # which costs ten times the call; NaN passes both as it does below
        if a <= 0.0:
            raise UnsupportedShapeError(f"shape parameter must be positive, got {a!r}")
        if x < 0.0:
            raise ValueError(f"argument must be nonnegative, got {x!r}")
        return float(special.gammainc(a, x))
    a_arr = np.asarray(a, dtype=float)
    if np.any(a_arr <= 0.0):
        raise UnsupportedShapeError(f"shape parameter must be positive, got {a!r}")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0):
        raise ValueError(f"argument must be nonnegative, got {x!r}")
    out = special.gammainc(a_arr, x_arr)
    if out.ndim == 0:
        return float(out)
    return out


def kummer_1f1(a: float, b: float, z: float) -> float:
    """Kummer's confluent hypergeometric 1F1(a; b; z) in double precision:
    scipy.special.hyp1f1 behind the pole refusal."""
    if b <= 0.0 and b == math.floor(b):
        raise UnsupportedShapeError(f"1F1 pole: b must not be a nonpositive integer, got {b!r}")
    return float(special.hyp1f1(a, b, z))


def kummer_1f1_mpf(a, b, z) -> mp.mpf:
    """mpmath.hyp1f1 at the caller's precision, behind kummer_1f1's pole
    refusal.  Nothing in the package calls it; perfbench's tracer names it."""
    import mpmath as mp

    b = mp.mpf(b)
    if b <= 0 and b == mp.floor(b):
        raise UnsupportedShapeError(f"1F1 pole: b must not be a nonpositive integer, got {b!r}")
    return mp.hyp1f1(a, b, z)


def meijer_g_1_1_1_2(delta: float, x: float) -> float:
    """G^{1,1}_{1,2}(x | 1; delta, 0) = lower incomplete gamma(delta, x)."""
    # reg_lower_gamma first: its domain check must run before lgamma(delta)
    return reg_lower_gamma(delta, x) * math.exp(math.lgamma(delta))


# correct digits a Slater result must keep after its cancellation
SLATER_GOOD_DIGITS = 17


def _slater_loss_digits(alpha: float, z: float) -> float:
    # both 1F1 terms reach ~exp(z + 2 sqrt(z alpha)) while G ~ exp(z - ...):
    # the subtraction cancels about 4 sqrt(z alpha)/ln10 decimal digits; once
    # z is large next to alpha the real loss grows like z/ln10 and outruns
    # this, and the realized-cancellation check sends the caller round again
    return 1.7372 * math.sqrt(max(z, 0.0) * (alpha + 0.5))


_SLATER_MAX_DPS = 2000


def at_slater_precision(alpha: float, z: float, evaluate):
    """evaluate(good) under the one precision policy of the Slater routes.

    With loss = _slater_loss_digits(alpha, z), start at dps = 16 + loss + 12
    guard digits, raise dps by a quarter (at least 60) after each
    AccuracyError, and pass the error on past _SLATER_MAX_DPS.  good = dps -
    loss is the digits the estimate leaves after the cancellation.
    """
    import mpmath as mp

    loss = _slater_loss_digits(alpha, z)
    dps = 16 + int(loss) + 12
    while True:
        try:
            with mp.workdps(dps):
                return evaluate(dps - loss)
        except AccuracyError:
            if dps > _SLATER_MAX_DPS:
                raise
        dps += max(60, dps // 4)


def _g_domain(a1, z) -> None:
    # the domain of all three G^{2,1}_{1,2} kernels; a NaN fails it
    if not 1 - a1 > 0:
        raise UnsupportedShapeError(f"need 1 - a1 > 0, got a1={a1!r}")
    if not z >= 0:
        raise UnsupportedShapeError(f"argument must be nonnegative, got {z!r}")


def meijer_g_2_1_1_2_mpf(a1, z) -> mp.mpf:
    """Slater expansion of G^{2,1}_{1,2}(z | a1; 0, 1/2) at caller precision.

    sqrt(pi) * [Gamma(al) 1F1(al; 1/2; z) - 2 sqrt(z) Gamma(al + 1/2) 1F1(al + 1/2; 3/2; z)]

    with al = 1 - a1, both 1F1 from mpmath.hyp1f1.  The caller's mp.dps
    must include headroom for the cancellation (about 1.74*sqrt(z*al)
    digits, more once z is large next to al); use meijer_g_2_1_1_2 for a
    self-managing double-precision result.
    The cancellation actually suffered, log10(max term / |G|), is measured:
    AccuracyError (best_estimate = float(G)) when it leaves fewer than
    SLATER_GOOD_DIGITS correct digits at the caller's precision.
    """
    import mpmath as mp

    a1, z = mp.mpf(a1), mp.mpf(z)
    _g_domain(a1, z)
    al = 1 - a1
    half = mp.mpf(1) / 2
    t1 = mp.gamma(al) * mp.hyp1f1(al, half, z)
    t2 = 2 * mp.sqrt(z) * mp.gamma(al + half) * mp.hyp1f1(al + half, 3 * half, z)
    g = mp.sqrt(mp.pi) * (t1 - t2)
    if abs(t1 - t2) * mp.mpf(10) ** (mp.mp.dps - SLATER_GOOD_DIGITS) < max(t1, t2):
        raise AccuracyError(
            f"Slater series for G(z={z}, a1={a1}) keeps fewer than "
            f"{SLATER_GOOD_DIGITS} digits at dps={mp.mp.dps}",
            best_estimate=float(g))
    return g


def meijer_g_2_1_1_2(a1: float, z: float) -> float:
    """G^{2,1}_{1,2}(z | a1; 0, 1/2) as a float: the Slater expansion under
    at_slater_precision, so AccuracyError past _SLATER_MAX_DPS digits."""
    # builtin floats so repr() round-trips through the mpf constructor
    a1, z = float(a1), float(z)
    _g_domain(a1, z)
    return at_slater_precision(
        1.0 - a1, z, lambda _: float(meijer_g_2_1_1_2_mpf(repr(a1), repr(z))))


def _saddle_abscissa(alpha: float, lnz: float) -> float:
    """Real-axis minimum of |Gamma(-s) Gamma(1/2-s) Gamma(alpha+s) z^s| in (-alpha, 0).

    The log-modulus is convex there and runs to +inf at both poles, so its
    derivative has exactly one root.
    """
    from scipy import optimize

    def slope(sig):
        return (special.digamma(alpha + sig) - special.digamma(-sig)
                - special.digamma(0.5 - sig) + lnz)

    edge = 1e-12 * min(alpha, 1.0)
    return optimize.brentq(slope, -alpha + edge, -edge, xtol=1e-9 * alpha)


def _mellin_barnes_log(s, alpha: float, lnz: float):
    return (special.loggamma(-s) + special.loggamma(0.5 - s)
            + special.loggamma(alpha + s) + s * lnz)


_DOUBLE_DIGITS = 16
_LOG_DOUBLE_MAX = math.log(np.finfo(float).max)
_CHUNK = 128   # contour nodes evaluated per vectorized pass


def meijer_g_2_1_1_2_contour(a1: float, z: float, dps: int | None = None) -> float:
    """Independent check route: Mellin-Barnes integral, trapezoid rule on a line.

    G = (1/2 pi i) int Gamma(-s) Gamma(1/2 - s) Gamma(al + s) z^s ds along
    Re s = sigma0, for any sigma0 in (-al, 0): that strip separates the poles
    of Gamma(-s) Gamma(1/2 - s) (s >= 0) from those of Gamma(al + s)
    (s <= -al).  sigma0 is the integrand's real-axis minimum inside the strip,
    a saddle point, so the vertical line is the steepest-descent direction
    and the integrand stays close to a positive bell with no cancellation.

    The integrand is analytic within the distance to the nearest pole of the
    line, so the trapezoid rule converges exponentially in the inverse step
    (Trefethen & Weideman, SIAM Review 56, 2014); the step is set from half
    that distance, and the sum is cut where the integrand has decayed by
    10^-dps of its peak (it falls like exp(-3 pi |t| / 2)).  Everything runs
    in double precision through complex loggamma; nothing is shared with
    the Slater series.

    dps is the number of correct digits requested; it sets the step and the
    truncation length, and is capped at the 16 digits a double resolves
    (the default).  Smaller values shorten the contour for wide scans.
    """
    a1, z = float(a1), float(z)
    _g_domain(a1, z)
    alpha = 1.0 - a1
    if z == 0.0:
        # only the Gamma(al) residue at s = 0 survives
        try:
            return math.sqrt(math.pi) * math.gamma(alpha)
        except OverflowError:
            return math.inf
    digits = _DOUBLE_DIGITS if dps is None else min(max(int(dps), 6), _DOUBLE_DIGITS)
    lnz = math.log(z)
    sigma0 = _saddle_abscissa(alpha, lnz)
    reach = 0.5 * min(sigma0 + alpha, -sigma0)
    # log of how far |integrand| on the strip edge rises above the peak
    peak = _mellin_barnes_log(sigma0, alpha, lnz).real
    growth = max(_mellin_barnes_log(sigma0 + d, alpha, lnz).real
                 for d in (reach, -reach)) - peak
    cut = digits * math.log(10.0) + 3.0
    h = 2.0 * math.pi * reach / (cut + growth)
    # the integrand is conjugate-symmetric in t: sum t > 0 and double it
    tail = 0.0
    k = 1
    while True:
        t = h * np.arange(k, k + _CHUNK)
        w = _mellin_barnes_log(sigma0 + 1j * t, alpha, lnz) - peak
        tail += float(np.exp(w).real.sum())
        if w[-1].real < -cut:
            break
        k += _CHUNK
    log_g = peak + math.log(h * (1.0 + 2.0 * tail) / (2.0 * math.pi))
    return math.exp(log_g) if log_g < _LOG_DOUBLE_MAX else math.inf



def integrate_semi_infinite(f, scale: float = 1.0, rtol: float = 1e-10) -> float:
    """Integrate f over [0, inf) after mapping y = scale * t / (1 - t).

    scale should sit near the integrand's mass (for a Gamma-type weight, its
    mean is a good choice) so the image on [0, 1) is well conditioned.
    Raises AccuracyError carrying .best_estimate when the quadrature error
    estimate does not reach rtol.
    """
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale!r}")
    from scipy import integrate

    def mapped(t):
        w = 1.0 - t
        if w <= 0.0:
            return 0.0
        y = scale * t / w
        return f(y) * scale / (w * w)

    out = integrate.quad(mapped, 0.0, 1.0, epsabs=0.0, epsrel=rtol,
                         limit=200, full_output=1)
    val, err = out[0], out[1]
    if len(out) > 3 or not math.isfinite(val) \
            or err > 10.0 * rtol * max(abs(val), 1e-300):
        if val == 0.0 and err == 0.0:
            return 0.0
        raise AccuracyError(
            f"semi-infinite quadrature stalled (estimate {val!r}, error {err!r})",
            best_estimate=val)
    return val
