"""Outage probability and throughput for the RIS link with surface noise.

The received SINR is psi*X / (lam*Y + 1) with X = D^2 the coherently combined
signal power, Y the RIS-side power sum carrying the surface thermal noise,
and (psi, lam) from the noise budget.  Replacing lam*Y + 1 by max(lam*Y, 1)
bounds the SINR within a factor of two, so the outage composed from

  xi1 = P(psi*X / (lam*Y) < ups)     interference-limited factor
  xi2 = P(psi*X < ups)               noise-limited factor

as 1 - (1 - xi1)(1 - xi2) brackets the true outage when evaluated at ups
(lower bound) and 2*ups (upper bound).

xi1 is the expectation E_Y[P(dint, c*sqrt(Y))] over the exact Gamma law of
Y, with P the regularized lower incomplete gamma at the integer-rounded
cascade shape dint.  The production route xi1 evaluates it in double
precision by an exponentially convergent trapezoid rule; every analytic
output (outage_lb, outage_ub, outage_report, power_for_outage) goes through
it.  Two check-only oracles are kept beside it: xi1_closed, the paper's
closed series (one restricted Meijer-G value per term, summed in mpmath),
and xi1_oracle, an adaptive quadrature of the defining probability.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import mpmath as mp
import numpy as np
from scipy import optimize
from scipy.special import gammainc, gammaincc, logsumexp

from .fading import CascadeApprox, cascade_approx, cdf_X, pdf_Y, y_gamma_params
from .noise import NoiseBudget, SystemParams, build_noise_budget, path_loss
from .specfun import (
    AccuracyError,
    integrate_semi_infinite,
    meijer_g_2_1_1_2_mpf,
    reg_lower_gamma,
    slater_dps,
)

# lam below this floor (but nonzero) marks a regime where the two-factor
# bracket adds nothing over the noise-only result; rows carry it as a flag
LAMBDA_RELIABILITY_FLOOR = 1e-2

# incremented whenever an asymptotic factor had to be clamped into [0, 1]
DIAGNOSTICS = {"asymptotic_clamped": 0}


@dataclass(frozen=True)
class LinkModel:
    """System parameters with every derived quantity the formulas need."""
    params: SystemParams
    budget: NoiseBudget
    omega_bn: float
    omega_nd: float
    approx: CascadeApprox
    y_shape: float   # Gamma shape of Y = sum |g_nd|^2
    y_rate: float    # Gamma rate of Y


def build_link_model(params: SystemParams) -> LinkModel:
    budget = build_noise_budget(params)
    omega_bn = path_loss(params.d_bn, params.tau_bn, params.phi_ref)
    omega_nd = path_loss(params.d_nd, params.tau_nd, params.phi_ref)
    approx = cascade_approx(params.n, params.m_bn, params.m_nd, omega_bn, omega_nd)
    y_shape, y_rate = y_gamma_params(params.n, params.m_nd, omega_nd)
    return LinkModel(params=params, budget=budget, omega_bn=omega_bn,
                     omega_nd=omega_nd, approx=approx,
                     y_shape=y_shape, y_rate=y_rate)


def xi2(link: LinkModel, ups: float | None = None) -> float:
    """Noise-limited outage factor P(psi*X < ups)."""
    if ups is None:
        ups = link.budget.ups_th
    if ups < 0.0:
        raise ValueError(f"threshold must be nonnegative, got {ups!r}")
    if ups == 0.0:
        return 0.0
    arg = math.sqrt(ups / link.budget.psi) / link.approx.zeta
    return reg_lower_gamma(link.approx.delta, arg)


# nodes whose Gamma weight sits this many e-folds below the peak weight
# carry nothing a double can hold next to it
_LOG_TINY = -745.0


def xi1(link: LinkModel, ups: float | None = None) -> float:
    """Interference-limited outage factor P(psi*X/(lam*Y) < ups).

    The production route.  With Y ~ Gamma(a, rate) exact and
    c = sqrt(lam*ups/psi)/zeta,

      xi1 = E_Y[P(dint, c*sqrt(Y))],

    the expectation that the series of xi1_closed sums in closed form.  It
    is evaluated by the trapezoid rule in u = log(rate*Y/a), where the Gamma
    weight is proportional to exp(a*(u - expm1(u))): analytic in a strip
    and double-exponentially decaying on one side, so the rule converges
    exponentially in 1/h (Trefethen & Weideman, SIAM Review 2014).  The
    integrand's width is set by the weight's shape a together with P's
    shape dint (in the tail it behaves like a Gamma(a + dint/2) density),
    hence the step min(1/4, 0.4/sqrt(a + dint/2)).  Dividing by the summed
    weights cancels the Gamma normalisation, and near saturation the
    result is formed as 1 - sum(w*Q) / sum(w) with the upper function Q,
    which keeps the saturated end exact instead of a few ulps off.  Double
    precision throughout, no module state, safe to call from any thread.
    Relative accuracy is about 1e-12 down to values near 1e-300, where the
    products w*P turn subnormal.
    """
    if ups is None:
        ups = link.budget.ups_th
    if ups < 0.0:
        raise ValueError(f"threshold must be nonnegative, got {ups!r}")
    lam, psi = link.budget.lam, link.budget.psi
    if lam == 0.0 or ups == 0.0:
        return 0.0
    a = link.y_shape
    dint = link.approx.delta_int
    h = min(0.25, 0.4 / math.sqrt(a + dint / 2.0))
    # past these ends the log-weight a*(u - expm1(u)) is below _LOG_TINY
    u_lo, u_hi = -1.0 + _LOG_TINY / a, math.log(2.0 - 2.0 * _LOG_TINY / a)
    u = h * np.arange(math.floor(u_lo / h), math.ceil(u_hi / h) + 1)
    log_w = a * (u - np.expm1(u))
    keep = log_w >= _LOG_TINY
    u, w = u[keep], np.exp(log_w[keep])
    c = math.sqrt(lam * ups / psi) / link.approx.zeta
    x = c * math.sqrt(a / link.y_rate) * np.exp(0.5 * u)
    # w*P <= w termwise and both sums add in the same order, so both forms
    # stay in [0, 1]
    total = np.sum(w)
    lower = float(np.sum(w * gammainc(dint, x)) / total)
    if lower <= 0.5:
        return lower
    return float(1.0 - np.sum(w * gammaincc(dint, x)) / total)


_XI1_MAX_DPS = 2000


def xi1_closed(link: LinkModel, ups: float | None = None) -> float:
    """Check route for xi1: the paper's closed series, in mpmath.

    Series over the integer-rounded cascade shape dint:

      xi1 = 1 - sum_{p=0}^{dint-1} (2 sqrt(z))^p / p!
                  * G^{2,1}_{1,2}(z | 1 - y_shape - p/2; 0, 1/2)
                  / (sqrt(pi) Gamma(y_shape))

    with z = lam * ups / (4 * psi * zeta^2 * y_rate).  Each term is a
    positive probability mass, so the sum sits in (0, 1] and the final
    subtraction is the only cancellation; precision is raised adaptively
    until the difference is resolved, returning 0.0 once the true value
    provably sits below the double-precision floor.
    """
    if ups is None:
        ups = link.budget.ups_th
    if ups < 0.0:
        raise ValueError(f"threshold must be nonnegative, got {ups!r}")
    lam, psi = link.budget.lam, link.budget.psi
    if lam == 0.0 or ups == 0.0:
        return 0.0
    dint = link.approx.delta_int
    zeta = link.approx.zeta
    # builtin floats: the mpf constructor below goes through repr()
    z = float(lam * ups / (4.0 * psi * zeta * zeta * link.y_rate))
    mn = float(link.y_shape)
    # Large z (deep low-power regime): each term of the complementary sum is
    # bounded by its Laplace envelope 2*(4z)^(-mn) * Gamma(2*mn + p) / p!
    # (the Gaussian factor in the kernel is at most one), so when that bound
    # sits below resolution the result is exactly 1 in double precision and
    # the series, whose cost grows with z, never needs to run.
    log_terms = [math.log(2.0) - mn * math.log(4.0 * z) - math.lgamma(mn)
                 + math.lgamma(2.0 * mn + p) - math.lgamma(p + 1.0)
                 for p in range(dint)]
    if logsumexp(log_terms) < math.log(1e-18):
        return 1.0
    alpha_max = mn + (dint - 1) / 2.0 + 0.5
    loss = 1.7372 * math.sqrt(z * (alpha_max + 0.5))
    dps = slater_dps(alpha_max, z, guard=12)
    best = math.nan
    while True:
        with mp.workdps(dps):
            zz = mp.mpf(repr(z))
            c = 2 * mp.sqrt(zz)
            norm = mp.sqrt(mp.pi) * mp.gamma(mp.mpf(repr(mn)))
            total = mp.mpf(0)
            coeff = mp.mpf(1)  # c^p / p!
            try:
                for p in range(dint):
                    if p > 0:
                        coeff *= c / p
                    a1 = 1 - mp.mpf(repr(mn)) - mp.mpf(p) / 2
                    total += coeff * meijer_g_2_1_1_2_mpf(a1, zz) / norm
            except AccuracyError:
                # the realized Slater cancellation outran the start (z large
                # next to the shape, where xi is close to 1): same series at
                # more digits
                pass
            else:
                xi = 1 - total
                # every G carries dps - loss good digits; the dint-term sum
                # of sub-unit positives keeps that, so xi is resolved iff it
                # clears the accumulated roundoff floor.  Where xi is small
                # enough for the floor to matter (z below ~20) the estimate
                # matches the realized cancellation to 0.2 digits.
                floor = mp.mpf(10) ** (-(dps - loss - 6)) * dint
                if xi > floor:
                    return min(max(float(xi), 0.0), 1.0)
                if dps - loss > 360:
                    # resolved to be below the double-precision range
                    return 0.0
                best = float(xi)
        if dps >= _XI1_MAX_DPS:
            raise AccuracyError(
                f"series for xi1 not resolved at dps={dps}", best_estimate=best)
        dps = int(dps + max(60, loss * 0.25))


def xi1_oracle(link: LinkModel, ups: float | None = None, *,
               integer_shape: bool = False, rtol: float = 1e-10) -> float:
    """Check route for xi1: direct quadrature of the defining probability.

    Integrates pdf_Y(y) * P(D < sqrt(lam*ups*y/psi)) over y with the cascade
    CDF at the real-valued shape; integer_shape=True rounds the shape the
    same way the series does, which makes the two routes agree to quadrature
    tolerance.  Kept independent of the series on purpose.
    """
    if ups is None:
        ups = link.budget.ups_th
    if ups < 0.0:
        raise ValueError(f"threshold must be nonnegative, got {ups!r}")
    lam, psi = link.budget.lam, link.budget.psi
    if lam == 0.0 or ups == 0.0:
        return 0.0
    ap = link.approx
    if integer_shape:
        ap = replace(ap, delta=float(ap.delta_int))
    n, m_nd, om_nd = link.params.n, link.params.m_nd, link.omega_nd
    k = lam * ups / psi

    def integrand(y):
        return pdf_Y(y, n, m_nd, om_nd) * cdf_X(k * y, ap)

    scale = (link.y_shape + ap.delta / 2.0) / link.y_rate
    return integrate_semi_infinite(integrand, scale=scale, rtol=rtol)


def compose_outage(xi1: float, xi2: float) -> float:
    """1 - (1 - xi1)(1 - xi2), kept exact for factors of any size.

    Evaluated as xi1 + xi2*(1 - xi1): the factored form rounds (1 - x) to 1
    for x below machine epsilon and silently returns 0, and xi1 + xi2 -
    xi1*xi2 can land one ulp below 1 when a factor is exactly 1, which makes
    a saturated outage curve rise with power.  This form keeps an exact zero
    factor bit-neutral, so the noiseless configuration equals the plain
    noise-limited result, not just approximates it; it returns exactly 1
    when either factor is 1 and, by monotone rounding, never exceeds 1.
    """
    for name, v in (("xi1", xi1), ("xi2", xi2)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {v!r}")
    return xi1 + xi2 * (1.0 - xi1)


def outage_lb(link: LinkModel) -> float:
    """Lower bound on outage: the two-factor form at the plain threshold."""
    ups = link.budget.ups_th
    return compose_outage(xi1(link, ups), xi2(link, ups))


def outage_ub(link: LinkModel) -> float:
    """Upper bound on outage: same form at twice the threshold."""
    ups = 2.0 * link.budget.ups_th
    return compose_outage(xi1(link, ups), xi2(link, ups))


def _clamp_unit(x: float) -> float:
    if x > 1.0:
        DIAGNOSTICS["asymptotic_clamped"] += 1
        return 1.0
    return max(x, 0.0)


def xi1_asymptotic(link: LinkModel, ups: float | None = None) -> float:
    """High-power limit of xi1 (real shape), evaluated in log space."""
    if ups is None:
        ups = link.budget.ups_th
    lam, psi = link.budget.lam, link.budget.psi
    if lam == 0.0 or ups == 0.0:
        return 0.0
    d = link.approx.delta
    b = math.sqrt(lam * ups / psi) / link.approx.zeta
    log_val = (-(d / 2.0) * math.log(link.y_rate)
               + math.lgamma(link.y_shape + d / 2.0)
               - math.log(d) - math.lgamma(d) - math.lgamma(link.y_shape)
               + d * math.log(b))
    return _clamp_unit(math.exp(min(log_val, 1.0)))


def xi2_asymptotic(link: LinkModel, ups: float | None = None) -> float:
    """High-power limit of xi2 (real shape), evaluated in log space."""
    if ups is None:
        ups = link.budget.ups_th
    if ups == 0.0:
        return 0.0
    d = link.approx.delta
    b = math.sqrt(ups / link.budget.psi) / link.approx.zeta
    log_val = -math.log(d) - math.lgamma(d) + d * math.log(b)
    return _clamp_unit(math.exp(min(log_val, 1.0)))


def outage_asymptotic(link: LinkModel) -> float:
    """High-power outage slope line: composition of the asymptotic factors."""
    ups = link.budget.ups_th
    return compose_outage(xi1_asymptotic(link, ups), xi2_asymptotic(link, ups))


def diversity_order(approx: CascadeApprox) -> float:
    """Slope of outage versus power on the log-log axis: half the shape."""
    return approx.delta / 2.0


def throughput(outage: float, rate: float) -> float:
    """Effective rate (1 - outage) * rate in bit/s."""
    if not 0.0 <= outage <= 1.0:
        raise ValueError(f"outage must lie in [0, 1], got {outage!r}")
    if rate < 0.0:
        raise ValueError(f"rate must be nonnegative, got {rate!r}")
    return (1.0 - outage) * rate


@dataclass(frozen=True)
class OutageReport:
    """Every analytic output for one operating point.

    xi1 and xi2 are the factors at the plain threshold (the lower-bound
    composition); throughput pairs with outage_lb.  lam, delta, zeta and the
    reliability flag ride along for result tables.
    """
    xi1: float
    xi2: float
    outage_lb: float
    outage_ub: float
    outage_asym: float
    throughput: float
    diversity_order: float
    lam: float
    delta: float
    zeta: float
    reliability_flag: int


def reliability_flag(lam: float) -> int:
    """1 where the surface noise is on but too weak for the bracket to matter."""
    return int(0.0 < lam < LAMBDA_RELIABILITY_FLOOR)


def outage_report(link: LinkModel) -> OutageReport:
    ups = link.budget.ups_th
    x1, x2 = xi1(link, ups), xi2(link, ups)
    po_lb = compose_outage(x1, x2)
    lam = link.budget.lam
    return OutageReport(
        xi1=x1, xi2=x2, outage_lb=po_lb, outage_ub=outage_ub(link),
        outage_asym=outage_asymptotic(link),
        throughput=throughput(po_lb, link.params.rate),
        diversity_order=diversity_order(link.approx),
        lam=lam, delta=link.approx.delta, zeta=link.approx.zeta,
        reliability_flag=reliability_flag(lam))


ANALYTIC_MODES = ("analytic_lb", "analytic_ub", "asymptotic")

_MODE_EVAL = {"analytic_lb": outage_lb, "analytic_ub": outage_ub,
              "asymptotic": outage_asymptotic}


def evaluate_mode(link: LinkModel, mode: str) -> float:
    """Outage for one analytic mode name (sweep plumbing)."""
    try:
        fn = _MODE_EVAL[mode]
    except KeyError:
        raise ValueError(f"unknown analytic mode {mode!r}") from None
    return fn(link)


def power_for_outage(params: SystemParams, target: float,
                     bracket_dbw: tuple[float, float] = (-110.0, -20.0),
                     mode: str = "analytic_lb") -> float:
    """Transmit power (dBW) at which the outage curve crosses target."""
    if not 0.0 < target < 1.0:
        raise ValueError(f"target outage must lie in (0, 1), got {target!r}")

    def gap(p_dbw: float) -> float:
        link = build_link_model(replace(params, pb=10.0 ** (p_dbw / 10.0)))
        po = evaluate_mode(link, mode)
        if po <= 0.0:
            return -600.0 - math.log10(target)
        return math.log10(po) - math.log10(target)

    lo, hi = bracket_dbw
    return optimize.brentq(gap, lo, hi, xtol=1e-6)
