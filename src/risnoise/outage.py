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
output (outage_lb, outage_ub, outage_reports, power_for_outage) goes
through its kernel.  Its nodes stop 60 e-folds below the peak weight on the
left, where the integrand falls with the weight, and 745 on the right,
where it need not; the left nodes dropped move no result by more than the
rounding of the shorter sum (under 1e-15 relative).  A point that needs
more than 2**21 nodes (n past about 6e10) is refused, naming n and m_nd.
Two check-only oracles are kept beside it: xi1_closed, the paper's closed
series (one restricted Meijer-G value per term, summed in mpmath under
specfun.at_slater_precision), and xi1_oracle, an adaptive quadrature of the
defining probability.  xi1_closed imports mpmath, xi1_oracle
scipy.integrate (through integrate_semi_infinite) and power_for_outage
scipy.optimize, each on first call, so evaluating a bound loads none of
them.

A link comes from build_link_models (build_link_model is its one-item
case), which takes each link's noise budget from noise.build_noise_budget,
reads the rest of a built SystemParams through the unchecked formula
bodies of noise and fading, and derives once what the params of a pb-free
group share.  The values checked after that are the derived ones: the
cascade moments (gamma_approx), each pass's xi1 and xi2 factors, in one
test, and the outages a sweep writes, in one test per point.

A sweep makes one analytic pass: outage_reports takes its links and the
modes of ANALYTIC_MODES it selects, and forms only the pairs they need,
(link, ups) for analytic_lb and (link, 2*ups) for analytic_ub.  The xi1
node set depends on a link only through the key (y_shape, delta_int),
which every point of a power, distance or reflection-factor axis shares,
so the pairs with one key share one node set and one gammainc call; xi2 is
one array call over all pairs.  outage_lb, outage_ub, outage_asymptotic,
evaluate_mode and outage_report are one-link calls of it, and xi1 and xi2
the one-pair cases of its factor kernels, so every analytic outage is
composed in one place.
"""
from __future__ import annotations

import marshal
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammainc, gammaincc, logsumexp

from . import specfun
from .fading import (CascadeApprox, _cascade_moments, _y_gamma_params, cdf_X,
                     gamma_approx, pdf_Y)
from .noise import (NoiseBudget, SystemParams, build_noise_budget, check,
                    hop_powers, watts_from_db)
from .specfun import (
    SLATER_GOOD_DIGITS,
    AccuracyError,
    at_slater_precision,
    integrate_semi_infinite,
    meijer_g_2_1_1_2_mpf,
)

# lam below this floor (but nonzero) marks a regime where the two-factor
# bracket adds nothing over the noise-only result; rows carry it as a flag
LAMBDA_RELIABILITY_FLOOR = 1e-2

# perfbench/tracer.py wraps the lower incomplete gamma under this module's
# name; xi2 calls specfun's own (see _xi2_values), so its spans read 0
reg_lower_gamma = specfun.reg_lower_gamma


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


def build_link_models(params_seq) -> list[LinkModel]:
    """The LinkModel of each SystemParams, in order: the one route to a link.

    Each link takes its noise budget from noise.build_noise_budget.  Params
    that differ in pb alone, field by field and bit by bit, share one
    derivation of the hop powers, the cascade match and the Y law.  Bitwise,
    so that params in one group agree in every bit of every other field
    whatever the shared values read (sigma_r2 = -0.0 compares equal to 0.0
    but forms a group of its own).  Every params raises what it would raise
    alone, in the same order, so the first that cannot be built names its
    refusal.
    """
    # per pb-free key: the hop powers, the cascade match and the Y law
    shared = {}
    links = []
    for params in params_seq:
        if not isinstance(params, SystemParams):
            raise ValueError(f"params: SystemParams required, got a "
                             f"{type(params).__name__}")
        budget = build_noise_budget(params)
        fields = vars(params).copy()
        del fields["pb"]
        # marshal writes a float's 8 bytes, and ints, bools and None by type
        key = marshal.dumps(tuple(fields.values()))
        if key not in shared:
            omega_bn, omega_nd = hop_powers(params)
            mu, sigma2 = _cascade_moments(params.n, params.m_bn, params.m_nd,
                                          omega_bn, omega_nd)
            try:
                approx = gamma_approx(mu, sigma2)
            except ValueError as exc:
                # gamma_approx names its own arguments; name the fields that
                # set them: small mean hop powers underflow the mean or the
                # shape (and with huge shapes the variance), n and the shapes
                # overflow the shape
                if mu * mu == 0.0:
                    names = "d_bn, d_nd, tau_bn, tau_nd, phi_ref"
                elif sigma2 == 0.0:
                    names = "m_bn, m_nd, d_bn, d_nd, tau_bn, tau_nd, phi_ref"
                else:
                    names = "n, m_bn, m_nd"
                raise ValueError(f"{names}: the cascade moments are refused: "
                                 f"{exc}") from None
            shared[key] = (omega_bn, omega_nd, approx,
                           *_y_gamma_params(params.n, params.m_nd, omega_nd))
        omega_bn, omega_nd, approx, y_shape, y_rate = shared[key]
        links.append(LinkModel(
            params=params, budget=budget, omega_bn=omega_bn, omega_nd=omega_nd,
            approx=approx, y_shape=y_shape, y_rate=y_rate))
    return links


def build_link_model(params: SystemParams) -> LinkModel:
    """The LinkModel of one SystemParams: build_link_models on it alone."""
    return build_link_models([params])[0]


def _threshold(link: LinkModel, ups: float | None) -> float:
    """The SINR threshold: the link's own (derived from a checked rate and
    bandwidth) unless one is given, which is checked."""
    if ups is None:
        return link.budget.ups_th
    check(ups=ups)
    return ups


def _xi1_arg(link: LinkModel, ups: float) -> float:
    """The scale c = sqrt(lam*ups/psi)/zeta of xi1 = E_Y[P(dint, c*sqrt(Y))]."""
    return math.sqrt(link.budget.lam * ups / link.budget.psi) / link.approx.zeta


def _xi2_arg(link: LinkModel, ups: float) -> float:
    """The argument x of xi2 = P(delta, x) at a threshold ups >= 0."""
    return math.sqrt(ups / link.budget.psi) / link.approx.zeta


def xi2(link: LinkModel, ups: float | None = None) -> float:
    """Noise-limited outage factor P(psi*X < ups)."""
    return _xi2_values([(link, _threshold(link, ups))])[0]


def _xi2_values(pairs: list[tuple[LinkModel, float]]) -> list[float]:
    """xi2 = P(delta, x) at each (link, threshold) pair, thresholds already
    checked, in one array call; a threshold of 0 gives P(delta, 0) = 0.

    It calls specfun.reg_lower_gamma, not this module's global: the
    benchmark tracer patches that global, and a call from outside an
    outage_report span would count its time twice.
    """
    return specfun.reg_lower_gamma(
        np.array([link.approx.delta for link, _ in pairs]),
        np.array([_xi2_arg(link, ups) for link, ups in pairs])).tolist()


# nodes whose Gamma weight sits this many e-folds below the peak weight
# carry nothing a double can hold next to it
_LOG_TINY = -745.0
# left of the peak P only falls, so a node this far below the peak weight
# adds at most e^-60 of the peak node's own term (see xi1)
_LOG_TINY_LEFT = -60.0
# xi1's node count grows like sqrt(n*m_nd + dint/2): 8.2e3 at n = 1e6 and
# 8.2e5 at n = 1e10 with the default shapes, 8.2e9 (over 60 GB) at 1e18.
# Each node costs about 64 bytes across xi1's arrays, so this cap (n up to
# about 6e10 at the default shapes) holds a call near 130 MB.
_XI1_MAX_NODES = 2 ** 21


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

    The node set is cut on each side of the peak u = 0 by its own rule.
    Left of it (u < 0) nodes whose log-weight is below _LOG_TINY_LEFT
    (-60) are dropped: there c*sqrt(Y) rises with u, so P does too, and
    each dropped w*P is at most e^-60 times the w*P of the u = 0 node,
    which is in the sum; on the complement route each dropped w*Q is at
    most e^-60 times the summed weights, an absolute error far below the
    ulp of a result above 0.5.  Right of it the cut stays at _LOG_TINY
    (-745), where the weight itself leaves the double range: there P grows
    like Y^(dint/2), so a node's share of the sum is not bounded by its
    weight alone, and a relative cut on w would not be safe.
    """
    return _xi1_values([(link, _threshold(link, ups))])[0]


def _xi1_nodes(a: float, dint: int) -> tuple[np.ndarray, np.ndarray]:
    """exp(u/2) and the weights w at xi1's trapezoid nodes u for the Y
    shape a and the cascade shape dint; refuses a node count past the cap."""
    h = min(0.25, 0.4 / math.sqrt(a + dint / 2.0))
    # past these ends the log-weight a*(u - expm1(u)) is below its cut
    u_lo = -1.0 + _LOG_TINY_LEFT / a
    u_hi = math.log(2.0 - 2.0 * _LOG_TINY / a)
    # (u_hi - u_lo)/h nodes, counted before they are allocated
    if u_hi - u_lo >= _XI1_MAX_NODES * h:
        raise ValueError(
            f"n, m_nd: xi1 needs over {_XI1_MAX_NODES} trapezoid nodes at the "
            f"Y shape n*m_nd = {a:.6g} and cascade shape {dint:.6g}")
    u = h * np.arange(math.floor(u_lo / h), math.ceil(u_hi / h) + 1)
    log_w = a * (u - np.expm1(u))
    keep = log_w >= np.where(u < 0.0, _LOG_TINY_LEFT, _LOG_TINY)
    return np.exp(0.5 * u[keep]), np.exp(log_w[keep])


def _xi1_values(pairs: list[tuple[LinkModel, float]]) -> list[float]:
    """xi1 at each (link, threshold) pair, thresholds already checked.

    The pairs with one node-set key (y_shape, delta_int) share one node set
    and one gammainc call, and at most one gammaincc call over the rows past
    0.5; each row sums in the same order as a call on its pair alone.  Node
    counts are checked before any pair is evaluated, and no array holds
    more than _XI1_MAX_NODES values.
    """
    out = [0.0] * len(pairs)
    groups: dict[tuple[float, int], list[int]] = {}
    for i, (link, ups) in enumerate(pairs):
        if link.budget.lam != 0.0 and ups != 0.0:
            groups.setdefault((link.y_shape, link.approx.delta_int), []).append(i)
    nodes = {key: _xi1_nodes(*key) for key in groups}
    for (a, dint), rows in groups.items():
        half_u, w = nodes[a, dint]
        total = np.sum(w)
        step = max(1, _XI1_MAX_NODES // w.size)
        for first in range(0, len(rows), step):
            chunk = rows[first:first + step]
            # c*sqrt(Y) at the nodes
            scale = np.array([_xi1_arg(link, ups) * math.sqrt(a / link.y_rate)
                              for link, ups in (pairs[i] for i in chunk)])
            x = scale[:, None] * half_u
            # w*P <= w termwise and both sums add in the same order, so both
            # forms stay in [0, 1]
            value = np.sum(w * gammainc(dint, x), axis=1) / total
            high = ~(value <= 0.5)
            if high.any():
                value[high] = 1.0 - np.sum(w * gammaincc(dint, x[high]), axis=1) / total
            for i, v in zip(chunk, value.tolist()):
                out[i] = v
    return out


def xi1_closed(link: LinkModel, ups: float | None = None) -> float:
    """Check route for xi1: the paper's closed series, in mpmath.

    Series over the integer-rounded cascade shape dint:

      xi1 = 1 - sum_{p=0}^{dint-1} (2 sqrt(z))^p / p!
                  * G^{2,1}_{1,2}(z | 1 - y_shape - p/2; 0, 1/2)
                  / (sqrt(pi) Gamma(y_shape))

    with z = lam * ups / (4 * psi * zeta^2 * y_rate).  Each term is a
    positive probability mass, so the sum sits in (0, 1] and the final
    subtraction is the only cancellation; specfun.at_slater_precision
    raises the precision until the difference is resolved, and 0.0 is
    returned once the true value provably sits below the double-precision
    floor.
    """
    import mpmath as mp

    ups = _threshold(link, ups)
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

    def series(good: float) -> float:
        zz = mp.mpf(repr(z))
        c = 2 * mp.sqrt(zz)
        shape = mp.mpf(repr(mn))
        norm = mp.sqrt(mp.pi) * mp.gamma(shape)
        total = mp.mpf(0)
        coeff = mp.mpf(1)  # c^p / p!
        for p in range(dint):
            total += coeff * meijer_g_2_1_1_2_mpf(1 - shape - mp.mpf(p) / 2, zz) / norm
            coeff *= c / (p + 1)
        xi = 1 - total
        # every G carries `good` digits, so the dint-term sum of sub-unit
        # positives is off by at most dint * 10**-good; xi keeps
        # SLATER_GOOD_DIGITS once it clears that floor by as many digits,
        # the rule meijer_g_2_1_1_2_mpf applies to each G
        if xi > dint * mp.mpf(10) ** (SLATER_GOOD_DIGITS - good):
            return min(max(float(xi), 0.0), 1.0)
        if good > 360:
            # resolved to be below the double-precision range
            return 0.0
        raise AccuracyError(f"series for xi1 not resolved at dps={mp.mp.dps}",
                            best_estimate=float(xi))

    return at_slater_precision(mn + (dint - 1) / 2.0 + 0.5, z, series)


def xi1_oracle(link: LinkModel, ups: float | None = None, *,
               integer_shape: bool = False, rtol: float = 1e-10) -> float:
    """Check route for xi1: direct quadrature of the defining probability.

    Integrates pdf_Y(y) * P(D < sqrt(lam*ups*y/psi)) over y with the cascade
    CDF at the real-valued shape; integer_shape=True rounds the shape the
    same way the series does, which makes the two routes agree to quadrature
    tolerance.  Kept independent of the series on purpose.
    """
    ups = _threshold(link, ups)
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
    check(xi1=xi1, xi2=xi2)
    return _compose(xi1, xi2)


def _compose(xi1: float, xi2: float) -> float:
    return xi1 + xi2 * (1.0 - xi1)


def _check_probabilities(names: tuple[str, ...], rows) -> None:
    """Refuse a NaN or a value outside [0, 1] among rows of probabilities
    named by names, in one pass over them all; the first bad row is refused
    as check(**dict(zip(names, row))) refuses it."""
    # NaN fails both comparisons
    if not all(0.0 <= v <= 1.0 for row in rows for v in row):
        for row in rows:
            check(**dict(zip(names, row)))


def outage_lb(link: LinkModel) -> float:
    """Lower bound on outage: the two-factor form at the plain threshold."""
    return evaluate_mode(link, "analytic_lb")


def _doubled_threshold(link: LinkModel) -> float:
    """Twice the link's threshold, where the upper bound is evaluated."""
    ups = 2.0 * link.budget.ups_th
    if ups == math.inf:
        # twice the threshold 2^(rate/bw) - 1 overflows from rate/bw = 1023 on
        raise ValueError(f"rate: rate/bw must be below 1023 for the upper bound, "
                         f"got rate={link.params.rate!r} over bw={link.params.bw!r}")
    return ups


def outage_ub(link: LinkModel) -> float:
    """Upper bound on outage: same form at twice the threshold."""
    return evaluate_mode(link, "analytic_ub")


def xi1_asymptotic(link: LinkModel, ups: float | None = None) -> float:
    """High-power limit of xi1 (real shape), evaluated in log space."""
    ups = _threshold(link, ups)
    d = link.approx.delta
    b = _xi1_arg(link, ups)
    if b == 0.0:
        # lam or ups is 0, or b underflows: b^d is 0
        return 0.0
    log_val = (-(d / 2.0) * math.log(link.y_rate)
               + math.lgamma(link.y_shape + d / 2.0)
               - math.log(d) - math.lgamma(d) - math.lgamma(link.y_shape)
               + d * math.log(b))
    return math.exp(min(log_val, 0.0))


def xi2_asymptotic(link: LinkModel, ups: float | None = None) -> float:
    """High-power limit of xi2 (real shape), evaluated in log space."""
    ups = _threshold(link, ups)
    d = link.approx.delta
    b = _xi2_arg(link, ups)
    if b == 0.0:
        return 0.0
    log_val = -math.log(d) - math.lgamma(d) + d * math.log(b)
    return math.exp(min(log_val, 0.0))


def outage_asymptotic(link: LinkModel) -> float:
    """High-power outage slope line, the composition of the asymptotic
    factors: outage_reports on the link alone."""
    return evaluate_mode(link, "asymptotic")


def diversity_order(approx: CascadeApprox) -> float:
    """Slope of outage versus power on the log-log axis: half the shape."""
    return approx.delta / 2.0


def throughput(outage: float, rate: float) -> float:
    """Effective rate (1 - outage) * rate in bit/s."""
    check(outage=outage, rate=rate)
    return _throughput(outage, rate)


def _throughput(outage: float, rate: float) -> float:
    return (1.0 - outage) * rate


@dataclass(frozen=True)
class OutageReport:
    """Every analytic output for one operating point.

    xi1 and xi2 are the factors at the plain threshold (the lower-bound
    composition); throughput pairs with outage_lb.  The reliability flag
    rides along with every mode; the link's own quantities (lam, delta,
    zeta) stay on the link.  A mode not asked for leaves its fields None.
    """
    xi1: float | None
    xi2: float | None
    outage_lb: float | None
    outage_ub: float | None
    outage_asym: float | None
    throughput: float | None
    reliability_flag: int


# each analytic mode and the OutageReport field that carries it
ANALYTIC_MODES = {"analytic_lb": "outage_lb", "analytic_ub": "outage_ub",
                  "asymptotic": "outage_asym"}


def reliability_flag(lam: float) -> int:
    """1 where the surface noise is on but too weak for the bracket to matter."""
    return int(0.0 < lam < LAMBDA_RELIABILITY_FLOOR)


def outage_reports(links, modes=tuple(ANALYTIC_MODES)) -> list[OutageReport]:
    """The OutageReport of each link for the analytic modes given, from one
    pass (see the module docstring): analytic_lb evaluates the pairs
    (link, ups), analytic_ub the pairs (link, 2*ups), asymptotic none.  A
    link whose doubled threshold is past the double range refuses an
    analytic_ub call before anything is evaluated."""
    if isinstance(modes, str):
        raise ValueError(f"modes: a tuple of mode names required, got the string "
                         f"{modes!r}; write ({modes!r},)")
    unknown = [m for m in modes if m not in ANALYTIC_MODES]
    if unknown:
        raise ValueError(f"unknown analytic mode {unknown[0]!r}")
    links = list(links)
    for link in links:
        if not isinstance(link, LinkModel):
            raise ValueError(f"links: LinkModel required, got a {type(link).__name__}; "
                             "build_link_model(params) builds the link")
    lb, ub, asym = (mode in modes for mode in ANALYTIC_MODES)
    pairs = [(link, link.budget.ups_th) for link in links if lb] \
        + [(link, _doubled_threshold(link)) for link in links if ub]
    factors = iter(zip(_xi1_values(pairs), _xi2_values(pairs)))
    # (xi1, xi2) of each link at ups, at 2*ups and at the asymptote; None
    # where its mode is not selected
    at_ups = [next(factors) if lb else None for _ in links]
    at_twice = [next(factors) if ub else None for _ in links]
    asymptotic = [(xi1_asymptotic(link), xi2_asymptotic(link)) if asym else None
                  for link in links]
    # every factor of the pass in one test; a bad pair is named in the order
    # the compositions checked them one by one: the upper bounds, then each
    # link's lower bound and asymptote
    in_order = at_twice + [f for per_link in zip(at_ups, asymptotic) for f in per_link]
    _check_probabilities(("xi1", "xi2"), [f for f in in_order if f is not None])
    reports = []
    for link, f_lb, f_ub, f_asym in zip(links, at_ups, at_twice, asymptotic):
        x1, x2 = f_lb or (None, None)
        po_lb = None if f_lb is None else _compose(x1, x2)
        reports.append(OutageReport(
            xi1=x1, xi2=x2, outage_lb=po_lb,
            outage_ub=None if f_ub is None else _compose(*f_ub),
            outage_asym=None if f_asym is None else _compose(*f_asym),
            throughput=None if po_lb is None else _throughput(po_lb, link.params.rate),
            reliability_flag=reliability_flag(link.budget.lam)))
    return reports


def outage_report(link: LinkModel) -> OutageReport:
    """Every analytic output for one link: outage_reports on it alone."""
    return outage_reports([link])[0]


def evaluate_mode(link: LinkModel, mode: str) -> float:
    """One link's outage in one analytic mode: outage_reports on it alone."""
    return getattr(outage_reports([link], (mode,))[0], ANALYTIC_MODES[mode])


def power_for_outage(params: SystemParams, target: float,
                     bracket_dbw: tuple[float, float] = (-110.0, -20.0),
                     mode: str = "analytic_lb") -> float:
    """Transmit power (dBW) at which the outage curve crosses target."""
    check(target=target)
    from scipy import optimize

    def gap(p_dbw: float) -> float:
        link = build_link_model(replace(params, pb=watts_from_db(p_dbw)))
        po = evaluate_mode(link, mode)
        if po <= 0.0:
            return -600.0 - math.log10(target)
        return math.log10(po) - math.log10(target)

    lo, hi = bracket_dbw
    return optimize.brentq(gap, lo, hi, xtol=1e-6)
