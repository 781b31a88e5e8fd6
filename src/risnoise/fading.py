"""Cascaded Nakagami-m fading statistics for the RIS link.

The coherently combined signal amplitude is D = sum_n |g_bn| |g_nd| over the
N elements; the RIS noise reaches the receiver through Y = sum_n |g_nd|^2.
D has no closed-form density, so the package uses the standard first/second
moment match of D onto a Gamma(delta, zeta) shape/scale pair.  Y is exactly
Gamma(N*m_nd, omega_nd/m_nd) since each |g_nd|^2 is Gamma(m_nd, omega_nd/m_nd).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .noise import check


def amplitude_mean_factor(m: float) -> float:
    """E|g| / sqrt(omega/m) = Gamma(m + 1/2) / Gamma(m) for Nakagami-m."""
    try:
        return math.exp(math.lgamma(m + 0.5) - math.lgamma(m))
    except OverflowError:
        # lgamma passes the double range above m = 2.5e305
        raise ValueError(f"m: lgamma(m) is past the double range, got {m!r}") from None


# from this shape on, the lgamma difference in amplitude_mean_factor and
# the 1 - g^2/(m_bn*m_nd) it feeds cancel (4e-12 relative at 64, 1e-6 at
# 1e4); the asymptotic series of _log_mean_factor is exact to rounding there
_LARGE_SHAPE = 64.0


def _log_mean_factor(m: float) -> float:
    """l(m) = log(Gamma(m + 1/2) / Gamma(m)) - log(m)/2.

    From _LARGE_SHAPE on, the asymptotic series -1/(8m) + 1/(192m^3)
    - 1/(640m^5) + 17/(14336m^7), whose next term is below 1e-16 relative.
    """
    if m < _LARGE_SHAPE:
        return math.lgamma(m + 0.5) - math.lgamma(m) - 0.5 * math.log(m)
    r = 1.0 / (m * m)
    return (-1.0 / 8.0 + r * (1.0 / 192.0 + r * (-1.0 / 640.0 + r * 17.0 / 14336.0))) / m


def cascade_moments(n: int, m_bn: float, m_nd: float,
                    omega_bn: float, omega_nd: float) -> tuple[float, float]:
    """Mean and variance of the cascade sum D = sum_n |g_bn| |g_nd|.

    Element products are i.i.d., so the mean and variance are N times the
    per-element values:
      E[|g_bn||g_nd|]   = g * sqrt(omega_bn*omega_nd/(m_bn*m_nd)),
      Var[|g_bn||g_nd|] = omega_bn*omega_nd * (1 - g^2/(m_bn*m_nd)),
    with g = Gamma(m_bn+1/2)Gamma(m_nd+1/2)/(Gamma(m_bn)Gamma(m_nd)).
    Once a shape reaches _LARGE_SHAPE both are formed from
    L = log(g/sqrt(m_bn*m_nd)) as n*sqrt(omega_bn*omega_nd)*exp(L) and
    n*omega_bn*omega_nd*(-expm1(2L)), with no cancellation and no sqrt(m).
    """
    check(n=n, m_bn=m_bn, m_nd=m_nd, omega_bn=omega_bn, omega_nd=omega_nd)
    if max(m_bn, m_nd) < _LARGE_SHAPE:
        g = amplitude_mean_factor(m_bn) * amplitude_mean_factor(m_nd)
        mu = g * math.sqrt(omega_bn * omega_nd / (m_bn * m_nd)) * n
        sigma2 = n * omega_bn * omega_nd * (1.0 - g * g / (m_bn * m_nd))
        return mu, sigma2
    log_g = _log_mean_factor(m_bn) + _log_mean_factor(m_nd)
    return (n * math.sqrt(omega_bn * omega_nd) * math.exp(log_g),
            n * omega_bn * omega_nd * -math.expm1(2.0 * log_g))


@dataclass(frozen=True)
class CascadeApprox:
    """Moment-matched Gamma(delta, zeta) approximation of the cascade sum D.

    delta is the real-valued shape mu^2/sigma^2 and zeta the scale sigma^2/mu.
    delta_int is the shape rounded half-up and clamped to >= 1; the series
    form of the signal-outage factor requires an integer shape, everything
    else uses the real delta.
    """
    mu: float
    sigma2: float
    delta: float
    zeta: float
    delta_int: int


def gamma_approx(mu: float, sigma2: float) -> CascadeApprox:
    """Match a Gamma(delta, zeta) shape/scale pair to a given mean and variance."""
    check(mu=mu, sigma2=sigma2)
    delta = mu * mu / sigma2
    if delta == math.inf:
        raise ValueError(f"mu, sigma2: the shape mu^2/sigma2 is past the double "
                         f"range, got mu={mu!r}, sigma2={sigma2!r}")
    if delta == 0.0:
        raise ValueError(f"mu, sigma2: the shape mu^2/sigma2 underflows to 0, "
                         f"got mu={mu!r}, sigma2={sigma2!r}")
    zeta = sigma2 / mu
    delta_int = max(1, math.floor(delta + 0.5))
    return CascadeApprox(mu=mu, sigma2=sigma2, delta=delta, zeta=zeta,
                         delta_int=delta_int)


def cascade_approx(n: int, m_bn: float, m_nd: float,
                   omega_bn: float, omega_nd: float) -> CascadeApprox:
    return gamma_approx(*cascade_moments(n, m_bn, m_nd, omega_bn, omega_nd))


def cdf_X(x, approx: CascadeApprox):
    """CDF of the combined signal power X = D^2 under the Gamma approximation.

    P(X <= x) = P(D <= sqrt(x)) = gammainc_reg(delta, sqrt(x)/zeta).
    Accepts scalars or arrays; x < 0 maps to 0.
    """
    x = np.asarray(x, dtype=float)
    arg = np.sqrt(np.maximum(x, 0.0)) / approx.zeta
    out = special.gammainc(approx.delta, arg)
    return float(out) if out.ndim == 0 else out


def y_gamma_params(n: int, m_nd: float, omega_nd: float) -> tuple[float, float]:
    """Exact Gamma(shape, rate) parameters of Y = sum_n |g_nd|^2."""
    check(n=n, m_nd=m_nd, omega_nd=omega_nd)
    if n * m_nd == math.inf:
        raise ValueError(f"n, m_nd: the shape n*m_nd is past the double range, "
                         f"got n={n!r}, m_nd={m_nd!r}")
    return n * m_nd, m_nd / omega_nd


def pdf_Y(y, n: int, m_nd: float, omega_nd: float):
    """Exact density of the RIS-side power sum Y (scalar or array input)."""
    shape, rate = y_gamma_params(n, m_nd, omega_nd)
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    pos = y > 0.0
    with np.errstate(divide="ignore"):
        logpdf = (shape * math.log(rate) - math.lgamma(shape)
                  + (shape - 1.0) * np.log(y[pos]) - rate * y[pos])
    out[pos] = np.exp(logpdf)
    if shape == 1.0:
        out = np.where(y == 0.0, rate, out)
    elif shape < 1.0:
        out = np.where(y == 0.0, np.inf, out)
    return float(out) if out.ndim == 0 else out


def sample_nakagami(rng: np.random.Generator, m: float, omega: float, size=None):
    """Draw Nakagami-m amplitudes: |g| = sqrt(W), W ~ Gamma(m, omega/m)."""
    check(m=m, omega=omega)
    w = rng.gamma(shape=m, scale=omega / m, size=size)
    if np.ndim(w) == 0:
        return np.sqrt(w)
    # in place: a batch's amplitudes are the largest array a draw holds
    return np.sqrt(w, out=w)
