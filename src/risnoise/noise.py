"""Thermal noise budget for a RIS-assisted link.

Every noise power in the package flows through this module: the receiver
AWGN floor k*T*B*NF, the aggregate RIS thermal noise N*alpha*k*T*B, and the
derived SINR dials (rho, psi, lambda, threshold).  Powers are linear watts
internally; dB values (dBW) appear only at I/O boundaries.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

# Exact SI Boltzmann constant (2019 redefinition), J/K.
BOLTZMANN = 1.380649e-23

T_DEFAULT = 290.0          # K, standard noise temperature
B_DEFAULT = 20e6           # Hz
NF_DEFAULT = 10.0 ** 0.3   # 3 dB receiver noise figure, linear


def db_from_watts(p: float) -> float:
    """10*log10(p), p in watts -> dBW."""
    if p <= 0.0:
        raise ValueError(f"power must be positive to express in dB, got {p!r}")
    return 10.0 * math.log10(p)


def watts_from_db(x: float) -> float:
    """dBW -> watts."""
    return 10.0 ** (x / 10.0)


def receiver_noise_power(temp: float = T_DEFAULT, bw: float = B_DEFAULT,
                         nf: float = NF_DEFAULT) -> float:
    """Receiver AWGN power k*T*B*NF in watts.

    nf is the linear noise figure (>= 1); nf = 1 gives the bare k*T*B floor.
    """
    if temp <= 0.0:
        raise ValueError(f"temperature must be positive, got {temp!r}")
    if bw <= 0.0:
        raise ValueError(f"bandwidth must be positive, got {bw!r}")
    if nf < 1.0:
        raise ValueError(f"linear noise figure must be >= 1, got {nf!r}")
    return (BOLTZMANN * temp * bw) * nf


def ris_noise_power(n: int, alpha: float, temp: float = T_DEFAULT,
                    bw: float = B_DEFAULT) -> float:
    """Aggregate RIS thermal noise N*alpha*k*T*B in watts.

    Written as (n*alpha) * (k*T*B) so that linearity in n and alpha holds
    bit-exactly: ris_noise_power(n, a) == n*a*ris_noise_power(1, 1.0).
    """
    if not isinstance(n, (int,)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"element count must be a positive integer, got {n!r}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"reflection factor must lie in (0, 1], got {alpha!r}")
    if temp <= 0.0:
        raise ValueError(f"temperature must be positive, got {temp!r}")
    if bw <= 0.0:
        raise ValueError(f"bandwidth must be positive, got {bw!r}")
    return (n * alpha) * (BOLTZMANN * temp * bw)


def path_loss(distance: float, exponent: float, phi_ref: float = 1.0) -> float:
    """Mean channel power Omega = phi_ref / d^exponent (d in meters).

    phi_ref is the reference power at 1 m; the default 1.0 matches the
    convention used by the bundled reference results.
    """
    if distance <= 0.0:
        raise ValueError(f"distance must be positive, got {distance!r}")
    if phi_ref <= 0.0:
        raise ValueError(f"reference power must be positive, got {phi_ref!r}")
    return phi_ref * distance ** (-exponent)


def sinr_threshold(rate: float, bw: float) -> float:
    """Outage SINR threshold 2^(rate/bw) - 1 for target rate in bit/s."""
    if rate < 0.0:
        raise ValueError(f"rate must be nonnegative, got {rate!r}")
    if bw <= 0.0:
        raise ValueError(f"bandwidth must be positive, got {bw!r}")
    x = rate / bw
    if x >= 0.5:
        return 2.0 ** x - 1.0
    # expm1 keeps full precision for small rate/bandwidth ratios
    return math.expm1(x * math.log(2.0))


# Default geometry/fading values: the reference operating point used by all
# bundled presets (an RIS 100 m from the transmitter, receiver 2 m from the
# RIS, Nakagami shape 2 on both hops, 15 Mbit/s over 20 MHz).
@dataclass
class SystemParams:
    n: int = 10                  # RIS element count
    alpha: float = 0.9           # reflection factor, (0, 1]
    m_bn: float = 2.0            # Nakagami shape, transmitter->RIS hop
    m_nd: float = 2.0            # Nakagami shape, RIS->receiver hop
    d_bn: float = 100.0          # m
    d_nd: float = 2.0            # m
    tau_bn: float = 3.2          # path loss exponent, transmitter->RIS
    tau_nd: float = 2.0          # path loss exponent, RIS->receiver
    phi_ref: float = 1.0         # path loss at 1 m
    bw: float = B_DEFAULT        # Hz
    temp: float = T_DEFAULT      # K
    nf: float = NF_DEFAULT       # linear receiver noise figure
    pb: float = 1e-6             # transmit power, watts (-60 dBW)
    rate: float = 15e6           # target rate, bit/s
    ris_noise: bool = True       # model RIS thermal noise (off -> lambda = 0)
    # Direct overrides in watts; None derives them from temp/bw/nf and n/alpha.
    sigma_d2: float | None = None
    sigma_r2: float | None = None

    def validate(self) -> None:
        # NaN passes every range check below and inf breaks the noise budget
        problems = []
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name not in ("n", "ris_noise") and v is not None and (
                    isinstance(v, bool) or not isinstance(v, numbers.Real)
                    or not math.isfinite(v)):
                problems.append(f"{f.name}: finite number required, got {v!r}")
        if problems:
            raise ValueError("invalid system parameters: " + "; ".join(problems))
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            problems.append(f"n: positive integer required, got {self.n!r}")
        if not 0.0 < self.alpha <= 1.0:
            problems.append(f"alpha: must lie in (0, 1], got {self.alpha!r}")
        for name in ("m_bn", "m_nd"):
            v = getattr(self, name)
            if v < 0.5:
                problems.append(f"{name}: Nakagami shape must be >= 0.5, got {v!r}")
        for name in ("d_bn", "d_nd", "phi_ref", "bw", "temp", "pb"):
            v = getattr(self, name)
            if v <= 0.0:
                problems.append(f"{name}: must be positive, got {v!r}")
        if self.nf < 1.0:
            problems.append(f"nf: linear noise figure must be >= 1, got {self.nf!r}")
        if self.rate < 0.0:
            problems.append(f"rate: must be nonnegative, got {self.rate!r}")
        for name in ("sigma_d2", "sigma_r2"):
            v = getattr(self, name)
            if v is not None and v < 0.0:
                problems.append(f"{name}: override must be nonnegative, got {v!r}")
        if self.sigma_d2 is not None and self.sigma_d2 == 0.0:
            problems.append("sigma_d2: receiver noise override must be positive")
        if problems:
            raise ValueError("invalid system parameters: " + "; ".join(problems))


@dataclass(frozen=True)
class NoiseBudget:
    """Derived noise dials for one operating point (all linear units)."""
    sigma_d2: float   # receiver noise power, W
    sigma_r2: float   # RIS noise power entering the interference term, W
    lam: float        # alpha * sigma_r2 / sigma_d2
    rho: float        # pb / sigma_d2
    psi: float        # rho * alpha
    ups_th: float     # SINR outage threshold


def build_noise_budget(params: SystemParams) -> NoiseBudget:
    """Derive the SINR noise dials from system parameters.

    The RIS noise power entering lambda is the aggregate surface noise
    N*alpha*k*T*B (the noise-table value), not the per-element k*T*B: the
    interference term therefore scales with N, bandwidth, and alpha, which is
    what the bundled reference outage/throughput results assume.  Set
    params.ris_noise = False (or sigma_r2 = 0) for the noiseless variant.
    """
    params.validate()
    sigma_d2 = params.sigma_d2 if params.sigma_d2 is not None \
        else receiver_noise_power(params.temp, params.bw, params.nf)
    if not params.ris_noise:
        sigma_r2 = 0.0
    elif params.sigma_r2 is not None:
        sigma_r2 = params.sigma_r2
    else:
        sigma_r2 = ris_noise_power(params.n, params.alpha, params.temp, params.bw)
    lam = params.alpha * sigma_r2 / sigma_d2
    rho = params.pb / sigma_d2
    return NoiseBudget(
        sigma_d2=sigma_d2,
        sigma_r2=sigma_r2,
        lam=lam,
        rho=rho,
        psi=rho * params.alpha,
        ups_th=sinr_threshold(params.rate, params.bw),
    )


TABLE_ALPHAS = tuple(round(0.1 * i, 1) for i in range(1, 11))
TABLE_COUNTS = (5, 10, 20)

# Published reference values (dBW) for the RIS noise table at T = 290 K,
# B = 20 MHz.  They were evidently produced with the truncated constant
# k = 1.38e-23: ris_noise_power() with the exact SI constant lands a uniform
# 10*log10(1.380649/1.38) = 0.00204 dB above every cell.
REFERENCE_NOISE_TABLE_DBW = {
    (0.1, 5): -133.9772, (0.1, 10): -130.9669, (0.1, 20): -127.9566,
    (0.2, 5): -130.9669, (0.2, 10): -127.9566, (0.2, 20): -124.9463,
    (0.3, 5): -129.2060, (0.3, 10): -126.1957, (0.3, 20): -123.1854,
    (0.4, 5): -127.9566, (0.4, 10): -124.9463, (0.4, 20): -121.9360,
    (0.5, 5): -126.9875, (0.5, 10): -123.9772, (0.5, 20): -120.9669,
    (0.6, 5): -126.1957, (0.6, 10): -123.1854, (0.6, 20): -120.1751,
    (0.7, 5): -125.5262, (0.7, 10): -122.5159, (0.7, 20): -119.5056,
    (0.8, 5): -124.9463, (0.8, 10): -121.9360, (0.8, 20): -118.9257,
    (0.9, 5): -124.4348, (0.9, 10): -121.4245, (0.9, 20): -118.4142,
    (1.0, 5): -123.9772, (1.0, 10): -120.9669, (1.0, 20): -117.9566,
}


def table2(temp: float = T_DEFAULT, bw: float = B_DEFAULT):
    """The RIS noise reference grid in dBW: rows alpha 0.1..1.0, columns N 5/10/20."""
    return [
        (a, [db_from_watts(ris_noise_power(n, a, temp, bw)) for n in TABLE_COUNTS])
        for a in TABLE_ALPHAS
    ]
