"""Thermal noise budget for a RIS-assisted link.

Every noise power in the package flows through this module: the receiver
AWGN floor k*T*B*NF, the aggregate RIS thermal noise N*alpha*k*T*B, and the
derived SINR dials (rho, psi, lambda, threshold).  Powers are linear watts
internally; dB values (dBW) appear only at I/O boundaries.  SystemParams
is frozen and checked against RULES when built.  Each public helper
(receiver_noise_power, ris_noise_power, path_loss, sinr_threshold) is
check() on the raw numbers it takes plus a private body that does not
check; hop_powers and build_noise_budget, the one route to a NoiseBudget,
read a built SystemParams through those bodies, and the link builder
(outage.build_link_models) calls both, so no field is checked twice.  A
body still refuses a result its checked inputs can put past the double
range.
"""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

# Exact SI Boltzmann constant (2019 redefinition), J/K.
BOLTZMANN = 1.380649e-23

T_DEFAULT = 290.0          # K, standard noise temperature
B_DEFAULT = 20e6           # Hz
NF_DEFAULT = 10.0 ** 0.3   # 3 dB receiver noise figure, linear


_REAL = (float, int)
_INT = (int,)
_BOOL = (bool,)
_MAX = sys.float_info.max
# the doubles next to 0 and 1: as closed bounds they state v > 0 and v < 1
_ABOVE_0 = math.nextafter(0.0, 1.0)
_BELOW_1 = math.nextafter(1.0, 0.0)
_POSITIVE = (_REAL, _ABOVE_0, _MAX, "must be positive")
_NONNEGATIVE = (_REAL, 0.0, _MAX, "must be nonnegative")
_ANY = (_REAL, -_MAX, _MAX, "")
_SHAPE = (_REAL, 0.5, _MAX, "Nakagami shape must be >= 0.5")
_PROBABILITY = (_REAL, 0.0, 1.0, "must lie in [0, 1]")

# The rule for every numeric input, keyed by the name it goes by: the
# SystemParams fields, the names the public helpers give the same
# quantities, the outage threshold ups, the probabilities the outage
# module composes, and the sweep and Monte Carlo settings of a config.  A
# rule is (types, lo, hi, text): the value must be a finite real number (a
# bool is not one) in [lo, hi], and an int where types is _INT; where types
# is _BOOL it must be a bool and nothing else.  NaN slips past a check
# written as `if v < lo: raise`, and inf breaks the noise budget.
RULES = {
    "n": (_INT, 1, _MAX, "positive integer required"),
    "alpha": (_REAL, _ABOVE_0, 1.0, "must lie in (0, 1]"),
    "m_bn": _SHAPE, "m_nd": _SHAPE, "m": _SHAPE,
    "d_bn": _POSITIVE, "d_nd": _POSITIVE, "distance": _POSITIVE,
    "tau_bn": _ANY, "tau_nd": _ANY, "exponent": _ANY,
    "phi_ref": _POSITIVE, "bw": _POSITIVE, "temp": _POSITIVE,
    "nf": (_REAL, 1.0, _MAX, "linear noise figure must be >= 1"),
    "pb": _POSITIVE, "p": _POSITIVE, "rate": _NONNEGATIVE,
    # the transmit power in dBW, inside the range whose watt value is a
    # positive double
    "pb_dbw": (_REAL, -3233.0, 3082.5,
               "must lie in [-3233, 3082.5] dBW (a positive double in watts)"),
    # a switch: a truthy string or number would turn the noise on silently
    "ris_noise": (_BOOL, False, True, "true or false required"),
    "sigma_d2": _POSITIVE, "sigma_r2": _NONNEGATIVE,
    "omega": _POSITIVE, "omega_bn": _POSITIVE, "omega_nd": _POSITIVE,
    "mu": _POSITIVE, "sigma2": _POSITIVE,
    "ups": _NONNEGATIVE,
    "xi1": _PROBABILITY, "xi2": _PROBABILITY, "outage": _PROBABILITY,
    "target": (_REAL, _ABOVE_0, _BELOW_1, "must lie in (0, 1)"),
    "start": _ANY, "stop": _ANY,
    # every point's params and links are built before the first row, so a
    # grid past a million points is a typo, not a sweep
    "points": (_INT, 2, 1_000_000, "integer in [2, 1000000] required"),
    "trials": (_INT, 1_000, _MAX,
               "integer >= 1000 required (for a confidence interval)"),
    "seed": (_INT, 0, 2 ** 64 - 1, "unsigned 64-bit integer required"),
    "batch": (_INT, 1, _MAX, "positive integer required"),
    # the draw count of mcsim.draw_realization
    "size": (_INT, 1, _MAX, "positive integer required"),
    "ci_level": (_REAL, _ABOVE_0, _BELOW_1, "must lie in (0, 1)"),
}

# the noise-power overrides, whose None is derived from the other fields
# and passes its rule; a None anywhere else is refused
_NONE_DERIVES = frozenset({"sigma_d2", "sigma_r2"})


def _problems(values: dict) -> list[str]:
    out = []
    for name, v in values.items():
        types, lo, hi, rule = RULES[name]
        # a plain float or int in range: the bounds are finite, so NaN and
        # inf fail them too
        if type(v) in types and lo <= v <= hi \
                or v is None and name in _NONE_DERIVES:
            continue
        if types is _BOOL:
            out.append(f"{name}: {rule}, got {v!r}")
            continue
        # a bool, a numpy scalar, a non-number or a value out of range;
        # abs(v) <= _MAX also refuses the ints no double holds
        if isinstance(v, bool) or not isinstance(v, numbers.Real) \
                or not abs(v) <= _MAX:
            out.append(f"{name}: finite number required, got {v!r}")
        elif not lo <= v <= hi or types is _INT:
            out.append(f"{name}: {rule}, got {v!r}")
    return out


def problems(**values) -> list[str]:
    """A "<name>: <rule>, got <value>" line per value that breaks its rule."""
    return _problems(values)


def check(**values) -> None:
    """Refuse the values problems() finds, in one ValueError naming each."""
    # not problems(**values), which copies the keywords once more: check
    # runs on every call into the model
    found = _problems(values)
    if found:
        raise ValueError("; ".join(found))


def db_from_watts(p: float) -> float:
    """10*log10(p), p in watts -> dBW."""
    check(p=p)
    return 10.0 * math.log10(p)


def watts_from_db(x: float) -> float:
    """dBW -> watts."""
    return 10.0 ** (x / 10.0)


def receiver_noise_power(temp: float = T_DEFAULT, bw: float = B_DEFAULT,
                         nf: float = NF_DEFAULT) -> float:
    """Receiver AWGN power k*T*B*NF in watts.

    nf is the linear noise figure (>= 1); nf = 1 gives the bare k*T*B floor.
    """
    check(temp=temp, bw=bw, nf=nf)
    return _receiver_noise_power(temp, bw, nf)


def _receiver_noise_power(temp: float, bw: float, nf: float) -> float:
    power = (BOLTZMANN * temp * bw) * nf
    if not 0.0 < power <= _MAX:
        # the noise budget divides by it
        raise ValueError(f"temp: k*T*B*nf must be a positive double, got "
                         f"temp={temp!r}, bw={bw!r}, nf={nf!r}")
    return power


def ris_noise_power(n: int, alpha: float, temp: float = T_DEFAULT,
                    bw: float = B_DEFAULT) -> float:
    """Aggregate RIS thermal noise N*alpha*k*T*B in watts.

    Written as (n*alpha) * (k*T*B) so that linearity in n and alpha holds
    bit-exactly: ris_noise_power(n, a) == n*a*ris_noise_power(1, 1.0).
    """
    check(n=n, alpha=alpha, temp=temp, bw=bw)
    return _ris_noise_power(n, alpha, temp, bw)


def _ris_noise_power(n: int, alpha: float, temp: float, bw: float) -> float:
    return (n * alpha) * (BOLTZMANN * temp * bw)


def path_loss(distance: float, exponent: float, phi_ref: float = 1.0) -> float:
    """Mean channel power Omega = phi_ref / d^exponent (d in meters).

    phi_ref is the reference power at 1 m; the default 1.0 matches the
    convention used by the bundled reference results.
    """
    check(distance=distance, exponent=exponent, phi_ref=phi_ref)
    return _path_loss(distance, exponent, phi_ref)


def _path_loss(distance: float, exponent: float, phi_ref: float) -> float:
    try:
        # math.pow works in doubles, where an int power of an int would not
        omega = phi_ref * math.pow(distance, -exponent)
    except OverflowError:
        omega = math.inf
    if not 0.0 < omega <= _MAX:
        raise ValueError(f"distance: phi_ref / distance**exponent must be a "
                         f"positive double, got distance={distance!r}, "
                         f"exponent={exponent!r}, phi_ref={phi_ref!r}")
    return omega


def sinr_threshold(rate: float, bw: float) -> float:
    """Outage SINR threshold 2^(rate/bw) - 1 for target rate in bit/s."""
    check(rate=rate, bw=bw)
    return _sinr_threshold(rate, bw)


def _sinr_threshold(rate: float, bw: float) -> float:
    x = rate / bw
    if x >= 1024.0:
        # 2**1024 is past the largest double
        raise ValueError(f"rate: rate/bw must be below 1024, got rate={rate!r} "
                         f"over bw={bw!r}")
    if x >= 0.5:
        return 2.0 ** x - 1.0
    # expm1 keeps full precision for small rate/bandwidth ratios
    return math.expm1(x * math.log(2.0))


# Default geometry/fading values: the reference operating point used by all
# bundled presets (an RIS 100 m from the transmitter, receiver 2 m from the
# RIS, Nakagami shape 2 on both hops, 15 Mbit/s over 20 MHz).  Frozen and
# checked when built; dataclasses.replace makes a variant and checks it too,
# and noiseless() copies a checked point with the surface noise off.
@dataclass(frozen=True)
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

    def __post_init__(self) -> None:
        """Check every field against RULES, naming each bad one."""
        # the instance dict holds exactly the fields and reads faster than
        # dataclasses.fields
        found = _problems(vars(self))
        if found:
            raise ValueError("invalid system parameters: " + "; ".join(found))

    def noiseless(self) -> SystemParams:
        """This point with ris_noise=False.  Not checked again: the rules are
        per field, the other fields passed theirs, and False passes its own."""
        twin = object.__new__(type(self))
        twin.__dict__.update(vars(self), ris_noise=False)
        return twin


def hop_powers(params: SystemParams) -> tuple[float, float]:
    """Mean channel powers (omega_bn, omega_nd) of the two hops."""
    # the path-loss body names its own arguments; a refusal names the hop's
    # fields
    hop = "d_bn, tau_bn, phi_ref"
    try:
        omega_bn = _path_loss(params.d_bn, params.tau_bn, params.phi_ref)
        hop = "d_nd, tau_nd, phi_ref"
        omega_nd = _path_loss(params.d_nd, params.tau_nd, params.phi_ref)
    except ValueError as exc:
        raise ValueError(f"{hop}: {exc}") from None
    return omega_bn, omega_nd


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
    """Derive the SINR noise dials from system parameters: the one route to
    a NoiseBudget.

    The RIS noise power entering lambda is the aggregate surface noise
    N*alpha*k*T*B (the noise-table value), not the per-element k*T*B: the
    interference term therefore scales with N, bandwidth, and alpha, which is
    what the bundled reference outage/throughput results assume.  Build
    params with ris_noise=False (or sigma_r2=0) for the noiseless variant.
    Refusals come in the order the dials are derived: the noise powers, the
    signal scale (a psi of 0 or inf), then the threshold.
    """
    sigma_d2 = params.sigma_d2 if params.sigma_d2 is not None \
        else _receiver_noise_power(params.temp, params.bw, params.nf)
    if not params.ris_noise:
        sigma_r2 = 0.0
    elif params.sigma_r2 is not None:
        sigma_r2 = params.sigma_r2
    else:
        sigma_r2 = _ris_noise_power(params.n, params.alpha, params.temp, params.bw)
    pb, alpha = params.pb, params.alpha
    rho = pb / sigma_d2
    psi = rho * alpha
    if psi == 0.0:
        # the outage thresholds divide by it
        raise ValueError(f"pb: the signal scale pb*alpha/sigma_d2 underflows "
                         f"to 0, got pb={pb!r}, alpha={alpha!r}, "
                         f"sigma_d2={sigma_d2!r}")
    if psi == math.inf:
        raise ValueError(f"pb: the signal scale pb*alpha/sigma_d2 is past the "
                         f"double range, got pb={pb!r}, "
                         f"alpha={alpha!r}, sigma_d2={sigma_d2!r}")
    return NoiseBudget(sigma_d2=sigma_d2, sigma_r2=sigma_r2,
                       lam=alpha * sigma_r2 / sigma_d2, rho=rho, psi=psi,
                       ups_th=_sinr_threshold(params.rate, params.bw))


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
