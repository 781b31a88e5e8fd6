"""Monte Carlo verification engine for the outage formulas.

With the surface phases set to cancel the cascaded channel phases, the
received signal collapses to the amplitude sum D = sum_n |g_bn| |g_nd| and
the surface-noise projection to Y = sum_n |g_nd|^2, so the sampler works in
the amplitude domain.  Both noise terms enter the SINR through their average
powers (the outage randomness is fading only), giving per draw

  exact:  psi*X / (lam*Y + 1)
  ub:     min(psi*X / (lam*Y), psi*X)
  lb:     ub / 2

Work is partitioned into fixed-size batches, each with its own
counter-derived stream, so the estimate for a given (seed, trials, batch)
is bit-identical no matter how many workers run the batches.  The batch
size is therefore part of the seeding contract, not a tuning knob.

estimate_outages groups requests by fading key (the parameters the draws
depend on); each (fading key, batch index) job draws once and counts every
request of the key against its own noise budget.  These jobs are the only
parallel work in the package, run by RISNOISE_WORKERS threads (default 1).
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .noise import NoiseBudget, SystemParams, build_noise_budget, path_loss
from .fading import sample_nakagami

WORKERS_ENV = "RISNOISE_WORKERS"

# below this many successes (or failures) the normal interval is replaced
# by the exact binomial one
_NORMAL_CI_MIN_COUNT = 30


class ConfigError(ValueError):
    """Sweep or simulation configuration that cannot run as given."""


@dataclass(frozen=True)
class McConfig:
    trials: int = 1_000_000
    seed: int = 0
    batch: int = 250_000
    ci_level: float = 0.95

    def problems(self) -> list[str]:
        """One line per field that cannot run, naming the field."""
        out = []
        for name, low, high, what in (
                ("trials", 1_000, math.inf, "integer >= 1000 (for a confidence interval)"),
                ("seed", 0, 2 ** 64, "unsigned 64-bit integer"),
                ("batch", 1, math.inf, "positive integer")):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or not low <= v < high:
                out.append(f"{name}: {what} required, got {v!r}")
        if not isinstance(self.ci_level, float) or not 0.0 < self.ci_level < 1.0:
            out.append(f"ci_level: must lie in (0, 1), got {self.ci_level!r}")
        return out

    def validate(self) -> None:
        problems = self.problems()
        if problems:
            raise ConfigError("invalid Monte Carlo config: " + "; ".join(problems))


@dataclass(frozen=True)
class McEstimate:
    p_hat: float
    ci_lo: float
    ci_hi: float
    trials_used: int


@dataclass(frozen=True)
class ThroughputEstimate:
    """Like McEstimate but the fields carry bit/s, not probabilities."""
    value: float
    ci_lo: float
    ci_hi: float
    trials_used: int


def draw_realization(params: SystemParams, rng: np.random.Generator,
                     size: int | None = None, validate_phases: bool = False):
    """Sample the combined signal power X and the surface power sum Y.

    The same |g_nd| draws feed both X and Y; that coupling is physical and
    the estimators depend on it.  With validate_phases=True the draw is
    repeated through the complex-channel route (random phases, surface set
    to phi_n = -arg(conj(g_nd) g_bn)) and checked against the amplitude
    route to round-off.
    """
    params.validate()
    k = 1 if size is None else int(size)
    if k < 1:
        raise ValueError(f"size must be positive, got {size!r}")
    om_bn = path_loss(params.d_bn, params.tau_bn, params.phi_ref)
    om_nd = path_loss(params.d_nd, params.tau_nd, params.phi_ref)
    a = sample_nakagami(rng, params.m_bn, om_bn, size=(k, params.n))
    b = sample_nakagami(rng, params.m_nd, om_nd, size=(k, params.n))
    d = (a * b).sum(axis=1)
    x = d * d
    y = (b * b).sum(axis=1)
    if validate_phases:
        gb = a * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(k, params.n)))
        gd = b * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(k, params.n)))
        term = np.conj(gd) * gb
        phased = np.abs((term * np.exp(-1j * np.angle(term))).sum(axis=1))
        if not np.allclose(phased * phased, x, rtol=1e-10, atol=0.0):
            raise ArithmeticError("phase-aligned complex route disagrees "
                                  "with the amplitude route")
    if size is None:
        return float(x[0]), float(y[0])
    return x, y


def sinr_exact(x, y, budget: NoiseBudget):
    """Instantaneous SINR psi*X / (lam*Y + 1) (noise entered as averages)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x < 0.0) or np.any(y < 0.0):
        raise ValueError("powers must be nonnegative")
    out = budget.psi * x / (budget.lam * y + 1.0)
    return float(out) if out.ndim == 0 else out


def sinr_bounds(x, y, budget: NoiseBudget):
    """Per-draw SINR bracket (lb, ub): ub = min(psi*X/(lam*Y), psi*X), lb = ub/2."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x < 0.0) or np.any(y < 0.0):
        raise ValueError("powers must be nonnegative")
    snr = budget.psi * x
    lam_y = budget.lam * y
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(lam_y > 0.0, snr / np.where(lam_y > 0.0, lam_y, 1.0), np.inf)
    ub = np.minimum(ratio, snr)
    if ub.ndim == 0:
        return 0.5 * float(ub), float(ub)
    return 0.5 * ub, ub


_SELECTORS = ("exact", "lb", "ub")


def _batch_sizes(trials: int, batch: int) -> list[int]:
    full, rest = divmod(trials, batch)
    return [batch] * full + ([rest] if rest else [])


def _batch_rng(seed: int, index: int) -> np.random.Generator:
    # counter-based stream: the key is (seed, batch index), so batch k draws
    # the same numbers no matter which worker runs it, or when
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


# the fading key: the SystemParams fields draw_realization depends on
_FADING_FIELDS = ("n", "m_bn", "m_nd", "d_bn", "d_nd", "tau_bn", "tau_nd", "phi_ref")


def _count_batch(params: SystemParams, counted, seed: int, index: int,
                 size: int) -> list[tuple[int, int]]:
    # one draw of batch `index`; (request, outage count) per counted request
    x, y = draw_realization(params, _batch_rng(seed, index), size=size)
    out = []
    for i, budget, which in counted:
        if which == "exact":
            sinr = sinr_exact(x, y, budget)
        else:
            lb, ub = sinr_bounds(x, y, budget)
            sinr = lb if which == "lb" else ub
        out.append((i, int(np.count_nonzero(sinr < budget.ups_th))))
    return out


def binomial_ci(successes: int, trials: int, level: float) -> tuple[float, float]:
    """Two-sided interval for a binomial proportion.

    Normal approximation away from the boundaries; exact (Clopper-Pearson)
    once either count drops below 30, where the normal shape is wrong.
    """
    if trials < 1:
        raise ConfigError("no trials, no interval")
    p = successes / trials
    tail = 0.5 * (1.0 - level)
    if min(successes, trials - successes) >= _NORMAL_CI_MIN_COUNT:
        half = stats.norm.ppf(1.0 - tail) * math.sqrt(p * (1.0 - p) / trials)
        return max(p - half, 0.0), min(p + half, 1.0)
    lo = 0.0 if successes == 0 else float(
        stats.beta.ppf(tail, successes, trials - successes + 1))
    hi = 1.0 if successes == trials else float(
        stats.beta.ppf(1.0 - tail, successes + 1, trials - successes))
    return lo, hi


def estimate_outages(requests, config: McConfig = McConfig(),
                     workers: int | None = None) -> list[McEstimate]:
    """One estimate per (params, which) request, in request order.

    Each request gets exactly the counts estimate_outage would give it
    alone; requests with the same fading key share each batch's draw.
    """
    config.validate()
    groups: dict[tuple, tuple] = {}
    for i, (params, which) in enumerate(requests):
        if which not in _SELECTORS:
            raise ValueError(f"which must be one of {_SELECTORS}, got {which!r}")
        key = tuple(getattr(params, f) for f in _FADING_FIELDS)
        groups.setdefault(key, (params, []))[1].append(
            (i, build_noise_budget(params), which))
    jobs = [(params, counted, config.seed, index, size)
            for params, counted in groups.values()
            for index, size in enumerate(_batch_sizes(config.trials, config.batch))]
    if workers is None:
        workers = int(os.environ.get(WORKERS_ENV, "1") or "1")
    if workers <= 1 or len(jobs) <= 1:
        per_job = [_count_batch(*job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_job = list(pool.map(lambda job: _count_batch(*job), jobs))
    successes = [0] * len(requests)
    for counts in per_job:
        for i, c in counts:
            successes[i] += c
    return [McEstimate(s / config.trials,
                       *binomial_ci(s, config.trials, config.ci_level),
                       trials_used=config.trials) for s in successes]


def estimate_outage(params: SystemParams, config: McConfig = McConfig(),
                    which: str = "exact",
                    workers: int | None = None) -> McEstimate:
    """Fraction of fading draws whose selected SINR falls below the threshold."""
    return estimate_outages([(params, which)], config, workers)[0]


def estimate_throughput(params: SystemParams, config: McConfig = McConfig(),
                        workers: int | None = None) -> ThroughputEstimate:
    """Effective rate (1 - outage(exact)) * R with the interval mapped through."""
    est = estimate_outage(params, config, which="exact", workers=workers)
    return ThroughputEstimate(value=(1.0 - est.p_hat) * params.rate,
                              ci_lo=(1.0 - est.ci_hi) * params.rate,
                              ci_hi=(1.0 - est.ci_lo) * params.rate,
                              trials_used=est.trials_used)
