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
size is therefore part of the seeding contract, not a tuning knob.  McConfig
holds these settings and, like SystemParams, is checked when it is built.

One running batch holds about batch*n*8 bytes per worker: the transmitter-hop
amplitudes in full, while the receiver hop streams through blocks of about
2**16 amplitudes; estimate_outages refuses a key whose batch would pass
1 GiB.  The block size, unlike the batch size, is not part of the seeding
contract: it changes no drawn bit.

estimate_outages groups requests by fading key (the parameters the draws
depend on); each (fading key, batch index) job draws once and counts every
request of the key against its own noise budget.  These jobs are the only
parallel work in the package, run by RISNOISE_WORKERS threads (default 1).

Counting walks the drawn X and Y in cache-sized blocks of trials.  Per block
it checks X, Y >= 0 once, forms lam*Y once per distinct lam (lam does not
depend on the transmit power, so a power axis shares it), and per request
forms only the selected SINR and counts the draws below the threshold; the
block counts add up to the batch count.  sinr_exact and sinr_bounds are the
same check and the same SINR helper over whole arrays.
"""
from __future__ import annotations

import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import noise
from .noise import NoiseBudget, SystemParams, build_noise_budget, path_loss
from .fading import sample_nakagami

WORKERS_ENV = "RISNOISE_WORKERS"

# below this many successes (or failures) the normal interval is replaced
# by the exact binomial one
_NORMAL_CI_MIN_COUNT = 30

# receiver-hop amplitudes drawn per block (512 KiB).  Blocking changes no
# bit: numpy's gamma fill is element-sequential, so successive blocks
# continue one stream, and every reduction is per row.
_BLOCK_AMPLITUDES = 2 ** 16

# drawn trials counted per block: one block's temporaries stay in cache.
# Like the block above, it changes no count.
_COUNT_BLOCK = 2 ** 14


class ConfigError(ValueError):
    """Sweep or simulation configuration that cannot run as given."""


@dataclass(frozen=True)
class McConfig:
    trials: int = 1_000_000
    seed: int = 0
    batch: int = 250_000
    ci_level: float = 0.95

    def __post_init__(self) -> None:
        """Refuse a config that cannot run, naming every bad field."""
        problems = noise.problems(**vars(self))
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
                     size: int | None = None):
    """Sample the combined signal power X and the surface power sum Y.

    The same |g_nd| draws feed both X and Y; that coupling is physical and
    the estimators depend on it.  The |g_bn| draws are held in full; the
    |g_nd| draws follow in row blocks, reduced as they come.
    """
    k = 1 if size is None else int(size)
    if k < 1:
        raise ValueError(f"size must be positive, got {size!r}")
    n = params.n
    om_bn = path_loss(params.d_bn, params.tau_bn, params.phi_ref)
    om_nd = path_loss(params.d_nd, params.tau_nd, params.phi_ref)
    a = sample_nakagami(rng, params.m_bn, om_bn, size=(k, n))
    x = np.empty(k)
    y = np.empty(k)
    rows = max(1, _BLOCK_AMPLITUDES // n)
    for lo in range(0, k, rows):
        block = slice(lo, min(lo + rows, k))
        b = sample_nakagami(rng, params.m_nd, om_nd, size=(block.stop - lo, n))
        d = (a[block] * b).sum(axis=1)
        x[block] = d * d
        y[block] = (b * b).sum(axis=1)
    if size is None:
        return float(x[0]), float(y[0])
    return x, y


def _check_powers(x, y) -> None:
    # NaN fails >= where it would pass <
    if not (np.all(x >= 0.0) and np.all(y >= 0.0)):
        raise ValueError("powers must be nonnegative")


def _noise_term(lam: float, y):
    # lam*Y, with a signed zero made +0 so that snr/lam_y reads it as no
    # surface noise (+inf), never as -inf
    return lam * y + 0.0


def _sinr(snr, lam_y, which: str):
    """The selected per-draw SINR from snr = psi*X and lam_y = lam*Y.

    ub = fmin(snr/lam_y, snr): where lam_y = 0 the ratio is inf (or 0/0 =
    nan at X = 0), and fmin passes over it to snr.
    """
    if which == "exact":
        return snr / (lam_y + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ub = np.fmin(snr / lam_y, snr)
    return 0.5 * ub if which == "lb" else ub


def sinr_exact(x, y, budget: NoiseBudget):
    """Instantaneous SINR psi*X / (lam*Y + 1) (noise entered as averages)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_powers(x, y)
    out = _sinr(budget.psi * x, _noise_term(budget.lam, y), "exact")
    return float(out) if out.ndim == 0 else out


def sinr_bounds(x, y, budget: NoiseBudget):
    """Per-draw SINR bracket (lb, ub): ub = min(psi*X/(lam*Y), psi*X), lb = ub/2."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_powers(x, y)
    ub = _sinr(budget.psi * x, _noise_term(budget.lam, y), "ub")
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
    # -0.0 and 0.0 share a key: _noise_term gives both the same lam*Y
    lams = {budget.lam for _, budget, _ in counted}
    counts = [0] * len(counted)
    for lo in range(0, size, _COUNT_BLOCK):
        xb, yb = x[lo:lo + _COUNT_BLOCK], y[lo:lo + _COUNT_BLOCK]
        _check_powers(xb, yb)
        lam_y = {lam: _noise_term(lam, yb) for lam in lams}
        for j, (_, budget, which) in enumerate(counted):
            sinr = _sinr(budget.psi * xb, lam_y[budget.lam], which)
            counts[j] += int(np.count_nonzero(sinr < budget.ups_th))
    return [(i, c) for (i, _, _), c in zip(counted, counts)]


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
        half = special.ndtri(1.0 - tail) * math.sqrt(p * (1.0 - p) / trials)
        return max(p - half, 0.0), min(p + half, 1.0)
    lo = 0.0 if successes == 0 else float(
        special.betaincinv(successes, trials - successes + 1, tail))
    hi = 1.0 if successes == trials else float(
        special.betaincinv(successes + 1, trials - successes, 1.0 - tail))
    return lo, hi


def _worker_count(workers: int | None) -> int:
    # the argument, else RISNOISE_WORKERS (unset or empty: 1); at least 1
    if workers is None:
        name, value, parse = WORKERS_ENV, os.environ.get(WORKERS_ENV) or "1", int
    else:
        name, value, parse = "workers", workers, operator.index
    try:
        count = 0 if isinstance(value, bool) else parse(value)
    except (TypeError, ValueError):
        count = 0
    if count < 1:
        raise ConfigError(f"{name}: positive integer required, got {value!r}")
    return count


# a running batch holds min(batch, trials)*n transmitter-hop amplitudes of 8
# bytes per worker; 2**27 of them is 1 GiB, and the default batch of 250,000
# reaches it at n = 536.  Past it a batch asks for more memory than a
# worker can count on (200 GB at n = 1e5), so the key is refused instead.
_MAX_BATCH_AMPLITUDES = 2 ** 27


def estimate_outages(requests, config: McConfig = McConfig(),
                     workers: int | None = None) -> list[McEstimate]:
    """One estimate per (params, which) request, in request order.

    Each request gets exactly the counts estimate_outage would give it
    alone; requests with the same fading key share each batch's draw.
    """
    workers = _worker_count(workers)
    rows = min(config.batch, config.trials)
    groups: dict[tuple, tuple] = {}
    for i, (params, which) in enumerate(requests):
        if which not in _SELECTORS:
            raise ValueError(f"which must be one of {_SELECTORS}, got {which!r}")
        if rows * params.n > _MAX_BATCH_AMPLITUDES:
            raise ConfigError(
                f"n, batch: a batch of {rows} draws at n = {params.n} holds "
                f"{rows * params.n} transmitter-hop amplitudes, past the cap of "
                f"{_MAX_BATCH_AMPLITUDES} (1 GiB); lower batch")
        key = tuple(getattr(params, f) for f in _FADING_FIELDS)
        groups.setdefault(key, (params, []))[1].append(
            (i, build_noise_budget(params), which))
    jobs = [(params, counted, config.seed, index, size)
            for params, counted in groups.values()
            for index, size in enumerate(_batch_sizes(config.trials, config.batch))]
    if workers == 1 or len(jobs) <= 1:
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
