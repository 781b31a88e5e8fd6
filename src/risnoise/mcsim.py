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
1 GiB, and a plan of over 2**19 jobs.  The block size, unlike the batch
size, is not part of the seeding contract: it changes no drawn bit.

estimate_outages takes (link, selector) requests on outage.LinkModel links
and groups them by fading key (what the draws depend on: n, the two shapes
and the two hop powers).  Every key reads batch `index` from the same
stream, and key n's draw is its first 2*batch*n Gamma variates, scaled per
hop; so keys with equal shapes read one stream whatever their n, and keys
with unequal shapes one stream per n.  Each (stream group, batch index)
job draws that stream once, as far as its largest key needs, and counts
every request of every key against its link's noise budget.  These jobs
are the only parallel work in the package, run by RISNOISE_WORKERS threads
(default 1).  estimate_outage builds its link before any draw.

Counting follows the draw block by block, so no X or Y array of batch
length is held.  Per block it checks X, Y >= 0 once, forms lam*Y once per
distinct lam (lam does not depend on the transmit power, so a power axis
shares it), and per request forms only the selected SINR and counts the
draws below the threshold; the block counts add up to the batch count.
sinr_exact and sinr_bounds are the same check and the same SINR helper
over whole arrays.
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
from .noise import NoiseBudget, SystemParams, hop_powers
from .fading import sample_nakagami
from .outage import LinkModel, build_link_model, throughput

WORKERS_ENV = "RISNOISE_WORKERS"

# below this many successes (or failures) the normal interval is replaced
# by the exact binomial one
_NORMAL_CI_MIN_COUNT = 30

# receiver-hop amplitudes drawn, reduced and counted per block (512 KiB).
# Blocking changes no bit: numpy's gamma fill is element-sequential, so
# successive blocks continue one stream, every reduction is per row, and
# block counts add up.
_BLOCK_AMPLITUDES = 2 ** 16


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


def _stream_blocks(rng: np.random.Generator, m_bn: float, m_nd: float,
                   keys, size: int):
    """Yield (j, rows, x, y): X and Y over a block of rows of keys[j].

    keys are (n, omega_bn, omega_nd) triples that read one stream: key j's
    |g_bn| rows are Gamma(m_bn) variates 0 to size*n - 1, scaled by
    omega_bn/m_bn and rooted, and its |g_nd| rows the Gamma(m_nd) variates
    size*n to 2*size*n - 1.  So the keys must share their shapes, and their
    n too unless m_bn == m_nd.  The stream is drawn once, to 2*size*n_max: a
    head of size*n_max Gamma(m_bn) variates holds every |g_bn| row (and, at
    equal shapes, the |g_nd| rows of each key with 2n <= n_max); the rest
    comes in chunks of whole n_max rows, about _BLOCK_AMPLITUDES, which every
    key still reading takes in lockstep, carrying its partial row over.
    A single key draws through sample_nakagami, its scale inside the gamma
    call, so its head is its |g_bn| amplitudes.
    """
    n_max = max(n for n, _, _ in keys)
    fused = len(keys) == 1
    if fused:
        (_, om_bn, om_nd), = keys
        head = sample_nakagami(rng, m_bn, om_bn, size=size * n_max)
        tail = lambda count: sample_nakagami(rng, m_nd, om_nd, size=count)
    else:
        head = rng.standard_gamma(m_bn, size=size * n_max)
        tail = lambda count: rng.standard_gamma(m_nd, size=count)

    def amplitudes(w, m, omega):
        # omega/m * w, rooted: the bits of sample_nakagami's scaled draw
        if fused:
            return w
        w = w * (omega / m)
        return np.sqrt(w, out=w)

    def reduce(j, lo, w_nd):
        n, om_bn, om_nd = keys[j]
        rows = slice(lo, lo + w_nd.size // n)
        a = amplitudes(head[rows.start * n:rows.stop * n], m_bn, om_bn).reshape(-1, n)
        b = amplitudes(w_nd, m_nd, om_nd).reshape(-1, n)
        d = (a * b).sum(axis=1)
        return j, rows, d * d, (b * b).sum(axis=1)

    done, carry = [], []   # per key: |g_nd| rows reduced, the partial row after them
    for j, (n, _, _) in enumerate(keys):
        start = size * n
        in_head = min(size, size * (n_max - n) // n)
        step = max(1, _BLOCK_AMPLITUDES // n)
        for lo in range(0, in_head, step):
            hi = min(lo + step, in_head)
            yield reduce(j, lo, head[start + lo * n:start + hi * n])
        done.append(in_head)
        carry.append(head[start + in_head * n:2 * start])
    chunk = max(1, _BLOCK_AMPLITUDES // n_max) * n_max
    for pos in range(size * n_max, 2 * size * n_max, chunk):
        w = tail(min(chunk, 2 * size * n_max - pos))
        for j, (n, _, _) in enumerate(keys):
            if done[j] == size:
                continue
            taken = w[:2 * size * n - pos]
            if carry[j].size:
                taken = np.concatenate((carry[j], taken))
            whole = taken.size // n * n
            yield reduce(j, done[j], taken[:whole])
            done[j] += whole // n
            carry[j] = taken[whole:]


def draw_realization(params: SystemParams, rng: np.random.Generator,
                     size: int | None = None):
    """Sample the combined signal power X and the surface power sum Y.

    The same |g_nd| draws feed both X and Y; that coupling is physical and
    the estimators depend on it.  The |g_bn| draws are held in full; the
    |g_nd| draws follow in row blocks, reduced as they come.  This is the
    one-key case of the drawer every Monte Carlo batch runs through.
    """
    k = 1 if size is None else size
    noise.check(size=k)
    x = np.empty(k)
    y = np.empty(k)
    for _, rows, xb, yb in _stream_blocks(rng, params.m_bn, params.m_nd,
                                          [(params.n, *hop_powers(params))], k):
        x[rows] = xb
        y[rows] = yb
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
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    _check_powers(x, y)
    out = _sinr(budget.psi * x, _noise_term(budget.lam, y), "exact")
    return float(out) if out.ndim == 0 else out


def sinr_bounds(x, y, budget: NoiseBudget):
    """Per-draw SINR bracket (lb, ub): ub = min(psi*X/(lam*Y), psi*X), lb = ub/2."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    _check_powers(x, y)
    ub = _sinr(budget.psi * x, _noise_term(budget.lam, y), "ub")
    if ub.ndim == 0:
        return 0.5 * float(ub), float(ub)
    return 0.5 * ub, ub


# the SINR each estimate counts; the sweep's mc_* modes are these
SELECTORS = ("exact", "lb", "ub")


def _batch_sizes(trials: int, batch: int) -> list[int]:
    full, rest = divmod(trials, batch)
    return [batch] * full + ([rest] if rest else [])


def _batch_rng(seed: int, index: int) -> np.random.Generator:
    # counter-based stream: the key is (seed, batch index), so batch k draws
    # the same numbers no matter which worker runs it, or when
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _outage_counts(x, y, counted) -> list[int]:
    """Draws whose selected SINR is below the threshold, per (budget, which)."""
    _check_powers(x, y)
    # -0.0 and 0.0 share a key: _noise_term gives both the same lam*Y
    lam_y = {lam: _noise_term(lam, y) for lam in {budget.lam for budget, _ in counted}}
    return [int(np.count_nonzero(_sinr(budget.psi * x, lam_y[budget.lam], which)
                                 < budget.ups_th)) for budget, which in counted]


def _count_job(m_bn: float, m_nd: float, keys: dict, seed: int, index: int,
               size: int) -> list[tuple[int, int]]:
    # batch `index` of one stream group, drawn once for all its fading keys;
    # keys maps (n, omega_bn, omega_nd) to its request indices and their
    # (budget, which) pairs.  Returns (request, outage count) pairs.
    requests = list(keys.values())
    counts = [[0] * len(ids) for ids, _ in requests]
    for j, _, x, y in _stream_blocks(_batch_rng(seed, index), m_bn, m_nd,
                                     list(keys), size):
        for c, got in enumerate(_outage_counts(x, y, requests[j][1])):
            counts[j][c] += got
    return [pair for (ids, _), got in zip(requests, counts) for pair in zip(ids, got)]


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

# a (stream group, batch) job's tuple, future and work item take about 1.8 kB
# on the pool path: 2**19 jobs hold 0.9 GiB before any draw, and more are refused
_MAX_JOBS = 2 ** 19


def estimate_outages(requests, config: McConfig = McConfig(),
                     workers: int | None = None) -> list[McEstimate]:
    """One estimate per (link, which) request, in request order.

    Requests whose links share a stream group share each batch's draw; each
    gets exactly the counts estimate_outage would give its link alone.
    """
    workers = _worker_count(workers)
    requests = list(requests)
    rows = min(config.batch, config.trials)
    streams: dict[tuple, dict] = {}
    for i, (link, which) in enumerate(requests):
        if not isinstance(link, LinkModel):
            raise ValueError(f"requests: (LinkModel, selector) pairs required, got a "
                             f"{type(link).__name__}; build_link_model(params) builds "
                             "the link")
        params = link.params
        if which not in SELECTORS:
            raise ValueError(f"which must be one of {SELECTORS}, got {which!r}")
        if rows * params.n > _MAX_BATCH_AMPLITUDES:
            raise ConfigError(
                f"n, batch: a batch of {rows} draws at n = {params.n} holds "
                f"{rows * params.n} transmitter-hop amplitudes, past the cap of "
                f"{_MAX_BATCH_AMPLITUDES} (1 GiB); lower batch")
        # keys with equal shapes read one Gamma stream whatever their n
        stream = (params.m_bn, params.m_nd,
                  None if params.m_bn == params.m_nd else params.n)
        key = (params.n, link.omega_bn, link.omega_nd)
        ids, counted = streams.setdefault(stream, {}).setdefault(key, ([], []))
        ids.append(i)
        counted.append((link.budget, which))
    per_group = -(-config.trials // config.batch)
    if len(streams) * per_group > _MAX_JOBS:
        raise ConfigError(f"trials, batch: {len(streams)} stream group(s) x "
                          f"{per_group} batches make {len(streams) * per_group} "
                          f"jobs, past the cap of {_MAX_JOBS}; lower trials or "
                          "raise batch")
    sizes = list(enumerate(_batch_sizes(config.trials, config.batch)))
    jobs = [(m_bn, m_nd, keys, config.seed, index, size)
            for (m_bn, m_nd, _), keys in streams.items() for index, size in sizes]
    if workers == 1 or len(jobs) <= 1:
        per_job = [_count_job(*job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_job = list(pool.map(lambda job: _count_job(*job), jobs))
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
    return estimate_outages([(build_link_model(params), which)], config, workers)[0]


def estimate_throughput(params: SystemParams, config: McConfig = McConfig(),
                        workers: int | None = None) -> ThroughputEstimate:
    """Effective rate (1 - outage(exact)) * R with the interval mapped through."""
    est = estimate_outage(params, config, which="exact", workers=workers)
    return ThroughputEstimate(value=throughput(est.p_hat, params.rate),
                              ci_lo=throughput(est.ci_hi, params.rate),
                              ci_hi=throughput(est.ci_lo, params.rate),
                              trials_used=est.trials_used)
