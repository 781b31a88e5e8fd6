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

One running batch holds about batch*n*8 bytes per job: the transmitter-hop
amplitudes in full, while the receiver hop streams through blocks of about
2**16 amplitudes.  The job reduces and counts every block in two scratch
arrays of one block (1 MiB), reused block after block.
A helper drawing ahead for the job holds two pieces of about 2**18 Gamma
variates of its own, never the stream (a batch of 100,000 at n = 64 peaks
at 1.2x the one hop on 2 workers, against 1.05x on 1).  estimate_outages
refuses a key whose batch would pass 1 GiB, and a plan of over 2**19 jobs.
Block and piece sizes, unlike the batch size, are not part of the seeding
contract: they change no drawn bit.

estimate_outages takes (link, selector) requests on outage.LinkModel links
and groups them by fading key (what the draws depend on: n, the two shapes
and the two hop powers).  Every key reads batch `index` from the same
stream, and key n's draw is its first 2*batch*n Gamma variates, scaled per
hop; so keys with equal shapes read one stream whatever their n, and keys
with unequal shapes one stream per n.  A stream group is the keys that read
one stream at one transmitter-hop power.  Each (stream group, batch index)
job draws that stream once, as far as its largest key needs, and counts
every request of every key against its link's noise budget.  These jobs
are the only parallel work in the package, run by RISNOISE_WORKERS threads
(default 1).  A plan of fewer jobs than threads gives the threads it leaves
idle (up to the CPUs the process may use) to its jobs as helpers, which
draw later pieces of the job's stream from guessed Philox positions; the
job stitches them in bit for bit (_gamma_stream), so the drawn bits and
the generator's final state are those of one sequential fill whatever the
helper count.  At equal shapes one plan covers the job's whole stream, so
the helpers draw on past the transmitter hop.  Helpers only draw: every
block is reduced and counted on its job's own thread.  No more threads
than RISNOISE_WORKERS run at once.  estimate_outage builds its link before
any draw.

Counting follows the draw block by block, so no X or Y array of batch
length is held.  The transmitter hop's amplitudes are formed once per job:
the head is scaled and rooted in place, each key's |g_bn| rows before any
block reads them, and every block reads its |g_bn| rows from it; a block
forms only its |g_nd| amplitudes, and sums its rows column by column in
numpy's own order (_row_sums), so X and Y keep every bit at any n.  Per
block it checks X, Y >= 0 once, forms lam*Y once per distinct lam (lam
does not depend on the transmit power, so a power axis shares it), and per
request forms only the selected SINR and counts the draws below the
threshold; the block counts add up to the batch count.  sinr_exact and
sinr_bounds are the same check and the same SINR helper over whole arrays.
"""
from __future__ import annotations

import math
import operator
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import fading, noise
from .noise import NoiseBudget, SystemParams, hop_powers
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

# Gamma variates per piece of a stream that one thread draws; like the
# block size, pieces change no drawn bit
_PIECE = 2 ** 18
# variates the calling thread draws alone before helpers start, in parts
# whose raw counts measure the mean and the spread of the Philox raws a
# variate takes at the stream's shape
_PILOT = 2 ** 14
_PILOT_PARTS = 32
# pieces each helper keeps in hand, so that it never waits on the caller
_IN_HAND = 2
# raws a helper starts before its guessed point beyond what the guess may
# miss: a chain started mid-variate joins the exact one within about a
# thousand raws (1,113 at most in a probe of 10,500 starts at shapes 0.5 to
# 1e4, and over 830 in 0.1 % of them)
_SLACK_RAWS = 1536
# the exact chain's last variates, matched in a helper's draw
_MATCH = 4

# perfbench/tracer.py wraps the sampler under this module's name; batches
# draw through _gamma_stream, so its spans read 0
sample_nakagami = fading.sample_nakagami


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


def _raw_position(state) -> int:
    # Philox raws drawn before this state: the counter names the last block
    # of 4 raws generated, and buffer_pos the raws of it already used
    counter = sum(int(word) << 64 * i for i, word in enumerate(state["state"]["counter"]))
    return 4 * (counter - 1) + state["buffer_pos"]


def _same_state(a, b) -> bool:
    # full bit_generator.state equality: counter, key, buffer and flags
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return a.tobytes() == b.tobytes()
    return a == b


def _gamma_stream(rng: np.random.Generator, shape: float, count: int, out=None,
                  pool=None, helpers: int = 0, block: int = _BLOCK_AMPLITUDES):
    """Yield rng's next count Gamma(shape) variates in consecutive pieces.

    The pieces hold the bits of rng.standard_gamma(shape, count), and the
    generator is left where that call leaves it.  The first out.size
    variates (none when out is None; out.size <= count) fill out, which
    comes once, whole, as the first piece, when it is full; the rest come
    as fresh arrays, and no buffer is reused, so a piece stays valid after
    the next is drawn.  Without helpers, out is drawn in place in one
    call, and fresh pieces are `block` variates long.  Returns (stitched,
    fallbacks): the helper pieces used and those the calling thread drew
    again.

    With helpers > 0 (rng must be a Philox generator; pool runs the
    helpers' draws) and more than _PILOT variates to draw, the calling
    thread draws a pilot of _PILOT variates, which measures the mean and
    the spread of the raws a variate takes at this shape.  One plan then
    covers the whole run: each helper keeps _IN_HAND pieces of _PIECE
    variates in hand, each drawn from a raw guessed from that rate and
    started early enough to join the exact chain first.  Of the pieces
    that start inside out the calling thread draws one in every
    helpers + 1, and of those past it one in every 2*(helpers + 1), as its
    time then also goes to what is done with each piece.  Once the plan
    has no helper piece left to submit it plans no more, and the calling
    thread draws the rest of the run past the pieces already submitted.
    Helpers only draw; every piece is yielded on the calling thread.

    A helper piece is used from the first point where both chains reach
    the same full generator state: a value match of the exact chain's last
    _MATCH variates names the candidate point, and the helper's prefix up
    to it, drawn again from its start, must leave the exact state.  The
    chain then continues from the helper's final state.  A piece with no
    such point, or one that would run past count, is drawn by the calling
    thread.
    """
    filled = 0 if out is None else out.size
    done = stitched = fallbacks = 0

    def own(stop):
        # the calling thread's draw up to stop, in place where it falls in out
        piece = out[done:stop] if stop <= filled else np.empty(stop - done)
        rng.standard_gamma(shape, out=piece)
        return piece

    def place(piece):
        # piece continues the stream from done: the parts it yields, out
        # once this piece fills it (its head copied there unless drawn
        # there), then what lies past out
        nonlocal done
        cut = min(piece.size, max(0, filled - done))
        if cut and not np.may_share_memory(out[done:done + cut], piece):
            out[done:done + cut] = piece[:cut]
        done += piece.size
        full = [out] if cut and done >= filled else []
        return full + ([piece[cut:]] if cut < piece.size else [])

    if not helpers or count <= _PILOT:
        while done < count:
            yield from place(own(filled if done < filled else min(count, done + block)))
        return stitched, fallbacks
    bits = rng.bit_generator
    key = bits.state["state"]["key"]
    marks = [_raw_position(bits.state)]
    piece = out[:_PILOT] if filled >= _PILOT else np.empty(_PILOT)
    for part in np.array_split(piece, _PILOT_PARTS):
        rng.standard_gamma(shape, out=part)
        marks.append(_raw_position(bits.state))
    # a variate's raw count: its standard deviation from the parts' counts,
    # no less than 0.1 (about 0.3 at shape 2 and 0.8 at 0.5)
    sigma = max(0.1, float(np.std(np.diff(marks), ddof=1)) / math.sqrt(_PILOT / _PILOT_PARTS))

    def draw_ahead(skip, size):
        # size variates of the stream from raw 4*skip on, with the
        # generator states before and after them
        gen = np.random.Generator(np.random.Philox(key=key).advance(skip))
        start = gen.bit_generator.state
        return start, gen.standard_gamma(shape, size=size), gen.bit_generator.state

    redo = np.random.Generator(np.random.Philox(key=key))

    def join(start, drawn, early):
        # where the helper's draw joins the exact chain, or None: about
        # `early` variates in, and at most twice that, as it was planned
        hits = np.flatnonzero(drawn[:2 * early + 1] == recent[0])
        for at in hits + recent.size:
            if np.array_equal(drawn[at - recent.size:at], recent):
                redo.bit_generator.state = start
                redo.standard_gamma(shape, size=at)
                return at if _same_state(redo.bit_generator.state, bits.state) else None
        return None

    pending = deque()   # the pieces after `done`: None for the caller's, else (early, job)
    planned = 0
    frontier = miss = 0   # where the next piece to plan starts, and by how many raws it may miss
    closed = False        # no helper piece is left to plan

    def plan():
        # top up the helpers' pieces in hand, guessed from the exact state
        nonlocal planned, frontier, miss, closed
        if closed:
            return
        here = _raw_position(bits.state)
        rate = (here - marks[0]) / done
        if not pending:
            frontier, miss = done, 0.0
        while len(pending) - pending.count(None) < _IN_HAND * helpers:
            if count - frontier < _PILOT:
                break
            if planned % ((helpers + 1) * (1 if frontier < filled else 2)) == 0:
                pending.append(None)
                frontier += _PIECE
            else:
                # the guess may miss by six standard deviations of the raws
                # of `ahead` variates, plus `ahead` times six of the rate's
                # own error.  Start early by that and by what the piece before
                # may miss, as independent errors; a piece ends where it was
                # planned to, but the last one stops short of count by more
                # than it may miss
                ahead = frontier - done
                spread = 6 * sigma * (math.sqrt(ahead) + ahead / math.sqrt(done))
                back = _SLACK_RAWS + math.hypot(miss, spread)
                covered = min(_PIECE, count - frontier - int((back - _SLACK_RAWS / 2) / rate))
                if covered < _PILOT:   # the calling thread draws the rest
                    break
                skip = max(0, int(here + ahead * rate - back) // 4)   # Philox blocks of 4 raws
                early = int(back / rate)
                pending.append((early, pool.submit(draw_ahead, skip, covered + early)))
                frontier += covered
                miss = spread
            planned += 1
        else:
            return
        closed = True

    # a copy: the consumer may overwrite out once it holds it
    recent = piece[-_MATCH:].copy()
    parts = place(piece)
    while True:
        plan()
        yield from parts
        if done == count:
            return stitched, fallbacks
        entry, piece = pending.popleft() if pending else None, None
        if entry is not None:
            early, job = entry
            start, drawn, end = job.result()
            at = join(start, drawn, early)
            if at is None or done + drawn.size - at > count:
                fallbacks += 1
            else:
                stitched += 1
                bits.state = end
                piece = drawn[at:]
        if piece is None:
            piece = own(min(count, done + _PIECE))
        recent = np.concatenate((recent, piece[-_MATCH:]))[-_MATCH:]
        parts = place(piece)


def _row_sums(m):
    """m.sum(axis=1) of a 2-d float64 array m, bit for bit, summed column by
    column in the order of numpy's pairwise sum of each row: under 8 terms
    in order from 0.0; up to 128, eight running sums over the whole blocks
    of 8, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the terms
    left over in order; past 128, the sums of two halves split at a
    multiple of 8.  numpy adds the row's sum to 0.0, which only makes a
    -0.0 sum +0.0 (a zero's sign changes no other sum).

    The drawer's one row sum, at every n.  Per block of 2**16 amplitudes on
    one core of a Xeon host with numpy 2.4 it beats numpy's per-row loop up
    to about 27 terms (61 against 90 us at n = 16) and loses past it (91,
    119 and 167 against 52, 31 and 22 us at n = 32, 64 and 128: about 2, 5
    and 8 % of the Monte Carlo time there); no preset draws past n = 20."""
    n = m.shape[1]
    if n < 8:
        s = m[:, 0] + 0.0
        for c in range(1, n):
            s += m[:, c]
        return s
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _row_sums(m[:, :half]) + _row_sums(m[:, half:])
    whole = n - n % 8
    r = [m[:, c] for c in range(8)]
    for at in range(8, whole, 8):
        r = [part + m[:, at + c] for c, part in enumerate(r)]
    s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for c in range(whole, n):
        s += m[:, c]
    s += 0.0
    return s


def _stream_blocks(rng: np.random.Generator, m_bn: float, m_nd: float, omega_bn: float,
                   keys, size: int, pool=None, helpers: int = 0):
    """Yield (j, rows, x, y): X and Y over a block of rows of keys[j].

    keys are (n, omega_nd) pairs that read one stream at the transmitter-hop
    power omega_bn: key j's |g_bn| rows are Gamma(m_bn) variates 0 to
    size*n - 1, scaled by omega_bn/m_bn and rooted, and its |g_nd| rows the
    Gamma(m_nd) variates size*n to 2*size*n - 1.  So the keys must share
    their shapes, and their n too unless m_bn == m_nd.  The stream is drawn
    once, to 2*size*n_max, through _gamma_stream (pool and helpers go to
    it): at equal shapes in one run, whose one plan lets the helpers draw
    past the head while the calling thread finishes it, else in a run per
    shape.  Its first piece is the head of size*n_max variates, filled in
    place: every |g_bn| row, and at equal shapes the |g_nd| rows of each key
    with 2n <= n_max.  Every key in increasing n takes its |g_nd| variates
    in each piece through one step: it completes the row its last piece
    left partial, reduces its whole rows in blocks of about
    _BLOCK_AMPLITUDES on the calling thread (in two scratch arrays of one
    block, every row summed with _row_sums), and copies what is left as the
    next partial row.  In the head's step each key first roots the head in
    place up to size*n: its own |g_bn| rows, and the |g_nd| rows of the
    smaller keys, reduced by then.  So every block reads its |g_bn|
    amplitudes from the head.
    """
    n_max = max(n for n, _ in keys)
    head = np.empty(size * n_max)
    steps = [max(1, _BLOCK_AMPLITUDES // n) * n for n, _ in keys]   # whole rows per block
    scratch = np.empty(max(steps)), np.empty(max(steps))
    # per key: |g_nd| rows reduced, and the partial row after them
    done, carry = [0] * len(keys), [head[:0]] * len(keys)

    def blocks(j, w_nd):
        # whole rows of key j after its done[j], in blocks; omega/m * w,
        # rooted, gives the bits of fading.sample_nakagami's draw
        n, om_nd = keys[j]
        for at in range(0, w_nd.size, steps[j]):
            w = w_nd[at:at + steps[j]]
            rows = slice(done[j], done[j] + w.size // n)
            done[j] = rows.stop
            a, b = (buffer[:w.size].reshape(-1, n) for buffer in scratch)
            np.sqrt(np.multiply(w.reshape(-1, n), om_nd / m_nd, out=b), out=b)
            g_bn = head[rows.start * n:rows.stop * n].reshape(-1, n)
            d = _row_sums(np.multiply(g_bn, b, out=a))
            yield j, rows, d * d, _row_sums(np.multiply(b, b, out=b))

    def step(j, w):
        # key j's next |g_nd| variates w: the partial row, then whole rows
        n = keys[j][0]
        if carry[j].size:
            fill = n - carry[j].size
            row, w = np.concatenate((carry[j], w[:fill])), w[fill:]
            if row.size < n:
                carry[j] = row
                return
            yield from blocks(j, row)
        whole = w.size // n * n
        yield from blocks(j, w[:whole])
        carry[j] = w[whole:].copy()

    # one run at equal shapes; else the head at m_bn, then the tail at m_nd
    runs = ([(m_bn, 2 * head.size, head)] if m_bn == m_nd else
            [(m_bn, head.size, head), (m_nd, head.size, None)])
    chunk = max(1, _BLOCK_AMPLITUDES // n_max) * n_max   # whole rows of the largest key
    order = sorted(range(len(keys)), key=lambda j: keys[j][0])
    pos = rooted = 0
    pieces = (w for shape, length, out in runs
              for w in _gamma_stream(rng, shape, length, out, pool, helpers, chunk))
    for w in pieces:
        for j in order:
            start = size * keys[j][0]
            if rooted < start:   # only in the head: the transmitter hop, once per job
                part = head[rooted:start]
                np.sqrt(np.multiply(part, omega_bn / m_bn, out=part), out=part)
                rooted = start
            yield from step(j, w[max(0, start - pos):max(0, 2 * start - pos)])
        pos += w.size


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
    omega_bn, omega_nd = hop_powers(params)
    for _, rows, xb, yb in _stream_blocks(rng, params.m_bn, params.m_nd, omega_bn,
                                          [(params.n, omega_nd)], k):
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


def _count_job(m_bn: float, m_nd: float, omega_bn: float, keys: dict, seed: int,
               index: int, size: int, pool=None, helpers: int = 0) -> list[tuple[int, int]]:
    # batch `index` of one stream group, drawn once for all its fading keys
    # (with `helpers` drawing ahead on pool); keys maps (n, omega_nd) to its
    # request indices and their (budget, which) pairs.  Returns (request,
    # outage count) pairs.
    requests = list(keys.values())
    counts = [[0] * len(ids) for ids, _ in requests]
    for j, _, x, y in _stream_blocks(_batch_rng(seed, index), m_bn, m_nd, omega_bn,
                                     list(keys), size, pool, helpers):
        for c, k in enumerate(_outage_counts(x, y, requests[j][1])):
            counts[j][c] += k
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


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


def _helper_plan(workers: int, jobs: int) -> list[int]:
    """Helpers per job: the threads a plan of `jobs` jobs leaves idle.

    Of min(workers, usable CPUs) threads, one per job; the rest are shared
    out, the first jobs taking one more where they do not divide evenly.
    """
    spare = max(0, min(workers, _usable_cpus()) - jobs)
    return [spare // jobs + (j < spare % jobs) for j in range(jobs)]


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
    if not requests:
        # no plan, so no pool and no read of the CPU affinity
        return []
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
        # keys with equal shapes read one Gamma stream whatever their n; a
        # job roots one transmitter hop
        stream = (params.m_bn, params.m_nd, link.omega_bn,
                  None if params.m_bn == params.m_nd else params.n)
        key = (params.n, link.omega_nd)
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
    jobs = [(m_bn, m_nd, omega_bn, keys, config.seed, index, size)
            for (m_bn, m_nd, omega_bn, _), keys in streams.items() for index, size in sizes]
    helpers = _helper_plan(workers, len(jobs))
    # one job runs on this thread, and its helpers on the pool; more jobs
    # run on the pool, with their helpers beside them
    alone = workers == 1 or len(jobs) <= 1
    with ThreadPoolExecutor(max_workers=max(1, sum(helpers) if alone else workers)) as pool:
        run = lambda job, extra: _count_job(*job, pool, extra)
        per_job = list(map(run, jobs, helpers) if alone else pool.map(run, jobs, helpers))
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
