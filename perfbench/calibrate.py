"""Host-speed probe timed next to every sweep.

On a shared machine the speed of a core drifts by tens of percent within
seconds and by up to half over tens of minutes, while process CPU time
stays equal to wall time: neighbours slow the core down rather than take
it away.  Raw sweep times then measure the neighbours as much as the
program.  The probe is a fixed fill of numpy gamma draws into buffers
allocated once, none of it risnoise code, so its time moves with the host
and never with the program.  It runs on as many threads at once as the
sweep has workers, so that it sees the cores the sweep uses.

host_factor() is the probe's time over its reference time; a sweep time
divided by the factor taken next to it is the time at the reference host
speed.
"""
from __future__ import annotations

import statistics
import threading
import time

import numpy as np

# probe seconds at the reference host speed: about the median on the
# machine the baseline was recorded on, in its faster state
REFERENCE_S = 0.013

_SIZE = 300_000
_buffers: list[np.ndarray] = []


def _probe(index: int, times: list) -> None:
    rng = np.random.Generator(np.random.Philox(key=np.array([0, index], dtype=np.uint64)))
    t0 = time.perf_counter()
    rng.standard_gamma(2.0, out=_buffers[index])
    times[index] = time.perf_counter() - t0


def host_factor(threads: int = 1, repeats: int = 5) -> float:
    """Median probe time, averaged over threads, over the reference time."""
    while len(_buffers) < threads:
        # filled in place, so the probe's time does not depend on what the
        # allocator and the page tables were left with by the sweep before
        _buffers.append(np.zeros(_SIZE))
    samples = []
    for _ in range(repeats):
        times = [0.0] * threads
        pool = [threading.Thread(target=_probe, args=(i, times))
                for i in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        samples.append(statistics.fmean(times))
    return statistics.median(samples) / REFERENCE_S
