"""Timed sweeps in a fresh interpreter; prints one JSON object.

  python3 sweep_child.py CONFIG OUT_DIR WORKERS TRACE SECONDS MIN_REPS

The first thing timed is set-up: importing risnoise.cli and load_grid on
the config, which every `risnoise sweep` pays before any work.  Then
run_sweep runs again and again, writing OUT_DIR/repN.csv, for about
SECONDS and at least MIN_REPS times; each sweep is timed in wall and
process CPU seconds, with the host-speed factor (calibrate.py) probed
before and after it; set-up gets the factor probed right after it.  Peak
RSS covers the whole process.  With TRACE=1
every sweep runs under a fresh tracer, the per-layer metrics of each sweep
are reported and all spans are written to OUT_DIR/spans.jsonl at exit.
"""
import sys
import time

t0 = time.perf_counter()
import risnoise.cli as cli  # noqa: E402

config, out_dir, workers, trace, seconds, min_reps = sys.argv[1:7]
cli.load_grid(config)
setup_s = time.perf_counter() - t0

import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import host_factor  # noqa: E402
from tracer import Tracer, accounted_share, layer_metrics  # noqa: E402

setup_host = host_factor()

workers, seconds, min_reps = int(workers), float(seconds), int(min_reps)
out = Path(out_dir)
reps, tracers = [], []
t_end = time.perf_counter() + seconds
# start another sweep only while at least half of it fits in the budget
while len(reps) < min_reps or \
        time.perf_counter() + 0.5 * reps[-1]["sweep_s"] < t_end:
    csv_path = str(out / f"rep{len(reps)}.csv")
    tracer = Tracer() if trace == "1" else None
    host_before = host_factor(workers)
    c0 = time.process_time()
    w0 = time.perf_counter()
    if tracer is None:
        rows = cli.run_sweep(config, csv_path, workers=workers)
    else:
        tracer.install()
        try:
            with tracer.span("run_sweep", "cli") as root:
                rows = cli.run_sweep(config, csv_path, workers=workers)
        finally:
            tracer.uninstall()
    rep = {"csv": csv_path, "rows": rows,
           "sweep_s": time.perf_counter() - w0,
           "cpu_s": time.process_time() - c0}
    rep["host"] = 0.5 * (host_before + host_factor(workers))
    if tracer is not None:
        rep["layers"] = layer_metrics(tracer.spans, root, workers)
        rep["accounted_share"] = accounted_share(rep["layers"], root.duration,
                                                 workers)
        tracers.append(tracer)
    reps.append(rep)

for i, tracer in enumerate(tracers):
    tracer.write(out / "spans.jsonl", append=i > 0)

print(json.dumps({
    "setup_s": setup_s,
    "setup_host": setup_host,
    # ru_maxrss is in KiB on Linux
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "reps": reps,
}))
