"""Sweep benchmark for risnoise.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the workload's sweep config from the
seed (workloads.py), then runs `risnoise.cli.run_sweep` on it again and
again for about S seconds, spread over CHILDREN fresh interpreters
(sweep_child.py), each of which also times set-up once.  Every CSV is
checked row by row (rowcheck.py).  The last line of standard output is one
JSON object:

  --trace 0   end-to-end metrics: sweep_s, cpu_s (medians over sweeps),
              setup_s, peak_rss_mb (medians over interpreters)
  --trace 1   per-layer metrics (tracer.py), medians over the sweeps of a
              traced interpreter, and trace.overhead_share: their median
              sweep time over that of an untraced interpreter run first

Times in the JSON are at the reference host speed: each is divided by the
host-speed factor probed next to it (calibrate.py), because on a shared
machine the raw times drift with the neighbours' load.  The raw medians
and the factor are printed above the JSON line.  Per-layer times are raw.

Also:
  python3 perfbench/run.py --write-reference   store Monte Carlo counts
  python3 perfbench/selftest.py                smoke-size self-test
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
# Host contention moves single sweeps by tens of percent on a shared
# machine, so a run takes the median of many short sweeps, spread over
# several fresh interpreters that also give several set-up samples.
CHILDREN = 4
MIN_REPS_PER_CHILD = 2
# a run must end within 180 s even when the program has become much slower
RUN_BUDGET_S = 160.0


def import_program() -> None:
    """Put the checkout's sources first on sys.path, or exit non-zero."""
    if not (SRC / "risnoise" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'risnoise'} not found; "
                 "run from the root of a risnoise checkout")
    sys.path.insert(0, str(SRC))
    import risnoise
    if Path(risnoise.__file__).resolve().parent != (SRC / "risnoise").resolve():
        sys.exit(f"error: imported risnoise from {risnoise.__file__}, not {SRC}")


def run_child(config: Path, out_dir: Path, workers: int, trace: bool,
              seconds: float, timeout: float) -> dict | None:
    """Sweeps in one fresh interpreter (sweep_child.py); None if it failed."""
    out_dir.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "RISNOISE_WORKERS")}
    env["PYTHONPATH"] = str(SRC)
    cmd = [sys.executable, str(BENCH_DIR / "sweep_child.py"), str(config),
           str(out_dir), str(workers), "1" if trace else "0", str(seconds),
           str(MIN_REPS_PER_CHILD)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"sweeps timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"sweep failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench(workload: str, seed: int, seconds: float, trace: bool,
          smoke: bool = False) -> dict:
    """Run one workload; the result's keys besides '_report' are printed."""
    import rowcheck
    import workloads

    spec = workloads.WORKLOADS[workload]
    run_dir = OUT_DIR / f"{workload}-{'smoke' if smoke else 'full'}-seed{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    config_path = workloads.write_config(workload, seed, run_dir, smoke)
    config = workloads.make_config(workload, seed, smoke)
    stored = (rowcheck.stored_counts(workload, smoke)
              if seed == workloads.DEFAULT_SEED else None)
    checker = rowcheck.RowChecker(config, stored)
    rows_per_sweep = len(checker.values) * len(checker.names)

    # untraced children only, or one untraced and one traced
    plan = [False, True] if trace else [False] * CHILDREN
    children, broken = [], 0
    t_start = time.perf_counter()
    longest = 0.0
    for j, with_trace in enumerate(plan):
        left = RUN_BUDGET_S - (time.perf_counter() - t_start)
        if j and longest > left:
            break
        t_child = time.perf_counter()
        res = run_child(config_path, run_dir / f"child{j}", spec.workers,
                        with_trace, seconds / len(plan), left)
        longest = max(longest, time.perf_counter() - t_child)
        if res is None:
            broken += 1
        else:
            children.append((with_trace, res))
    plain = [r for t, c in children if not t for r in c["reps"]]
    traced = [r for t, c in children if t for r in c["reps"]]

    checked: dict[str, dict[str, str]] = {}
    failures: dict[str, str] = {}
    failed = broken * MIN_REPS_PER_CHILD * rows_per_sweep
    for rep in plain + traced:
        text = Path(rep["csv"]).read_text(encoding="utf-8")
        if text not in checked:
            checked[text] = checker.check(text)
        failed += len(checked[text])
        failures.update(checked[text])
    attempted = (len(plain) + len(traced) + broken * MIN_REPS_PER_CHILD) \
        * rows_per_sweep
    ok = failed == 0 and bool(plain) and (bool(traced) or not trace)

    def at_reference_speed(reps, key):
        return statistics.median(r[key] / r["host"] for r in reps)

    metrics = {}
    if plain and not trace:
        metrics["sweep_s"] = at_reference_speed(plain, "sweep_s")
        metrics["cpu_s"] = at_reference_speed(plain, "cpu_s")
        metrics["setup_s"] = statistics.median(c["setup_s"] / c["setup_host"]
                                               for _, c in children)
        metrics["peak_rss_mb"] = statistics.median(c["peak_rss_mb"]
                                                   for _, c in children)
    elif plain and traced:
        for name in traced[0]["layers"]:
            metrics[name] = statistics.median(r["layers"][name] for r in traced)
        metrics["trace.overhead_share"] = (at_reference_speed(traced, "sweep_s")
                                           / at_reference_speed(plain, "sweep_s"))
    raw = {}
    if plain:
        raw = {"sweep_s": statistics.median(r["sweep_s"] for r in plain),
               "cpu_s": statistics.median(r["cpu_s"] for r in plain),
               "setup_s": statistics.median(c["setup_s"] for _, c in children),
               "host_factor": statistics.median(r["host"] for r in plain)}
    return {
        "correct": ok, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        "_report": {"crashed": broken, "failures": failures, "raw": raw,
                    "plain": plain, "traced": traced},
    }


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_share") or name.endswith("per_call"):
        return "share"
    if name.endswith("dps_mean"):
        return "digits"
    return "count"


def print_result(result: dict) -> None:
    report = result.pop("_report")
    print(f"sweeps: {len(report['plain'])} untraced, "
          f"{len(report['traced'])} traced, {report['crashed']} crashed")
    share = result["failed"] / result["attempted"]
    print(f"failed_row_share = {share:.6g} share "
          f"({result['failed']} of {result['attempted']} rows)")
    for key, reason in sorted(report["failures"].items())[:20]:
        print(f"  failed row {key}: {reason}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, value in report["raw"].items():
        print(f"raw {name} = {value:.6g}")
    for res in report["traced"]:
        print(f"traced sweep accounted share = {res['accounted_share']:.6f}")
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    import_program()
    sys.path.insert(0, str(BENCH_DIR))
    if args.write_reference:
        import rowcheck
        rowcheck.write_reference()
        return 0
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    if not 0 <= seed < 2 ** 64:
        parser.error("--seed must fit in 64 unsigned bits")
    print_result(bench(args.workload, seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
