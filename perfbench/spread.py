"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

  python3 perfbench/spread.py --seeds 10 --seconds 24 [--workloads a,b] \
      [--out perfbench/baseline.json]

Runs run.py once per seed (1..N) on each workload with tracing off, then
reports per metric the median and the distance between the first and
third quartile (statistics.quantiles(values, n=4)) as a share of the
median.  With --out, writes that together with the machine (nproc and the
Python, numpy, scipy and mpmath versions), one traced run per workload and
the row check of the known-bad -80 dBW point (selftest.defect_rows).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # run.py prints the raw medians as "raw <name> = <value>"
    result["raw"] = {line.split()[1]: float(line.split()[3])
                     for line in lines if line.startswith("raw ")}
    return result


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med, "values": values}


def machine() -> dict:
    import mpmath
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__, "machine": platform.machine()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    sys.path.insert(0, str(BENCH_DIR))
    import workloads
    names = args.workloads.split(",") if args.workloads else list(workloads.WORKLOADS)
    record = {"machine": machine(), "seconds": args.seconds,
              "seeds": list(range(1, args.seeds + 1)), "workloads": {}}
    for name in names:
        runs = []
        for seed in record["seeds"]:
            res = run_once(name, seed, args.seconds, 0)
            runs.append(res)
            print(name, seed, res["correct"], res["failed"],
                  {k: round(v["value"], 4) for k, v in res["metrics"].items()},
                  flush=True)
        entry = {"why": workloads.WORKLOADS[name].why,
                 "all_correct": all(r["correct"] for r in runs),
                 "failed_row_share": sum(r["failed"] for r in runs)
                 / sum(r["attempted"] for r in runs),
                 "metrics": {}}
        for metric in runs[0]["metrics"]:
            entry["metrics"][metric] = summarize(
                [r["metrics"][metric]["value"] for r in runs])
        for metric in runs[0]["raw"]:
            entry["metrics"]["raw " + metric] = summarize(
                [r["raw"][metric] for r in runs])
        for metric, s in entry["metrics"].items():
            print(f"  {metric}: median {s['median']:.4g} "
                  f"iqr/median {s['iqr_share']:.4f}", flush=True)
        if args.out:
            entry["traced"] = run_once(name, record["seeds"][0], args.seconds, 1)
        record["workloads"][name] = entry
    if args.out:
        import selftest
        selftest.run.import_program()
        record["known_defects"] = selftest.defect_rows()
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
