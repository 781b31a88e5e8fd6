"""Self-test of the benchmark at smoke size.

  python3 perfbench/selftest.py

Checks, printing one PASS/FAIL line each and exiting non-zero on a FAIL:
  * every workload runs at smoke size, its rows all pass, and it reports
    every end-to-end and per-layer metric named in BENCHMARK.json, with
    the unit given there;
  * the traced layers account for the traced sweep time, and
    mcsim.redraw_share equals (E - 1)/E per fading key, where E is the
    number of Monte Carlo estimates sharing the key;
  * the row checker flags the known-bad analytic_lb row at n=10, 2 m,
    -80 dBW (the series route returns 0.99987 where the oracle gives
    0.9999999999994) against the oracle, and not the one at -79 dBW;
  * the row checker flags a Monte Carlo count tampered by one;
  * run.py exits non-zero, printing no result, in a directory that holds
    only BENCHMARK.json and the benchmark's own files.
"""
from __future__ import annotations

import csv
import io
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import yaml

import run

ROOT = run.BENCH_DIR.parent


def expected_redraw_share(config: dict) -> float:
    """(E - 1)/E pooled over fading keys, one draw per estimate and batch."""
    import rowcheck
    per_point = sum(m.startswith("mc_") for m in config["modes"]) \
        * (2 if "noiseless_variant" in config["modes"] else 1)
    # in these workloads only the element count changes the fading key
    keys = Counter(rowcheck.params_at(config, v).n
                   for v in rowcheck.grid_values(config))
    draws = sum(e * per_point for e in keys.values())
    return (draws - len(keys)) / draws if draws else 0.0


def defect_rows() -> dict:
    """Check the sweep at the known-bad -80 dBW point and its neighbour."""
    import rowcheck
    from risnoise.cli import run_sweep
    config = {"axis": "transmit_power_dBW", "start": -80.0, "stop": -79.0,
              "points": 2, "fixed": {"n": 10, "d_nd": 2.0},
              "modes": ["analytic_lb"], "seed": 1}
    out = run.OUT_DIR / "selftest"
    out.mkdir(parents=True, exist_ok=True)
    path = out / "defect.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    run_sweep(str(path), str(out / "defect.csv"), workers=1)
    failures = rowcheck.RowChecker(config).check(
        (out / "defect.csv").read_text(encoding="utf-8"))
    return {"config": config, "rows": 2, "failed": len(failures),
            "failures": failures}


def tamper_mc_count(text: str, trials: int, rate: float) -> str:
    """Add one outage to the first mc_exact row below 1.

    Every invariant between rows still holds, so only the reference count
    can catch it.
    """
    rows = list(csv.reader(io.StringIO(text)))
    for row in rows[1:]:
        if row[1] == "mc_exact" and float(row[2]) < 1.0:
            p = (round(float(row[2]) * trials) + 1) / trials
            row[2], row[5] = format(p, ".10g"), format((1.0 - p) * rate, ".10g")
            break
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def main() -> int:
    run.import_program()
    import rowcheck
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    results = []

    def check(name, ok, detail=""):
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""),
              flush=True)

    seed = workloads.DEFAULT_SEED
    for name in workloads.WORKLOADS:
        plain = run.bench(name, seed, 0, False, smoke=True)
        check(f"{name} rows", plain["correct"],
              f"{plain['failed']} of {plain['attempted']} rows failed "
              f"{sorted(plain['_report']['failures'].items())[:3]}")
        missing = end_to_end - set(plain["metrics"])
        check(f"{name} end-to-end metrics", not missing, f"missing {sorted(missing)}")
        traced = run.bench(name, seed, 0, True, smoke=True)
        missing = per_layer - set(traced["metrics"])
        check(f"{name} per-layer metrics", traced["correct"] and not missing,
              f"missing {sorted(missing)}")
        wrong = sorted(k for res in (plain, traced) for k, m in res["metrics"].items()
                       if m["unit"] != units.get(k))
        check(f"{name} units as in BENCHMARK.json", not wrong, f"differ: {wrong}")
        shares = [r["accounted_share"] for r in traced["_report"]["traced"]]
        check(f"{name} layer accounting",
              all(abs(s - 1.0) < 1e-6 for s in shares), f"accounted {shares}")
        config = workloads.make_config(name, seed, smoke=True)
        want = expected_redraw_share(config)
        got = traced["metrics"]["mcsim.redraw_share"]["value"]
        check(f"{name} redraw share", abs(got - want) < 1e-12,
              f"{got:.6f} vs expected {want:.6f}")

    stored = rowcheck.stored_counts("power_sweep_mc_2w", smoke=True)
    config = workloads.make_config("power_sweep_mc_2w", seed, smoke=True)
    check("stored Monte Carlo counts match a fresh independent draw",
          stored == rowcheck.mc_counts(config))

    defect = defect_rows()
    # the -79 dBW row is right but, after the wrong -80 dBW one, reads as a
    # rise with power
    check("known-bad -80 dBW analytic_lb row is flagged",
          "oracle" in defect["failures"].get("-80|analytic_lb", "")
          and "oracle" not in defect["failures"].get("-79|analytic_lb", ""),
          f"failures {defect['failures']}")

    run_dir = run.OUT_DIR / f"power_sweep_mc_2w-smoke-seed{seed}"
    text = (run_dir / "child0" / "rep0.csv").read_text(encoding="utf-8")
    rate = rowcheck.params_at(config, config["start"]).rate
    tampered = tamper_mc_count(text, config["trials"], rate)
    checker = rowcheck.RowChecker(config)
    bad = checker.check(tampered)
    check("tampered Monte Carlo count is flagged",
          not checker.check(text) and len(bad) == 1
          and "reference count" in next(iter(bad.values())), f"{bad}")

    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        spec["command"] + ["--workload", "power_sweep_analytic", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    check("run.py without the program exits non-zero with no result",
          proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"exit {proc.returncode}, stderr {proc.stderr.strip()[-200:]!r}")
    shutil.rmtree(bare)

    print(f"{sum(results)}/{len(results)} checks passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
