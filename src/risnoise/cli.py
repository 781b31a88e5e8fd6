"""Command-line front end: reference table, sweeps, self-checks, presets.

Sweep configs are YAML mappings; every Table I value is a default, so an
empty config runs the baseline system.  Power enters in dBW at this
boundary and is converted to watts immediately; everything below works in
linear units.  CSV output is UTF-8 with LF line endings and a fixed header:

  axis_value,mode,outage,ci_lo,ci_hi,throughput,lambda,delta,zeta,reliability_flag

ci_lo/ci_hi are empty for analytic rows.  Re-running the same config with
the same seed writes byte-identical output.
"""
from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import dataclass, field, fields as dc_fields, replace
from importlib import resources

import numpy as np
import yaml

from . import noise
from .mcsim import (
    ConfigError,
    McConfig,
    draw_realization,
    estimate_outage,
    estimate_outages,
    sinr_bounds,
    sinr_exact,
)
from .noise import (
    REFERENCE_NOISE_TABLE_DBW,
    SystemParams,
    build_noise_budget,
    db_from_watts,
    receiver_noise_power,
    table2,
    watts_from_db,
)
from .outage import (
    ANALYTIC_MODES,
    build_link_model,
    outage_report,
    outage_reports,
    reliability_flag,
    throughput as map_throughput,
    xi1,
    xi1_closed,
    xi1_oracle,
)
from . import specfun

CSV_HEADER = ("axis_value", "mode", "outage", "ci_lo", "ci_hi", "throughput",
              "lambda", "delta", "zeta", "reliability_flag")

MC_MODES = ("mc_exact", "mc_lb", "mc_ub")
ALL_MODES = ANALYTIC_MODES + MC_MODES + ("noiseless_variant",)

# the SystemParams field (or pb_dbw, the transmit power in dBW) each axis sets
AXIS_FIELDS = {
    "transmit_power_dBW": "pb_dbw",
    "ris_receiver_distance_m": "d_nd",
    "element_count": "n",
    "reflection_factor": "alpha",
}

# validate() tolerance for the reference noise grid: the published values
# were tabulated with the legacy two-digit Boltzmann constant, which sits
# 2.04e-3 dB below the SI value used here, so the gate must clear that
# systematic offset while still catching any real regression (a 1% fault
# in the constant moves the grid by 43x this tolerance).
TABLE2_TOL_DB = 2.5e-3

_PARAM_FIELDS = {f.name for f in dc_fields(SystemParams)}


@dataclass(frozen=True)
class SweepGrid:
    """A sweep config: its fields are the config keys, with their defaults."""
    axis: str = "transmit_power_dBW"
    start: float = -80.0
    stop: float = -50.0
    points: int = 31
    fixed: dict = field(default_factory=dict)
    modes: tuple = ("analytic_lb",)
    trials: int = McConfig.trials
    seed: int = 20240817
    batch: int = McConfig.batch
    ci_level: float = McConfig.ci_level
    description: str = ""

    @property
    def mc_config(self) -> McConfig:
        return McConfig(self.trials, self.seed, self.batch, self.ci_level)


# libyaml's parser where PyYAML was built with it; the constructor and the
# resolver are yaml.safe_load's either way
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# YAML 1.1 reads a float only with a dot and a signed exponent, or none
_TEXT_NUMBER_HINT = (" (YAML reads 1e6 and 1.0e6 as text: write 1.0e+6, "
                     "or 1000000 for an integer)")


def _preset_dir():
    return resources.files("risnoise") / "presets"


def list_presets() -> list[tuple[str, str]]:
    """(name, description) pairs for the bundled sweep configs."""
    out = []
    for entry in sorted(_preset_dir().iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".yaml"):
            data = yaml.load(entry.read_text(encoding="utf-8"),
                             Loader=_YAML_LOADER) or {}
            out.append((entry.name[:-5], str(data.get("description", ""))))
    return out


def _resolve_config(path_or_name: str) -> str:
    if os.path.exists(path_or_name):
        return path_or_name
    candidate = _preset_dir() / f"{path_or_name}.yaml"
    if candidate.is_file():
        return str(candidate)
    names = ", ".join(name for name, _ in list_presets())
    raise ConfigError(f"no config file or preset named {path_or_name!r} "
                      f"(presets: {names})")


def load_grid(path_or_name: str, *, seed: int | None = None,
              trials: int | None = None,
              modes: tuple[str, ...] | None = None) -> SweepGrid:
    """Parse and cross-check a sweep config, collecting every problem."""
    path = _resolve_config(path_or_name)
    with open(path, encoding="utf-8") as fh:
        try:
            raw = yaml.load(fh, Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            # the YAML parser reports line/column marks for syntax errors
            raise ConfigError(f"{path}: {exc}") from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")

    # the schema's defaults, then the config, then the overrides
    values = dict(vars(SweepGrid()))
    problems = []
    for key in sorted(raw, key=str):
        if key in values:
            values[key] = raw[key]
        else:
            problems.append(f"unknown key {key!r}")
    for key, override in (("seed", seed), ("trials", trials), ("modes", modes)):
        if override is not None:
            values[key] = override

    axis = values["axis"]
    # the field the axis sets; None for an unknown (or unhashable) axis
    name = AXIS_FIELDS.get(axis) if isinstance(axis, str) else None
    if name is None:
        problems.append(f"axis: must be one of {sorted(AXIS_FIELDS)}, got {axis!r}")

    start, stop = values["start"], values["stop"]
    refused = _rule_problems(start=start, stop=stop)
    # a refused bound says nothing about the order
    if not refused and start >= stop:
        refused.append(f"start must be below stop, got {start!r} >= {stop!r}")
    if not refused and name:
        # every rule is an interval and every grid value lies between the
        # ends, so the ends stand for the whole axis
        for key, end in (("start", start), ("stop", stop)):
            if name == "n":
                end = round(end)
            refused += [f"{key}: {p}" for p in noise.problems(**{name: end})]
    problems += refused + _rule_problems(
        **{key: values[key] for key in ("points", "trials", "seed", "batch",
                                        "ci_level")})

    fixed = values["fixed"] or {}
    if not isinstance(fixed, dict):
        problems.append(f"fixed: mapping required, got {fixed!r}")
        fixed = {}
    else:
        allowed = _PARAM_FIELDS | {"pb_dbw"}
        for key in sorted(set(fixed) - allowed, key=str):
            problems.append(f"fixed.{key}: not a system parameter "
                            f"(known: {sorted(allowed)})")
        if name:
            # _params_at would overwrite the fixed value with the axis value;
            # pb and pb_dbw are one field in two units
            swept = {"pb", name} if name == "pb_dbw" else {name}
            problems += [f"fixed.{key}: the {axis} axis sets it"
                         for key in sorted(swept & set(fixed))]
        if "pb" in fixed and "pb_dbw" in fixed:
            problems.append("fixed: give pb (watts) or pb_dbw, not both")
        problems += _rule_problems("fixed.", **{
            key: v for key, v in fixed.items() if key in allowed})

    raw_modes = values["modes"]
    if isinstance(raw_modes, str):
        raw_modes = [raw_modes]
    if not isinstance(raw_modes, (list, tuple)) or not raw_modes:
        problems.append(f"modes: nonempty list required, got {raw_modes!r}")
        raw_modes = []
    bad = [m for m in raw_modes if m not in ALL_MODES]
    if bad:
        problems.append(f"modes: unknown {bad!r} (known: {list(ALL_MODES)})")
    chosen = tuple(m for m in ALL_MODES if m in raw_modes)
    if chosen == ("noiseless_variant",):
        problems.append("modes: noiseless_variant re-emits other modes and "
                        "cannot be the only one selected")
    if not problems:
        values.update(start=float(start), stop=float(stop), fixed=dict(fixed),
                      modes=chosen, description=str(values["description"]))
        grid = SweepGrid(**values)
        # last, on a grid that is otherwise sound
        if name == "n":
            off = [v for v in np.linspace(grid.start, grid.stop, grid.points)
                   if abs(v - round(v)) > 1e-9]
            if off:
                problems.append("element_count axis: every grid value must be "
                                f"an integer; {grid.start}..{grid.stop} over "
                                f"{grid.points} points produces {off[0]}")
    if problems:
        raise ConfigError(f"{path}:\n  " + "\n  ".join(problems))
    return grid


def _rule_problems(prefix: str = "", **values) -> list[str]:
    """noise.problems of config values, each line under prefix; a number
    that YAML read as text gets a hint that names the fix."""
    return [prefix + line + (_TEXT_NUMBER_HINT if _number_text(values[key]) else "")
            for key in values for line in noise.problems(**{key: values[key]})]


def _number_text(value) -> bool:
    try:
        return isinstance(value, str) and math.isfinite(float(value))
    except ValueError:
        return False


def _params_at(grid: SweepGrid, value: float) -> SystemParams:
    """Parameters at one grid value."""
    over = dict(grid.fixed)
    name = AXIS_FIELDS[grid.axis]
    over[name] = int(round(value)) if name == "n" else float(value)
    if "pb_dbw" in over:
        over["pb"] = watts_from_db(over.pop("pb_dbw"))
    return SystemParams(**over)


def _fmt(v) -> str:
    if v is None:
        return ""
    return format(float(v), ".10g")


def _variants(grid: SweepGrid) -> list[tuple[str, bool, str]]:
    """(mode, quiet, CSV label) per row of a grid point, in CSV order."""
    base = [m for m in grid.modes if m != "noiseless_variant"]
    quiet = (False, True) if "noiseless_variant" in grid.modes else (False,)
    return [(m, q, m + ("_noiseless" if q else "")) for q in quiet for m in base]


def _point_rows(grid: SweepGrid, value: float, links: dict, reports: dict,
                mc: dict) -> list[list[str]]:
    """CSV rows of one grid point from the links, reports and estimates built for it."""
    rows = []
    for mode, quiet, label in _variants(grid):
        link = links[value, quiet]
        if mode in ANALYTIC_MODES:
            rep = reports[value, quiet]
            po = {"analytic_lb": rep.outage_lb, "analytic_ub": rep.outage_ub,
                  "asymptotic": rep.outage_asym}[mode]
            ci_lo = ci_hi = None
        else:
            est = mc[value, mode, quiet]
            po, ci_lo, ci_hi = est.p_hat, est.ci_lo, est.ci_hi
        lam = link.budget.lam
        rows.append([_fmt(value), label, _fmt(po), _fmt(ci_lo), _fmt(ci_hi),
                     _fmt(map_throughput(po, link.params.rate)), _fmt(lam),
                     _fmt(link.approx.delta), _fmt(link.approx.zeta),
                     str(reliability_flag(lam))])
    return rows


def run_sweep(config: str, out_path: str, *, seed: int | None = None,
              trials: int | None = None, modes: tuple[str, ...] | None = None,
              workers: int | None = None) -> int:
    """Evaluate a sweep config and write the CSV; returns the row count.

    Every Monte Carlo row of the sweep goes to one estimate_outages call,
    which spreads the batches of each fading key over `workers` threads
    (RISNOISE_WORKERS when None, default 1).  Analytic rows run on the
    calling thread.  Output depends on neither, so it is deterministic.
    """
    return _write_sweep(load_grid(config, seed=seed, trials=trials, modes=modes),
                        out_path, workers)


def _write_sweep(grid: SweepGrid, out_path: str, workers: int | None = None) -> int:
    values = np.linspace(grid.start, grid.stop, grid.points)
    variants = _variants(grid)
    # every point's params, links and analytic values are built before the
    # first Monte Carlo batch, so none of their refusals waits for the draws
    params = {v: _params_at(grid, v) for v in values}
    links = {(v, q): build_link_model(replace(p, ris_noise=False) if q else p)
             for v, p in params.items() for q in {quiet for _, quiet, _ in variants}}
    analytic = any(m in ANALYTIC_MODES for m in grid.modes)
    reports = dict(zip(links, outage_reports(links.values()))) if analytic else {}
    requests = {(v, mode, q): (links[v, q].params, mode.removeprefix("mc_"))
                for v in values for mode, q, _ in variants if mode in MC_MODES}
    mc = dict(zip(requests, estimate_outages(list(requests.values()),
                                             grid.mc_config, workers)))
    rows = [row for v in values for row in _point_rows(grid, v, links, reports, mc)]
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)
    return len(rows)


def write_gnuplot_script(csv_path: str, script_path: str, modes) -> None:
    """Companion plot script: outage vs axis, one curve per mode."""
    lines = [
        "set datafile separator ','",
        "set logscale y",
        "set xlabel 'axis value'",
        "set ylabel 'outage'",
        "set key outside",
    ]
    curves = ", \\\n     ".join(
        f"'{csv_path}' using (strcol(2) eq '{m}' ? $1 : 1/0):3 "
        f"with linespoints title '{m}'" for m in modes)
    lines.append("plot " + curves)
    with open(script_path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# self-checks

def _check(name, ok, detail):
    return (name, bool(ok), detail)


def _checks_fast() -> list[tuple[str, bool, str]]:
    import mpmath as mp

    out = []

    worst = 0.0
    for (alpha, n), ref in REFERENCE_NOISE_TABLE_DBW.items():
        got = db_from_watts(noise.ris_noise_power(n, alpha))
        worst = max(worst, abs(got - ref))
    out.append(_check("table2", worst <= TABLE2_TOL_DB,
                      f"max deviation {worst:.2e} dB (tol {TABLE2_TOL_DB:g})"))

    floor = db_from_watts(receiver_noise_power())
    out.append(_check("noise-floor", abs(floor - (-128.0)) < 0.1,
                      f"receiver noise {floor:.4f} dBW"))

    bud = build_noise_budget(SystemParams())
    ok = (abs(bud.lam - 4.0596166) < 5e-7
          and abs(bud.ups_th - (2.0 ** 0.75 - 1.0)) < 1e-15)
    out.append(_check("noise-budget", ok,
                      f"lambda {bud.lam:.7f}, threshold {bud.ups_th:.7f}"))

    worst = 0.0
    for delta in (1.0, 17.8, 35.6, 71.2):
        for x in (0.5, 5.0, 40.0):
            got = specfun.meijer_g_1_1_1_2(delta, x)
            with mp.workdps(30):
                want = float(mp.gammainc(delta, 0, x))
            worst = max(worst, abs(got - want) / abs(want))
    out.append(_check("gamma-identity", worst < 1e-10, f"max rel err {worst:.2e}"))

    # the negative-z side comes from mpmath, so the identity holds
    # kummer_1f1 (scipy.special.hyp1f1 at z > 0) to an implementation it
    # shares no code with
    worst = 0.0
    for a, b, z in ((0.5, 1.5, 2.0), (3.0, 4.5, 6.0), (17.8, 18.8, 1.5)):
        lhs = specfun.kummer_1f1(a, b, z)
        with mp.workdps(30):
            rhs = math.exp(z) * float(mp.hyp1f1(b - a, b, -z))
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    out.append(_check("kummer-transform", worst < 1e-9, f"max rel err {worst:.2e}"))

    # the contour route sums no hypergeometric series, so it shares no
    # code with the Slater route it checks
    worst = 0.0
    for a1, z in ((-19.5, 0.8), (-21.0, 2.5)):
        got = specfun.meijer_g_2_1_1_2(a1, z)
        ref = specfun.meijer_g_2_1_1_2_contour(a1, z, dps=14)
        worst = max(worst, abs(got - ref) / abs(ref))
    out.append(_check("meijer-dual-route", worst < 1e-6, f"max rel err {worst:.2e}"))

    worst = 0.0
    worst_prod = 0.0
    for n, pb_dbw in ((5, -65.0), (10, -65.0), (20, -60.0)):
        link = build_link_model(SystemParams(n=n, pb=watts_from_db(pb_dbw)))
        series = xi1_closed(link)
        oracle = xi1_oracle(link, integer_shape=True)
        worst = max(worst, abs(series - oracle) / max(oracle, 1e-300))
        worst_prod = max(worst_prod, abs(xi1(link) - series) / max(series, 1e-300))
    out.append(_check("series-vs-quadrature", worst < 1e-6,
                      f"max rel err {worst:.2e}"))
    out.append(_check("production-vs-series", worst_prod < 1e-12,
                      f"max rel err {worst_prod:.2e}"))

    ok = True
    for pb_dbw in np.linspace(-75.0, -50.0, 10):
        rep = outage_report(build_link_model(
            SystemParams(n=5, pb=watts_from_db(pb_dbw), ris_noise=False)))
        if rep.outage_lb != rep.xi2:
            ok = False
    out.append(_check("noiseless-reduction", ok, "outage_lb == xi2, bitwise"))

    link_a = build_link_model(SystemParams(n=5, pb=10.0 ** -5.0))
    link_b = build_link_model(SystemParams(n=5, pb=10.0 ** -4.0))
    slope = math.log10(outage_report(link_a).outage_asym) \
        - math.log10(outage_report(link_b).outage_asym)
    want = link_a.approx.delta / 2.0
    out.append(_check("asymptote-slope", abs(slope - want) / want < 1e-9,
                      f"slope {slope:.6f} vs delta/2 {want:.6f}"))

    ok = True
    for n in (5, 10):
        for pb_dbw in (-70.0, -63.0):
            rep = outage_report(build_link_model(
                SystemParams(n=n, pb=watts_from_db(pb_dbw))))
            if not rep.outage_lb < rep.outage_ub:
                ok = False
    out.append(_check("bound-order", ok, "outage_lb < outage_ub"))
    return out


def _checks_full() -> list[tuple[str, bool, str]]:
    out = []
    params = SystemParams(n=10)

    trials = 1_000_000
    rng = np.random.Generator(np.random.Philox(key=np.array([11, 0],
                                                            dtype=np.uint64)))
    x, y = draw_realization(params, rng, size=trials)
    approx = build_link_model(params).approx
    mu, var = approx.mu, approx.sigma2
    err = abs(np.sqrt(x).mean() - mu)
    ok = err < 3.0 * math.sqrt(var / trials)
    out.append(_check("mc-moments", ok, f"|mean err| {err:.3e}"))

    budget = build_noise_budget(params)
    lb, ub = sinr_bounds(x, y, budget)
    exact = sinr_exact(x, y, budget)
    bad = int(np.count_nonzero(~((lb <= exact) & (exact <= ub))))
    out.append(_check("mc-sandwich", bad == 0, f"{bad} violations in {trials}"))

    # the analytic factor rides on the moment-matched cascade, so a few
    # percent of model bias is expected on top of the sampling noise;
    # 8% headroom still catches any real wiring fault
    quiet = SystemParams(n=5, pb=10.0 ** -6.6, ris_noise=False)
    est = estimate_outage(quiet, McConfig(trials=1_000_000, seed=12))
    want = outage_report(build_link_model(quiet)).xi2
    gap = abs(est.p_hat - want) / want
    out.append(_check("mc-noiseless", gap < 0.08,
                      f"mc {est.p_hat:.4e} vs analytic {want:.4e}, rel gap {gap:.3f}"))

    probe = SystemParams(n=5, pb=10.0 ** -6.8)
    cfg = McConfig(trials=200_000, seed=13, batch=50_000)
    a = estimate_outage(probe, cfg, workers=1)
    b = estimate_outage(probe, cfg, workers=4)
    out.append(_check("mc-determinism", a == b,
                      f"1 worker {a.p_hat:.6e} vs 4 workers {b.p_hat:.6e}"))

    selectors = ("lb", "exact", "ub")
    p = {w: est.p_hat for w, est in zip(selectors, estimate_outages(
        [(probe, w) for w in selectors], McConfig(trials=400_000, seed=14)))}
    out.append(_check("mc-ordering", p["ub"] <= p["exact"] <= p["lb"],
                      f"ub {p['ub']:.4e} <= exact {p['exact']:.4e} "
                      f"<= lb {p['lb']:.4e}"))

    w1 = estimate_outage(probe, McConfig(trials=200_000, seed=15))
    w2 = estimate_outage(probe, McConfig(trials=400_000, seed=15))
    ratio = (w1.ci_hi - w1.ci_lo) / (w2.ci_hi - w2.ci_lo)
    out.append(_check("mc-ci-shrink", abs(ratio - math.sqrt(2.0)) < 0.1 * math.sqrt(2.0),
                      f"width ratio {ratio:.3f} vs sqrt(2)"))
    return out


def validate(level: str = "fast") -> tuple[bool, list[str]]:
    """Run the oracle-agreement suite; returns (all_passed, report lines)."""
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    checks = _checks_fast()
    if level == "full":
        checks += _checks_full()
    lines = [f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
             for name, ok, detail in checks]
    passed = all(ok for _, ok, _ in checks)
    lines.append(f"{'all checks passed' if passed else 'CHECKS FAILED'} "
                 f"({sum(ok for _, ok, _ in checks)}/{len(checks)})")
    return passed, lines


# ---------------------------------------------------------------------------
# entry point

def _cmd_table2(args) -> int:
    grid = table2()
    print("surface noise power, dBW (T = 290 K, B = 20 MHz)")
    print(f"{'alpha':>6} {'N=5':>10} {'N=10':>10} {'N=20':>10}")
    for alpha, row in grid:
        print(f"{alpha:>6.1f} " + " ".join(f"{v:>10.4f}" for v in row))
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["alpha", "n5", "n10", "n20"])
            for alpha, row in grid:
                writer.writerow([_fmt(alpha)] + [_fmt(v) for v in row])
    return 0


def _cmd_sweep(args) -> int:
    modes = tuple(args.modes.split(",")) if args.modes else None
    grid = load_grid(args.config, seed=args.seed, trials=args.trials, modes=modes)
    count = _write_sweep(grid, args.out)
    print(f"wrote {count} rows to {args.out}")
    if args.gnuplot:
        write_gnuplot_script(args.out, args.gnuplot,
                             [label for _, _, label in _variants(grid)])
        print(f"wrote plot script to {args.gnuplot}")
    return 0


def _cmd_validate(args) -> int:
    passed, lines = validate(args.level)
    for line in lines:
        print(line)
    return 0 if passed else 1


def _cmd_presets(args) -> int:
    for name, description in list_presets():
        print(f"{name:16} {description}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="risnoise",
        description="outage and throughput of an RIS link with surface "
                    "thermal noise")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table2", help="print the reference noise grid")
    p.add_argument("--out", help="also write the grid as CSV")
    p.set_defaults(fn=_cmd_table2)

    p = sub.add_parser("sweep", help="run a sweep config and write CSV")
    p.add_argument("--config", required=True,
                   help="YAML config path or bundled preset name")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--trials", type=int, help="override the config trial count")
    p.add_argument("--modes", help="comma-separated mode override")
    p.add_argument("--gnuplot", help="also write a gnuplot script")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("validate", help="run the self-check suite")
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("presets", help="list bundled sweep configs")
    p.set_defaults(fn=_cmd_presets)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
