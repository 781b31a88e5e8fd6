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
import functools
import math
import os
import sys
from dataclasses import dataclass, field, fields as dc_fields
from importlib import resources

import numpy as np
import yaml

from . import noise
from .mcsim import (
    SELECTORS,
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
    _check_probabilities,
    _throughput,
    build_link_model,
    build_link_models,
    diversity_order,
    outage_asymptotic,
    outage_lb,
    outage_report,
    outage_reports,
    reliability_flag,
    xi1,
    xi1_closed,
    xi1_oracle,
    xi2,
)
from . import specfun

CSV_HEADER = ("axis_value", "mode", "outage", "ci_lo", "ci_hi", "throughput",
              "lambda", "delta", "zeta", "reliability_flag")

MC_MODES = tuple(f"mc_{which}" for which in SELECTORS)
ALL_MODES = (*ANALYTIC_MODES, *MC_MODES, "noiseless_variant")

# the SystemParams field (or pb_dbw, the transmit power in dBW) each axis sets
AXIS_FIELDS = {
    "transmit_power_dBW": "pb_dbw",
    "ris_receiver_distance_m": "d_nd",
    "element_count": "n",
    "reflection_factor": "alpha",
}

# validate's table2 tolerance for the reference noise grid, beside release
# gate 01's 1e-3 dB on the same grid.  The published values were tabulated
# with the legacy two-digit Boltzmann constant, 2.04e-3 dB below the SI value
# used here: this tolerance clears that offset and gate 01's does not.  A 1%
# fault in the constant moves the grid 10*log10(1.01) = 0.0432 dB, 17x this
# tolerance and 43x gate 01's.
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
    return [(entry.name[:-5], load_grid(str(entry)).description)
            for entry in sorted(_preset_dir().iterdir(), key=lambda e: e.name)
            if entry.name.endswith(".yaml")]


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
        except (yaml.YAMLError, UnicodeDecodeError) as exc:
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
    """CSV rows of one grid point from the links, reports and estimates built
    for it; the point's outages are checked once, together."""
    cells = []
    for mode, quiet, label in _variants(grid):
        if mode in ANALYTIC_MODES:
            po = getattr(reports[value, quiet], ANALYTIC_MODES[mode])
            ci_lo = ci_hi = None
        else:
            est = mc[value, mode, quiet]
            po, ci_lo, ci_hi = est.p_hat, est.ci_lo, est.ci_hi
        cells.append((label, links[value, quiet], po, ci_lo, ci_hi))
    _check_probabilities(("outage",), [(po,) for _, _, po, _, _ in cells])
    return [[_fmt(value), label, _fmt(po), _fmt(ci_lo), _fmt(ci_hi),
             _fmt(_throughput(po, link.params.rate)), _fmt(link.budget.lam),
             _fmt(link.approx.delta), _fmt(link.approx.zeta),
             str(reliability_flag(link.budget.lam))]
            for label, link, po, ci_lo, ci_hi in cells]


def _file_identity(path: str):
    # an existing file by device and inode, as os.path.samefile compares,
    # so a hard link is seen; a file still to be made by its resolved path
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


def run_sweep(config: str, out_path: str, *, seed: int | None = None,
              trials: int | None = None, modes: tuple[str, ...] | None = None,
              workers: int | None = None, gnuplot: str | None = None) -> int:
    """Evaluate a sweep config and write its CSV, and the gnuplot script if
    `gnuplot` names one; returns the row count.  `risnoise sweep` runs it.

    An output in no existing directory, or that is the config (a preset too)
    or the other output, by a symlink, a hard link or another spelling, is
    refused before any link is built.  All Monte Carlo rows go to one
    estimate_outages call on `workers` threads (RISNOISE_WORKERS when None,
    default 1); the output does not depend on it.
    """
    grid = load_grid(config, seed=seed, trials=trials, modes=modes)
    # the sweep's files by identity; open() reports the rest (permissions, races)
    taken = {_file_identity(_resolve_config(config)): f"the config {config}"}
    for path in filter(None, (out_path, gnuplot)):
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigError(f"{path}: not a file path in an existing directory")
        identity = _file_identity(path)
        if identity in taken:
            raise ConfigError(f"{path}: the output would overwrite {taken[identity]}")
        taken[identity] = f"the CSV {path}"
    values = np.linspace(grid.start, grid.stop, grid.points)
    variants = _variants(grid)
    # every point's params, links and analytic values are built before the
    # first Monte Carlo batch, so none of their refusals waits for the draws
    params = {v: _params_at(grid, v) for v in values}
    keys = [(v, q) for v in values for q in {quiet for _, quiet, _ in variants}]
    links = dict(zip(keys, build_link_models(
        params[v].noiseless() if q else params[v] for v, q in keys)))
    analytic = tuple(m for m in grid.modes if m in ANALYTIC_MODES)
    reports = (dict(zip(links, outage_reports(links.values(), analytic)))
               if analytic else {})
    requests = {(v, mode, q): (links[v, q], mode.removeprefix("mc_"))
                for v in values for mode, q, _ in variants if mode in MC_MODES}
    mc_config = McConfig(grid.trials, grid.seed, grid.batch, grid.ci_level)
    mc = dict(zip(requests, estimate_outages(requests.values(), mc_config, workers)))
    rows = [row for v in values for row in _point_rows(grid, v, links, reports, mc)]
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)
    if gnuplot:
        write_gnuplot_script(out_path, gnuplot, [label for _, _, label in variants])
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
    quoted = csv_path.replace("'", "''")  # gnuplot's '' is a quote
    curves = ", \\\n     ".join(
        f"'{quoted}' using (strcol(2) eq '{m}' ? $1 : 1/0):3 "
        f"with linespoints title '{m}'" for m in modes)
    lines.append("plot " + curves)
    with open(script_path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# self-checks
#
# A measurement that validate shares with a release gate
# (tests/test_acceptance.py) has one body here.  It takes the grid, the draws
# or the links and returns the worst value it measured; validate and the gate
# each call it with their own grid, seed and tolerance.

def _table2_deviation() -> float:
    """Largest |dB| gap of table2(), the grid `risnoise table2` prints, from the published one."""
    return max(abs(got - REFERENCE_NOISE_TABLE_DBW[alpha, n])
               for alpha, row in table2() for n, got in zip(noise.TABLE_COUNTS, row))


def _rel_gap(got: float, ref: float) -> float:
    gap = abs(got - ref) / max(abs(ref), 1e-300)
    # a NaN gap loses every comparison, so max() and `>` would pass it over
    return gap if math.isfinite(gap) else math.inf


def _gamma_identity_error(deltas, xs) -> float:
    """Largest relative gap of meijer_g_1_1_1_2(delta, x) from mpmath's
    30-digit lower incomplete gamma over the deltas x xs grid."""
    import mpmath as mp

    with mp.workdps(30):
        return max(_rel_gap(specfun.meijer_g_1_1_1_2(d, x), float(mp.gammainc(d, 0, x)))
                   for d in map(float, deltas) for x in map(float, xs))


def _kummer_transform_error(points) -> float:
    """Largest relative gap of kummer_1f1(a, b, z) (scipy) from Kummer's
    transform e^z 1F1(b - a; b; -z) in 30-digit mpmath over the points."""
    import mpmath as mp

    with mp.workdps(30):
        return max(_rel_gap(math.exp(z) * float(mp.hyp1f1(b - a, b, -z)),
                            specfun.kummer_1f1(a, b, z)) for a, b, z in points)


def _meijer_dual_route_error(points) -> float:
    """Largest relative gap of meijer_g_2_1_1_2(a1, z) from the contour route,
    which shares no series with it, over the (a1, z) points."""
    return max(_rel_gap(specfun.meijer_g_2_1_1_2(a1, z),
                        specfun.meijer_g_2_1_1_2_contour(a1, z, dps=14))
               for a1, z in points)


def _series_vs_oracle(links, *, integer_shape=False, floor=0.0):
    """Worst relative gap of the series xi1_closed from xi1_oracle over the
    links whose oracle is not below floor: (gap, link, series, oracle).  A
    NaN series or oracle is the worst point, at an infinite gap."""
    worst = (0.0, None, None, None)
    for link in links:
        s, o = xi1_closed(link), xi1_oracle(link, integer_shape=integer_shape)
        if not o < floor and (rel := _rel_gap(s, o)) > worst[0]:
            worst = (rel, link, s, o)
    return worst


def _noiseless_mismatches(links) -> int:
    """Noiseless links whose outage_lb is not xi2 bitwise."""
    return sum(outage_lb(link) != xi2(link) for link in links)


def _asymptote_slope(n: int, powers_dbw) -> tuple[float, float, float]:
    """Fitted slope of log10 outage_asymptotic per decade of power over
    powers_dbw at n elements: (relative gap from -delta/2, slope, -delta/2)."""
    links = [build_link_model(SystemParams(n=n, pb=10.0 ** (float(v) / 10.0)))
             for v in powers_dbw]
    slope = float(np.polyfit(np.asarray(powers_dbw) / 10.0,
                             np.log10([outage_asymptotic(link) for link in links]), 1)[0])
    want = -diversity_order(links[0].approx)
    return abs(slope - want) / abs(want), slope, want


def _moment_z(link, x) -> tuple[float, float, float]:
    """Amplitudes sqrt(x) drawn at link.params against the moment match, in
    standard errors: (mean z, variance z, |mean error|)."""
    d = np.sqrt(x)
    m_hat, v_hat = d.mean(), d.var(ddof=1)
    mu, var = link.approx.mu, link.approx.sigma2
    m4 = float(np.mean((d - m_hat) ** 4))
    se_v = math.sqrt(max(m4 - v_hat ** 2, 0.0) / d.size)
    err = abs(m_hat - mu)
    return err / math.sqrt(var / d.size), abs(v_hat - var) / se_v, err


def _sandwich_violations(x, y, budget) -> int:
    """Draws whose exact SINR leaves the [lb, ub] bracket of sinr_bounds."""
    lb, ub = sinr_bounds(x, y, budget)
    exact = sinr_exact(x, y, budget)
    return int(np.count_nonzero(~((lb <= exact) & (exact <= ub))))


def _max_rel_err(worst: float, tol: float) -> tuple[bool, str]:
    return worst < tol, f"max rel err {worst:.2e}"


def _validate_checks() -> list[tuple[str, str, object]]:
    """validate's (level, name, call) entries in report order; each call
    returns (passed, detail)."""
    series_links = [build_link_model(SystemParams(n=n, pb=watts_from_db(pb_dbw)))
                    for n, pb_dbw in ((5, -65.0), (10, -65.0), (20, -60.0))]
    link10 = build_link_model(SystemParams(n=10))
    probe = SystemParams(n=5, pb=10.0 ** -6.8)

    @functools.cache
    def draws():
        # mc-moments and mc-sandwich read the same 10^6 draws
        rng = np.random.Generator(np.random.Philox(key=np.array([11, 0], dtype=np.uint64)))
        return draw_realization(link10.params, rng, size=1_000_000)

    def table2_check():
        worst = _table2_deviation()
        return worst <= TABLE2_TOL_DB, \
            f"max deviation {worst:.2e} dB (tol {TABLE2_TOL_DB:g})"

    def noise_floor():
        floor = db_from_watts(receiver_noise_power())
        return abs(floor - (-128.0)) < 0.1, f"receiver noise {floor:.4f} dBW"

    def noise_budget():
        bud = build_noise_budget(SystemParams())
        ok = (abs(bud.lam - 4.0596166) < 5e-7
              and abs(bud.ups_th - (2.0 ** 0.75 - 1.0)) < 1e-15)
        return ok, f"lambda {bud.lam:.7f}, threshold {bud.ups_th:.7f}"

    def asymptote_slope():
        rel, slope, want = _asymptote_slope(5, (-50.0, -40.0))
        return rel < 1e-9, f"slope {-slope:.6f} vs delta/2 {-want:.6f}"

    def bound_order():
        reports = [outage_report(build_link_model(SystemParams(n=n, pb=watts_from_db(v))))
                   for n in (5, 10) for v in (-70.0, -63.0)]
        return all(rep.outage_lb < rep.outage_ub for rep in reports), \
            "outage_lb < outage_ub"

    def mc_moments():
        zm, _, err = _moment_z(link10, draws()[0])
        return zm < 3.0, f"|mean err| {err:.3e}"

    def mc_sandwich():
        bad = _sandwich_violations(*draws(), link10.budget)
        return bad == 0, f"{bad} violations in {draws()[0].size}"

    def mc_noiseless():
        # the analytic factor rides on the moment-matched cascade, so a few
        # percent of model bias is expected on top of the sampling noise;
        # 8% headroom still catches any real wiring fault
        quiet = build_link_model(SystemParams(n=5, pb=10.0 ** -6.6, ris_noise=False))
        est, = estimate_outages([(quiet, "exact")], McConfig(trials=1_000_000, seed=12))
        want = outage_report(quiet).xi2
        gap = abs(est.p_hat - want) / want
        return gap < 0.08, f"mc {est.p_hat:.4e} vs analytic {want:.4e}, rel gap {gap:.3f}"

    def mc_determinism():
        cfg = McConfig(trials=200_000, seed=13, batch=50_000)
        a, b = (estimate_outage(probe, cfg, workers=w) for w in (1, 4))
        return a == b, f"1 worker {a.p_hat:.6e} vs 4 workers {b.p_hat:.6e}"

    def mc_ordering():
        lb, exact, ub = (est.p_hat for est in estimate_outages(
            [(build_link_model(probe), w) for w in ("lb", "exact", "ub")],
            McConfig(trials=400_000, seed=14)))
        return ub <= exact <= lb, f"ub {ub:.4e} <= exact {exact:.4e} <= lb {lb:.4e}"

    def mc_ci_shrink():
        w1, w2 = (estimate_outage(probe, McConfig(trials=t, seed=15))
                  for t in (200_000, 400_000))
        ratio = (w1.ci_hi - w1.ci_lo) / (w2.ci_hi - w2.ci_lo)
        return abs(ratio - math.sqrt(2.0)) < 0.1 * math.sqrt(2.0), \
            f"width ratio {ratio:.3f} vs sqrt(2)"

    return [
        ("fast", "table2", table2_check),
        ("fast", "noise-floor", noise_floor),
        ("fast", "noise-budget", noise_budget),
        ("fast", "gamma-identity", lambda: _max_rel_err(_gamma_identity_error(
            (1.0, 17.8, 35.6, 71.2), (0.5, 5.0, 40.0)), 1e-10)),
        ("fast", "kummer-transform", lambda: _max_rel_err(_kummer_transform_error(
            ((0.5, 1.5, 2.0), (3.0, 4.5, 6.0), (17.8, 18.8, 1.5))), 1e-9)),
        ("fast", "meijer-dual-route", lambda: _max_rel_err(_meijer_dual_route_error(
            ((-19.5, 0.8), (-21.0, 2.5))), 1e-6)),
        ("fast", "series-vs-quadrature", lambda: _max_rel_err(_series_vs_oracle(
            series_links, integer_shape=True)[0], 1e-6)),
        ("fast", "production-vs-series", lambda: _max_rel_err(max(
            _rel_gap(xi1(link), xi1_closed(link)) for link in series_links), 1e-12)),
        ("fast", "noiseless-reduction", lambda: (_noiseless_mismatches(
            build_link_model(SystemParams(n=5, pb=watts_from_db(v), ris_noise=False))
            for v in np.linspace(-75.0, -50.0, 10)) == 0, "outage_lb == xi2, bitwise")),
        ("fast", "asymptote-slope", asymptote_slope),
        ("fast", "bound-order", bound_order),
        ("full", "mc-moments", mc_moments),
        ("full", "mc-sandwich", mc_sandwich),
        ("full", "mc-noiseless", mc_noiseless),
        ("full", "mc-determinism", mc_determinism),
        ("full", "mc-ordering", mc_ordering),
        ("full", "mc-ci-shrink", mc_ci_shrink),
    ]


def validate(level: str = "fast") -> tuple[bool, list[str]]:
    """Run the oracle-agreement suite; returns (all_passed, report lines)."""
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    lines, passed = [], 0
    for at, name, call in _validate_checks():
        if at == "fast" or level == "full":
            ok, detail = call()
            passed += bool(ok)
            lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    ok = passed == len(lines)
    lines.append(f"{'all checks passed' if ok else 'CHECKS FAILED'} "
                 f"({passed}/{len(lines)})")
    return ok, lines


# ---------------------------------------------------------------------------
# entry point

def _cmd_table2(args) -> int:
    grid = table2()
    print(f"surface noise power, dBW (T = {noise.T_DEFAULT:g} K, "
          f"B = {noise.B_DEFAULT / 1e6:g} MHz)")
    print(f"{'alpha':>6} " + " ".join(f"{f'N={n}':>10}" for n in noise.TABLE_COUNTS))
    for alpha, row in grid:
        print(f"{alpha:>6.1f} " + " ".join(f"{v:>10.4f}" for v in row))
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["alpha", *(f"n{n}" for n in noise.TABLE_COUNTS)])
            for alpha, row in grid:
                writer.writerow([_fmt(alpha)] + [_fmt(v) for v in row])
    return 0


def _cmd_sweep(args) -> int:
    modes = None if args.modes is None else tuple(map(str.strip, args.modes.split(",")))
    count = run_sweep(args.config, args.out, seed=args.seed, trials=args.trials,
                      modes=modes, gnuplot=args.gnuplot)
    print(f"wrote {count} rows to {args.out}")
    if args.gnuplot:
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
    except (ValueError, OSError) as exc:  # ConfigError; OSError names its path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
