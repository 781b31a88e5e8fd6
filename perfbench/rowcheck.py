"""Row checker for sweep CSVs, against references built outside the sweep.

Every row of a sweep is checked; a row that breaks any check, or is
missing, counts once towards the failed rows.

  * outage lies in [0, 1]; throughput equals (1 - outage) * rate;
  * analytic_lb <= analytic_ub at each axis value;
  * analytic rows do not rise with transmit power;
  * ci_lo <= p <= ci_hi on Monte Carlo rows;
  * mc_ub <= mc_exact and noiseless <= noisy at each axis value (exact on
    shared draws);
  * noisy analytic_lb/analytic_ub rows match
    compose_outage(xi1_oracle(integer_shape=True), xi2) to ANALYTIC_RTOL;
  * noiseless analytic_lb/analytic_ub rows equal xi2 bit for bit (as the
    CSV prints it);
  * Monte Carlo rows equal the count of an independent draw under the
    Philox (seed, batch index) contract: each fading key is drawn once
    here and every threshold is counted on it.  For DEFAULT_SEED the counts
    must also equal the ones stored in reference_counts.json.

The seed code's own CSV is never a reference: its series route is wrong at
isolated low-power points, and a fix there must not read as a failure.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from risnoise import SystemParams, build_link_model, path_loss
from risnoise.cli import CSV_HEADER
from risnoise.noise import build_noise_budget
from risnoise.outage import compose_outage, xi1_oracle, xi2

import workloads

# The oracle quadrature runs at rtol 1e-10 and the CSV keeps 10 significant
# digits (at most 5e-10 relative rounding); elsewhere the series and the
# oracle agree to about 1e-14.
ANALYTIC_RTOL = 1e-9
# throughput is formatted from the unrounded outage; both columns carry the
# 10-digit rounding
THROUGHPUT_RTOL = 1e-9

STORED_PATH = Path(__file__).resolve().parent / "reference_counts.json"

_AXIS_FIELD = {"transmit_power_dBW": "pb", "element_count": "n",
               "ris_receiver_distance_m": "d_nd", "reflection_factor": "alpha"}
_ALL_BASE = ("analytic_lb", "analytic_ub", "asymptotic",
             "mc_exact", "mc_lb", "mc_ub")
_ANALYTIC = ("analytic_lb", "analytic_ub", "asymptotic")


def fmt(v: float) -> str:
    """How the sweep CSV prints a number."""
    return format(float(v), ".10g")


def grid_values(config: dict) -> list[float]:
    return [float(v) for v in np.linspace(config["start"], config["stop"],
                                          config["points"])]


def params_at(config: dict, value: float) -> SystemParams:
    over = dict(config.get("fixed", {}))
    if "pb_dbw" in over:
        over["pb"] = 10.0 ** (over.pop("pb_dbw") / 10.0)
    field = _AXIS_FIELD[config["axis"]]
    if field == "pb":
        over["pb"] = 10.0 ** (value / 10.0)
    elif field == "n":
        over["n"] = int(round(value))
    else:
        over[field] = value
    return SystemParams(**over)


def row_names(config: dict) -> list[str]:
    base = [m for m in _ALL_BASE if m in config["modes"]]
    if "noiseless_variant" in config["modes"]:
        base += [m + "_noiseless" for m in base]
    return base


def _draws(params: SystemParams, seed: int, index: int, size: int):
    rng = np.random.Generator(
        np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
    om_bn = path_loss(params.d_bn, params.tau_bn, params.phi_ref)
    om_nd = path_loss(params.d_nd, params.tau_nd, params.phi_ref)
    a = np.sqrt(rng.gamma(shape=params.m_bn, scale=om_bn / params.m_bn,
                          size=(size, params.n)))
    b = np.sqrt(rng.gamma(shape=params.m_nd, scale=om_nd / params.m_nd,
                          size=(size, params.n)))
    d = (a * b).sum(axis=1)
    return d * d, (b * b).sum(axis=1)


def _count(x, y, params: SystemParams, selector: str) -> int:
    bud = build_noise_budget(params)
    if selector == "exact":
        sinr = bud.psi * x / (bud.lam * y + 1.0)
    else:
        snr = bud.psi * x
        lam_y = bud.lam * y
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(lam_y > 0.0,
                             snr / np.where(lam_y > 0.0, lam_y, 1.0), np.inf)
        sinr = np.minimum(ratio, snr)
        if selector == "lb":
            sinr = 0.5 * sinr
    return int(np.count_nonzero(sinr < bud.ups_th))


def mc_counts(config: dict) -> dict[str, int]:
    """Outage counts per 'axis|row name', one draw per fading key and batch."""
    trials, batch, seed = config["trials"], config["batch"], config["seed"]
    sizes = [batch] * (trials // batch) + ([trials % batch] if trials % batch else [])
    selectors = [m.removeprefix("mc_") for m in _ALL_BASE[3:] if m in config["modes"]]
    variants = [(False, "")]
    if "noiseless_variant" in config["modes"]:
        variants.append((True, "_noiseless"))
    out: dict[str, int] = {}
    cached_key, cached = None, None
    for value in grid_values(config):
        params = params_at(config, value)
        key = (params.n, params.m_bn, params.m_nd, params.d_bn, params.d_nd,
               params.tau_bn, params.tau_nd, params.phi_ref)
        if key != cached_key:
            cached_key = key
            cached = [_draws(params, seed, i, s) for i, s in enumerate(sizes)]
        for quiet, suffix in variants:
            p = replace(params, ris_noise=False) if quiet else params
            for sel in selectors:
                out[f"{fmt(value)}|mc_{sel}{suffix}"] = sum(
                    _count(x, y, p, sel) for x, y in cached)
    return out


def stored_counts(name: str, smoke: bool) -> dict[str, int] | None:
    if not STORED_PATH.is_file():
        return None
    stored = json.loads(STORED_PATH.read_text(encoding="utf-8"))
    return stored.get(f"{name}/{'smoke' if smoke else 'full'}")


class RowChecker:
    """References for one config, built once and reused for every CSV."""

    def __init__(self, config: dict, expected_counts: dict[str, int] | None = None):
        self.config = config
        self.values = grid_values(config)
        self.names = row_names(config)
        has_mc = any(m.startswith("mc_") for m in config["modes"])
        self.counts = (expected_counts if expected_counts is not None
                       else mc_counts(config) if has_mc else {})
        self.analytic = self._analytic_refs()

    def _analytic_refs(self) -> dict[str, str | float]:
        """Oracle values (float) for noisy rows, xi2 strings for noiseless."""
        refs: dict[str, str | float] = {}
        wanted = [m for m in ("analytic_lb", "analytic_ub") if m in self.config["modes"]]
        quiet = "noiseless_variant" in self.config["modes"]
        for value in self.values:
            params = params_at(self.config, value)
            link = build_link_model(params)
            quiet_link = build_link_model(replace(params, ris_noise=False))
            for mode in wanted:
                ups = link.budget.ups_th * (2.0 if mode == "analytic_ub" else 1.0)
                refs[f"{fmt(value)}|{mode}"] = compose_outage(
                    xi1_oracle(link, ups, integer_shape=True), xi2(link, ups))
                if quiet:
                    refs[f"{fmt(value)}|{mode}_noiseless"] = fmt(xi2(quiet_link, ups))
        return refs

    def check(self, text: str) -> dict[str, str]:
        """Failed rows of one CSV as {'axis|mode': first reason}."""
        bad: dict[str, str] = {}

        def fail(key, reason):
            bad.setdefault(key, reason)

        rows = {}
        reader = csv.reader(io.StringIO(text))
        if next(reader, None) != list(CSV_HEADER):
            reader = iter(())   # no row of a CSV with a wrong header counts
        for row in reader:
            if len(row) != 10:
                fail(f"?|{row}", "malformed row")
                continue
            key = f"{row[0]}|{row[1]}"
            if key in rows:
                fail(key, "duplicate row")
            rows[key] = row
        expected = [f"{fmt(v)}|{m}" for v in self.values for m in self.names]
        for key in set(rows) - set(expected):
            fail(key, "unexpected row")
        for key in expected:
            if key not in rows:
                fail(key, "missing row")

        rate = params_at(self.config, self.values[0]).rate
        out = {}
        for key in expected:
            if key not in rows:
                continue
            row = rows[key]
            try:
                p = float(row[2])
                thr = float(row[5])
            except ValueError:
                fail(key, "unparsable outage or throughput")
                continue
            out[key] = p
            mode = row[1].removesuffix("_noiseless")
            if not 0.0 <= p <= 1.0:
                fail(key, f"outage {p!r} outside [0, 1]")
            want_thr = (1.0 - p) * rate
            if abs(thr - want_thr) > THROUGHPUT_RTOL * (p * rate + thr) + 1e-9:
                fail(key, f"throughput {thr!r} != (1 - outage) * rate {want_thr!r}")
            if mode in _ANALYTIC:
                if row[3] or row[4]:
                    fail(key, "analytic row carries a confidence interval")
            else:
                try:
                    lo, hi = float(row[3]), float(row[4])
                except ValueError:
                    fail(key, "Monte Carlo row without a confidence interval")
                else:
                    if not lo <= p <= hi:
                        fail(key, f"p {p!r} outside [{lo!r}, {hi!r}]")
                want = self.counts.get(key)
                if want is None:
                    fail(key, "no Monte Carlo reference")
                elif row[2] != fmt(want / self.config["trials"]):
                    fail(key, f"outage {row[2]} != reference count "
                              f"{want}/{self.config['trials']}")
            ref = self.analytic.get(key)
            if isinstance(ref, str) and row[2] != ref:
                fail(key, f"noiseless outage {row[2]} != xi2 {ref}")
            elif isinstance(ref, float) and abs(p - ref) > ANALYTIC_RTOL * ref:
                fail(key, f"outage {p!r} != oracle {ref!r} "
                          f"(rel {abs(p - ref) / ref:.2e})")

        self._pairwise(out, fail)
        return bad

    def _pairwise(self, out: dict[str, float], fail) -> None:
        names = self.names
        for value in self.values:
            v = fmt(value)
            for suffix in ("", "_noiseless"):
                for lo, hi in (("analytic_lb", "analytic_ub"), ("mc_ub", "mc_exact")):
                    a, b = f"{v}|{lo}{suffix}", f"{v}|{hi}{suffix}"
                    if a in out and b in out and out[a] > out[b]:
                        fail(a, f"{lo}{suffix} {out[a]!r} > {hi}{suffix} {out[b]!r}")
            for name in names:
                if name.endswith("_noiseless"):
                    continue
                a, b = f"{v}|{name}_noiseless", f"{v}|{name}"
                if a in out and b in out and out[a] > out[b]:
                    fail(a, f"noiseless {out[a]!r} > noisy {out[b]!r}")
        if self.config["axis"] != "transmit_power_dBW":
            return
        for name in names:
            if name.removesuffix("_noiseless") not in _ANALYTIC:
                continue
            prev_key = None
            for value in self.values:
                key = f"{fmt(value)}|{name}"
                if key not in out:
                    continue
                if prev_key is not None and out[key] > out[prev_key]:
                    fail(key, f"{name} rises with power: {out[prev_key]!r} "
                              f"-> {out[key]!r}")
                prev_key = key


def write_reference() -> None:
    """Store the independent Monte Carlo counts for DEFAULT_SEED."""
    stored = {}
    for name in workloads.WORKLOADS:
        for smoke in (True, False):
            config = workloads.make_config(name, workloads.DEFAULT_SEED, smoke)
            if any(m.startswith("mc_") for m in config["modes"]):
                stored[f"{name}/{'smoke' if smoke else 'full'}"] = mc_counts(config)
    STORED_PATH.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
