"""Seeded sweep configs for the benchmark workloads.

Each workload is one sweep config shaped so that one layer dominates.  The
seed sets the Monte Carlo seed and shifts the grid by a sub-step offset, so
a claim can be rechecked on inputs that were not used while writing it.
The program sees only the generated YAML.

The offsets are kept to a small fraction of a grid step: xi1 cost roughly
halves every 4 dB of power, so a full-step shift would move the analytic
sweep's run time by tens of percent from seed to seed and swamp the
run-to-run spread the benchmark bounds.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import yaml

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    why: str


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "power_sweep_analytic", 1,
            "analytic bounds over a power axis at n=10, 2 m: Kummer/Meijer-G "
            "mpmath kernels dominate and no Monte Carlo runs"),
        Workload(
            "power_sweep_mc_2w", 2,
            "Monte Carlo over a power axis on 2 workers: one fading key shared "
            "by every point, so most drawn batches repeat an earlier one"),
        Workload(
            "element_sweep_mixed", 1,
            "element-count axis mixing analytic and Monte Carlo modes: every "
            "point has its own fading key and cascade shape, so little is shared"),
    )
}


def _offset(seed: int) -> float:
    """Sub-step shift in [0, 1) drawn from the seed."""
    return random.Random(seed).random()


def _power_sweep_analytic(seed: int, smoke: bool) -> dict:
    # the grid starts at -72 dBW: below about -79.5 dBW the series route is
    # wrong at isolated points (selftest.py keeps that defect visible)
    points, start, stop = (2, -72.0, -50.0) if smoke else (5, -72.0, -50.0)
    shift = 0.25 * _offset(seed)          # dB, a small fraction of the step
    return {
        "axis": "transmit_power_dBW",
        "start": start + shift, "stop": stop + shift, "points": points,
        "fixed": {"n": 10, "d_nd": 2.0},
        "modes": ["analytic_lb", "analytic_ub", "asymptotic",
                  "noiseless_variant"],
        "seed": seed,
    }


def _power_sweep_mc_2w(seed: int, smoke: bool) -> dict:
    # fig3_floor110 geometry; one batch per estimate
    trials = 5_000 if smoke else 250_000
    points = 2 if smoke else 4
    shift = 0.5 * _offset(seed)
    return {
        "axis": "transmit_power_dBW",
        "start": -50.0 + shift, "stop": -30.0 + shift, "points": points,
        "fixed": {"n": 10, "d_nd": 15.0, "sigma_d2": 1.0e-11},
        "modes": ["mc_exact", "mc_ub", "noiseless_variant"],
        "trials": trials, "batch": trials, "seed": seed,
    }


def _element_sweep_mixed(seed: int, smoke: bool) -> dict:
    # the element axis must hit integers, so the sub-step shift goes into
    # the fixed power instead of the axis
    start, stop, points = (4, 8, 2) if smoke else (4, 24, 5)
    trials = 5_000 if smoke else 50_000
    return {
        "axis": "element_count",
        "start": start, "stop": stop, "points": points,
        "fixed": {"d_nd": 5.0, "pb_dbw": -60.0 + 0.25 * _offset(seed)},
        "modes": ["analytic_lb", "mc_exact", "noiseless_variant"],
        "trials": trials, "batch": trials, "seed": seed,
    }


_CONFIG_OF = {
    "power_sweep_analytic": _power_sweep_analytic,
    "power_sweep_mc_2w": _power_sweep_mc_2w,
    "element_sweep_mixed": _element_sweep_mixed,
}


def make_config(name: str, seed: int, smoke: bool = False) -> dict:
    """The sweep config of one workload for one seed, as a YAML mapping."""
    config = _CONFIG_OF[name](seed, smoke)
    config["description"] = WORKLOADS[name].why
    return config


def write_config(name: str, seed: int, out_dir: Path, smoke: bool = False) -> Path:
    """Write the workload's config under out_dir and return its path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    size = "smoke" if smoke else "full"
    path = out_dir / f"{name}-{size}-seed{seed}.yaml"
    path.write_text(yaml.safe_dump(make_config(name, seed, smoke),
                                   sort_keys=True), encoding="utf-8")
    return path
