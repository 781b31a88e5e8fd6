"""Property tests: analytic outputs over random valid scenarios, the
parameter boundary over non-finite and out-of-range values, and the sweep
command over random configs."""
import inspect
import math
import re
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from risnoise.cli import ALL_MODES, AXIS_FIELDS, SweepGrid, main
from risnoise.fading import (
    cascade_moments,
    gamma_approx,
    sample_nakagami,
    y_gamma_params,
)
from risnoise.noise import (
    SystemParams,
    db_from_watts,
    path_loss,
    receiver_noise_power,
    ris_noise_power,
    sinr_threshold,
)
from risnoise.outage import (
    build_link_model,
    outage_report,
    xi1,
    xi1_asymptotic,
    xi1_closed,
    xi1_oracle,
    xi2,
    xi2_asymptotic,
)

# the ranges keep every xi1 series short (the slow regime is deep low
# power, where the series needs hundreds of digits)
scenarios = st.fixed_dictionaries({
    "n": st.integers(1, 12),
    "alpha": st.floats(0.1, 1.0),
    "m_bn": st.floats(0.5, 3.0),
    "m_nd": st.floats(0.5, 3.0),
    "d_nd": st.floats(1.0, 10.0),
    "pb_dbw": st.floats(-70.0, -40.0),
})

FLOAT_FIELDS = [f.name for f in fields(SystemParams)
                if f.name not in ("n", "ris_noise")]


def params_at(scenario, pb_dbw, **override):
    params = {k: v for k, v in scenario.items() if k != "pb_dbw"}
    return SystemParams(**{"pb": 10.0 ** (pb_dbw / 10.0), **params, **override})


def report_at(scenario, pb_dbw):
    return outage_report(build_link_model(params_at(scenario, pb_dbw)))


# derandomized: the suite sees the same examples on every run
@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(scenarios, st.floats(0.5, 5.0))
def test_outage_is_a_bracketed_probability_that_falls_with_power(scenario, step_db):
    low = report_at(scenario, scenario["pb_dbw"])
    high = report_at(scenario, scenario["pb_dbw"] + step_db)
    for rep in (low, high):
        for v in (rep.xi1, rep.xi2, rep.outage_lb, rep.outage_ub, rep.outage_asym):
            assert 0.0 <= v <= 1.0
        assert rep.outage_lb <= rep.outage_ub
    assert high.outage_lb <= low.outage_lb
    assert high.outage_ub <= low.outage_ub
    assert high.outage_asym <= low.outage_asym


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


# far past `scenarios`: element counts from 1 to 65536, shapes to 1e4, up
# to a kilometre on either hop, and 160 dB of transmit power
analytic_domain = st.fixed_dictionaries({
    "n": st.sampled_from([1, 2, 3, 7, 40, 256, 4096, 65536]),
    "m_bn": log_uniform(0.5, 1e4),
    "m_nd": log_uniform(0.5, 1e4),
    "d_nd": log_uniform(0.1, 1e3),
    "d_bn": log_uniform(1.0, 1e3),
    "alpha": log_uniform(0.01, 1.0),
    "rate": log_uniform(1e4, 1e9),
    "pb_dbw": st.floats(-140.0, 20.0),
})

_NAMED_FIELD = re.compile(
    rf"\b(?:{'|'.join(f.name for f in fields(SystemParams))})\b[\w, ]*: ")


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(analytic_domain)
def test_analytic_invariants_hold_over_the_whole_domain(scenario):
    try:
        low = report_at(scenario, scenario["pb_dbw"])
        high = report_at(scenario, scenario["pb_dbw"] + 3.0)
    except ValueError as exc:
        assert _NAMED_FIELD.search(str(exc)), str(exc)
        return
    for rep in (low, high):
        assert 0.0 <= rep.outage_lb <= rep.outage_ub <= 1.0
    assert high.outage_lb <= low.outage_lb
    if 1e-250 < low.xi1 < 0.5 and scenario["n"] <= 256:
        link = build_link_model(params_at(scenario, scenario["pb_dbw"]))
        oracle = xi1_oracle(link, integer_shape=True)
        assert abs(low.xi1 - oracle) <= 1e-6 * oracle


@settings(max_examples=50, database=None, derandomize=True)
@given(scenarios, st.sampled_from(FLOAT_FIELDS),
       st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400]))
def test_non_finite_parameters_are_refused_by_name(scenario, field, value):
    with pytest.raises(ValueError, match=f"{field}: finite number required"):
        params_at(scenario, scenario["pb_dbw"], **{field: value})


# a valid value and, where the argument has a range, one value outside it
_SHAPE = (st.floats(0.5, 5.0), 0.4)
_POWER = (st.floats(1e-8, 10.0), 0.0)
ARGUMENTS = {
    "n": (st.integers(1, 64), 0),
    "alpha": (st.floats(0.01, 1.0), 1.5),
    "m": _SHAPE, "m_bn": _SHAPE, "m_nd": _SHAPE,
    "temp": (st.floats(1.0, 1000.0), 0.0),
    "bw": (st.floats(1e3, 1e9), -1.0),
    "nf": (st.floats(1.0, 10.0), 0.9),
    "distance": (st.floats(0.5, 500.0), -2.0),
    "exponent": (st.floats(1.5, 4.0), None),
    "phi_ref": (st.floats(1e-3, 10.0), 0.0),
    "rate": (st.floats(0.0, 1e8), -1.0),
    "p": (st.floats(1e-20, 1e3), 0.0),
    "omega": _POWER, "omega_bn": _POWER, "omega_nd": _POWER,
    "mu": (st.floats(0.1, 10.0), -1.0),
    "sigma2": (st.floats(0.1, 10.0), 0.0),
    "ups": (st.floats(0.0, 100.0), -1.0),
}


def sample_amplitudes(m, omega):
    return sample_nakagami(np.random.default_rng(0), m, omega, size=3)


HELPERS = (receiver_noise_power, ris_noise_power, path_loss, sinr_threshold,
           db_from_watts, cascade_moments, y_gamma_params, gamma_approx,
           sample_amplitudes)
HELPER_ARGUMENTS = [(fn, name) for fn in HELPERS
                    for name in inspect.signature(fn).parameters]


def refused_by_name(name, call):
    # 10**400 is an int no double holds
    for bad in (math.nan, math.inf, -math.inf, 10 ** 400):
        with pytest.raises(ValueError,
                           match=rf"\b{re.escape(name)}: finite number required"):
            call(bad)
    out_of_range = ARGUMENTS[name][1]
    if out_of_range is not None:
        with pytest.raises(ValueError, match=rf"\b{re.escape(name)}: "):
            call(out_of_range)


@pytest.mark.parametrize("fn,name", HELPER_ARGUMENTS,
                         ids=[f"{fn.__name__}-{name}" for fn, name in HELPER_ARGUMENTS])
@settings(max_examples=10, database=None, derandomize=True)
@given(data=st.data())
def test_helpers_refuse_bad_arguments_by_name(fn, name, data):
    args = {k: data.draw(ARGUMENTS[k][0], label=k)
            for k in inspect.signature(fn).parameters}
    refused_by_name(name, lambda bad: fn(**{**args, name: bad}))


XI_FUNCTIONS = (xi1, xi2, xi1_closed, xi1_oracle, xi1_asymptotic, xi2_asymptotic)


@pytest.mark.parametrize("fn", XI_FUNCTIONS, ids=[f.__name__ for f in XI_FUNCTIONS])
@settings(max_examples=10, database=None, derandomize=True)
@given(scenarios)
def test_threshold_is_refused_by_name(fn, scenario):
    link = build_link_model(params_at(scenario, scenario["pb_dbw"]))
    refused_by_name("ups", lambda bad: fn(link, bad))


# Values of every kind a YAML mapping holds.  A size (points, trials,
# batch, n, or an end of the element_count axis) is drawn small where it is
# valid: n = 10**6 with Monte Carlo would ask for batch*n*8 bytes, so only
# sizes the rule table refuses run large.
_EXTREMES = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300, sys.float_info.max,
                             -sys.float_info.max, math.inf, -math.inf, math.nan])
_NOT_NUMBERS = st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                         st.lists(st.integers(0, 3), max_size=2))
_HUGE_INTS = st.sampled_from([10 ** 18, 10 ** 400, -10 ** 400])
_ANY = st.one_of(st.integers(-5, 100), st.floats(), _EXTREMES, _HUGE_INTS,
                 _NOT_NUMBERS)


def _size(cap, *refused):
    # a valid size is at most cap; the others are refused by the rule table
    return st.one_of(st.integers(-1, cap), st.sampled_from([10 ** 400, *refused]),
                     st.floats(), _NOT_NUMBERS)


_FIXED_KEYS = sorted([f.name for f in fields(SystemParams)] + ["pb_dbw", "junk"])


@st.composite
def sweep_configs(draw):
    axis = draw(st.one_of(st.sampled_from(sorted(AXIS_FIELDS)), _ANY))
    ends = _size(64) if axis == "element_count" else _ANY
    fixed = draw(st.dictionaries(st.sampled_from(_FIXED_KEYS), _ANY, max_size=3))
    if "n" in fixed:
        fixed["n"] = draw(_size(64))
    pool = {
        "axis": st.just(axis), "start": ends, "stop": ends,
        "points": _size(3, 10 ** 18), "trials": _size(2_000),
        "batch": _size(2_000, 10 ** 18), "fixed": st.one_of(st.just(fixed), _ANY),
        "modes": st.one_of(st.lists(st.sampled_from(ALL_MODES), max_size=4), _ANY),
        "seed": _ANY, "ci_level": _ANY, "description": _ANY, "junk": _ANY}
    assert set(pool) == {*vars(SweepGrid()), "junk"}   # every config key
    keys = draw(st.sets(st.sampled_from(sorted(pool))))
    return {key: draw(pool[key]) for key in sorted(keys)}


# configs that escaped as tracebacks: an OverflowError in path_loss, a
# ZeroDivisionError in xi2, a MemoryError building the grid, a
# ZeroDivisionError in the noise budget, an OverflowError in lgamma (now a
# refused Y shape) and a cascade shape past the double range; and two sizes
# refused before they allocate: 8.2e9 xi1 nodes, and a Monte Carlo batch of
# 250,000 x 1e5 transmitter-hop amplitudes (200 GB)
@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@example({"fixed": {"tau_bn": -400.0}})
@example({"axis": "reflection_factor", "start": 5e-324, "stop": 1e-300,
          "points": 2, "fixed": {"temp": 1e300}, "modes": ["analytic_lb"]})
@example({"points": 10 ** 18})
@example({"fixed": {"temp": 5e-324}})
@example({"fixed": {"m_nd": sys.float_info.max}})
@example({"fixed": {"m_bn": sys.float_info.max, "m_nd": sys.float_info.max}})
@example({"fixed": {"n": 10 ** 18}, "modes": ["analytic_lb"]})
@example({"fixed": {"n": 10 ** 5}, "modes": ["mc_ub"]})
@given(sweep_configs())
def test_sweep_exits_0_or_2_on_any_config(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "sweep.yaml")
        path.write_text(yaml.safe_dump(config), encoding="utf-8")
        assert main(["sweep", "--config", str(path),
                     "--out", str(Path(tmp, "out.csv"))]) in (0, 2)
