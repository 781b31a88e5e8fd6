"""Command-line layer: config parsing, CSV contract, self-checks, presets."""
import ast
import csv
import hashlib
import itertools
import math
import os
import threading
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml

import risnoise
from risnoise import cli, mcsim, noise, outage, specfun
from risnoise.cli import (
    ALL_MODES,
    CSV_HEADER,
    ConfigError,
    SweepGrid,
    _params_at,
    list_presets,
    load_grid,
    main,
    run_sweep,
    validate,
    write_gnuplot_script,
)

SMALL_SWEEP = """\
axis: transmit_power_dBW
start: -66.0
stop: -60.0
points: 3
fixed:
  n: 5
modes: [analytic_lb, mc_exact, noiseless_variant]
trials: 1000
seed: 7
batch: 400
"""


# every mode with its noiseless twin, over three Monte Carlo batches
EVERY_MODE_SWEEP = """\
start: -66.0
stop: -60.0
points: 3
fixed: {n: 5}
modes: [analytic_lb, analytic_ub, asymptotic, mc_exact, mc_lb, mc_ub, noiseless_variant]
trials: 4000
batch: 1500
seed: 7
"""


def write_config(tmp_path, text, name="sweep.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestLoadGrid:
    def test_empty_config_runs_baseline(self, tmp_path):
        grid = load_grid(write_config(tmp_path, ""))
        assert grid.axis == "transmit_power_dBW"
        assert (grid.start, grid.stop, grid.points) == (-80.0, -50.0, 31)
        assert grid.modes == ("analytic_lb",)
        assert grid.trials == 1_000_000
        assert grid.seed == 20240817
        assert grid == SweepGrid()

    def test_round_trip(self, tmp_path):
        grid = load_grid(write_config(tmp_path, SMALL_SWEEP))
        assert grid == SweepGrid(
            axis="transmit_power_dBW", start=-66.0, stop=-60.0, points=3,
            fixed={"n": 5},
            modes=("analytic_lb", "mc_exact", "noiseless_variant"),
            trials=1000, seed=7, batch=400)

    def test_problems_are_itemized(self, tmp_path):
        path = write_config(tmp_path, "axis: frequency\npoints: 1\nbogus: 3\n")
        with pytest.raises(ConfigError) as err:
            load_grid(path)
        msg = str(err.value)
        assert path in msg
        assert "unknown key 'bogus'" in msg
        assert "axis:" in msg
        assert "points:" in msg

    # an int key sorts beside a str key by its text
    @pytest.mark.parametrize("text,want", [
        ("1: 2\nbogus: 3\n", ["unknown key 1", "unknown key 'bogus'"]),
        ("fixed:\n  1: 2\n  bogus: 3\n", ["fixed.1: ", "fixed.bogus: "])])
    def test_mixed_type_keys_are_listed_as_unknown(self, tmp_path, text, want):
        with pytest.raises(ConfigError) as err:
            load_grid(write_config(tmp_path, text))
        lines = str(err.value).splitlines()[1:]
        assert [line.strip()[:len(w)] for line, w in zip(lines, want)] == want
        assert len(lines) == 2

    def test_unhashable_axis_is_refused(self, tmp_path):
        with pytest.raises(ConfigError, match=r"axis: must be one of .*\['a'\]"):
            load_grid(write_config(tmp_path, "axis: [a]\n"))

    # a value each rule refuses: the message is the rule table's own line
    @pytest.mark.parametrize("key,text,value", [
        ("start", ".nan", math.nan), ("stop", "1" + "0" * 400, 10 ** 400),
        ("points", "2.5", 2.5), ("points", "1" + "0" * 18, 10 ** 18),
        ("trials", "999", 999), ("seed", "-1", -1),
        ("batch", "true", True), ("ci_level", "1", 1)])
    def test_settings_are_refused_by_the_rule_table(self, tmp_path, key, text,
                                                    value):
        with pytest.raises(ConfigError) as err:
            load_grid(write_config(tmp_path, f"{key}: {text}\n"))
        [line] = noise.problems(**{key: value})
        assert line.startswith(f"{key}: ")
        assert str(err.value).splitlines()[1:] == [f"  {line}"]

    def test_pb_and_pb_dbw_conflict(self, tmp_path):
        path = write_config(tmp_path,
                            "fixed:\n  pb: 1e-6\n  pb_dbw: -60.0\n")
        with pytest.raises(ConfigError, match="not both"):
            load_grid(path)

    def test_unknown_fixed_key(self, tmp_path):
        path = write_config(tmp_path, "fixed:\n  bandwidth: 2e7\n")
        with pytest.raises(ConfigError, match="fixed.bandwidth"):
            load_grid(path)

    # _params_at overwrote a fixed value of the swept field with no word
    @pytest.mark.parametrize("axis, ends, entry", [
        ("element_count", "start: 5\nstop: 10", "n: 20"),
        ("transmit_power_dBW", "start: -70.0\nstop: -60.0", "pb_dbw: -50.0"),
        ("transmit_power_dBW", "start: -70.0\nstop: -60.0", "pb: 1.0e-6"),
        ("ris_receiver_distance_m", "start: 2.0\nstop: 8.0", "d_nd: 3.0"),
        ("reflection_factor", "start: 0.2\nstop: 0.8", "alpha: 0.5"),
    ])
    def test_fixed_key_the_axis_sweeps_is_refused(self, tmp_path, capsys, axis,
                                                  ends, entry):
        config = write_config(tmp_path, f"axis: {axis}\n{ends}\npoints: 6\n"
                                        f"fixed: {{{entry}}}\n")
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 2
        key = entry.split(":")[0]
        assert f"  fixed.{key}: the {axis} axis sets it" in capsys.readouterr().err
        assert not out.exists()

    # YAML 1.1 reads 1e6 and 1.0e6 as text; only 1.0e+6 and 1000000 are numbers
    @pytest.mark.parametrize("text, line", [
        ("trials: 1e6\n", "trials: finite number required, got '1e6'"),
        ("fixed: {rate: 1.5e7}\n",
         "fixed.rate: finite number required, got '1.5e7'"),
    ])
    def test_number_read_as_text_names_the_yaml_fix(self, tmp_path, text, line):
        with pytest.raises(ConfigError) as err:
            load_grid(write_config(tmp_path, text))
        [got] = str(err.value).splitlines()[1:]
        assert got.startswith(f"  {line} (") and "1.0e+6" in got
        assert "1000000" in got

    def test_numbers_yaml_reads_as_numbers_load(self, tmp_path):
        # a None noise power is derived, so it passes the load
        grid = load_grid(write_config(
            tmp_path, "trials: 1000000\nfixed: {rate: 1.5e+7, sigma_d2: null}\n"))
        assert grid.trials == 1_000_000
        assert grid.fixed == {"rate": 1.5e7, "sigma_d2": None}

    def test_text_that_is_no_number_gets_no_hint(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_grid(write_config(tmp_path, "trials: many\nseed: nan\n"))
        assert "YAML" not in str(err.value)

    def test_noiseless_variant_cannot_stand_alone(self, tmp_path):
        path = write_config(tmp_path, "modes: [noiseless_variant]\n")
        with pytest.raises(ConfigError, match="cannot be the only one"):
            load_grid(path)

    def test_unknown_mode_rejected(self, tmp_path):
        path = write_config(tmp_path, "modes: [analytic_lb, exact]\n")
        with pytest.raises(ConfigError, match="unknown"):
            load_grid(path)

    def test_empty_mode_list_rejected(self, tmp_path):
        path = write_config(tmp_path, "modes: []\n")
        with pytest.raises(ConfigError, match="nonempty"):
            load_grid(path)

    def test_element_count_axis_must_hit_integers(self, tmp_path):
        bad = write_config(tmp_path,
                           "axis: element_count\nstart: 5\nstop: 20\npoints: 7\n")
        with pytest.raises(ConfigError, match="integer"):
            load_grid(bad)
        ok = load_grid(write_config(tmp_path,
                                    "axis: element_count\nstart: 5\nstop: 20\n"
                                    "points: 4\n", name="ok.yaml"))
        assert ok.points == 4

    def test_start_must_precede_stop(self, tmp_path):
        path = write_config(tmp_path, "start: -50.0\nstop: -80.0\n")
        with pytest.raises(ConfigError, match="start must be below stop"):
            load_grid(path)

    @pytest.mark.parametrize("axis", ["transmit_power_dBW", "element_count"])
    @pytest.mark.parametrize("key,value", [
        ("start", ".nan"), ("stop", ".inf"), ("start", "-.inf"),
        ("stop", "1" + "0" * 400)])   # an int no double holds
    def test_start_and_stop_must_be_finite(self, tmp_path, axis, key, value):
        path = write_config(tmp_path, f"axis: {axis}\n{key}: {value}\n")
        with pytest.raises(ConfigError) as err:
            load_grid(path)
        assert f"{key}: finite number required" in str(err.value)
        assert "pb:" not in str(err.value)
        assert "below" not in str(err.value)

    def test_modes_override_is_canonically_ordered(self, tmp_path):
        path = write_config(tmp_path, SMALL_SWEEP)
        grid = load_grid(path, modes=("asymptotic", "analytic_lb"))
        assert grid.modes == ("analytic_lb", "asymptotic")

    def test_seed_and_trials_override(self, tmp_path):
        grid = load_grid(write_config(tmp_path, SMALL_SWEEP),
                         seed=99, trials=5000)
        assert (grid.seed, grid.trials) == (99, 5000)

    def test_yaml_syntax_error_carries_path(self, tmp_path):
        path = write_config(tmp_path, "axis: [unclosed\n")
        with pytest.raises(ConfigError, match="sweep.yaml"):
            load_grid(path)

    def test_top_level_must_be_mapping(self, tmp_path):
        path = write_config(tmp_path, "- 1\n- 2\n")
        with pytest.raises(ConfigError, match="mapping"):
            load_grid(path)

    def test_monte_carlo_settings_are_checked_by_their_config(self, tmp_path):
        path = write_config(tmp_path, "trials: 10\nseed: -1\nbatch: true\n"
                                      "ci_level: 1.5\n")
        with pytest.raises(ConfigError) as err:
            load_grid(path)
        for field in ("trials", "seed", "batch", "ci_level"):
            assert f"{field}:" in str(err.value)

    def test_one_config_error_class(self):
        assert ConfigError is risnoise.ConfigError is mcsim.ConfigError

    def test_unknown_preset_lists_the_real_ones(self):
        with pytest.raises(ConfigError, match="fig1_n5"):
            load_grid("no_such_preset")


class TestParamsAt:
    def test_power_axis_converts_to_watts(self):
        grid = SweepGrid(axis="transmit_power_dBW", start=-80, stop=-50,
                         points=4, fixed={}, modes=("analytic_lb",))
        assert _params_at(grid, -60.0).pb == pytest.approx(1e-6, rel=1e-12)

    def test_pb_dbw_in_fixed_converts(self):
        grid = SweepGrid(axis="element_count", start=5, stop=20, points=4,
                         fixed={"pb_dbw": -60.0}, modes=("analytic_lb",))
        params = _params_at(grid, 10.0)
        assert params.pb == pytest.approx(1e-6, rel=1e-12)
        assert params.n == 10
        assert isinstance(params.n, int)

    def test_other_axes_pass_through(self):
        grid = SweepGrid(axis="reflection_factor", start=0.1, stop=1.0,
                         points=10, fixed={}, modes=("analytic_lb",))
        assert _params_at(grid, 0.7).alpha == 0.7


class TestSweepCsv:
    @pytest.fixture(scope="class")
    @staticmethod
    def sweep(tmp_path_factory):
        tmp = tmp_path_factory.mktemp("sweep")
        config = write_config(tmp, SMALL_SWEEP)
        out = str(tmp / "out.csv")
        count = run_sweep(config, out)
        return config, out, count

    def test_header_is_frozen(self, sweep):
        _, out, _ = sweep
        assert read_rows(out)[0] == list(CSV_HEADER)

    def test_row_count_and_mode_order(self, sweep):
        _, out, count = sweep
        rows = read_rows(out)[1:]
        assert count == len(rows) == 12
        per_point = ["analytic_lb", "mc_exact",
                     "analytic_lb_noiseless", "mc_exact_noiseless"]
        assert [r[1] for r in rows] == per_point * 3

    def test_analytic_rows_have_no_ci(self, sweep):
        _, out, _ = sweep
        for row in read_rows(out)[1:]:
            if row[1].startswith("analytic"):
                assert row[3] == "" and row[4] == ""

    def test_mc_rows_bracket_the_estimate(self, sweep):
        _, out, _ = sweep
        seen = 0
        for row in read_rows(out)[1:]:
            if row[1].startswith("mc_"):
                lo, hi = float(row[3]), float(row[4])
                assert lo <= float(row[2]) <= hi
                seen += 1
        assert seen == 6

    def test_noiseless_rows_zero_the_surface_noise(self, sweep):
        _, out, _ = sweep
        for row in read_rows(out)[1:]:
            lam = float(row[6])
            if row[1].endswith("_noiseless"):
                assert lam == 0.0
            else:
                assert lam > 0.0

    def test_throughput_column_is_consistent(self, sweep):
        _, out, _ = sweep
        for row in read_rows(out)[1:]:
            want = (1.0 - float(row[2])) * 15e6
            assert float(row[5]) == pytest.approx(want, rel=1e-9, abs=1e-3)

    def test_rerun_is_byte_identical(self, sweep, tmp_path):
        config, out, _ = sweep
        again = str(tmp_path / "again.csv")
        run_sweep(config, again)
        with open(out, "rb") as a, open(again, "rb") as b:
            assert a.read() == b.read()

    def test_worker_pool_does_not_change_output(self, sweep, tmp_path):
        config, out, _ = sweep
        pooled = str(tmp_path / "pooled.csv")
        run_sweep(config, pooled, workers=3)
        with open(out, "rb") as a, open(pooled, "rb") as b:
            assert a.read() == b.read()

    @pytest.mark.parametrize("shapes, digest", [
        ("", "36c991962487b7c042e7f76c5f07d38487863f702faded543520af039ce66cbf"),
        (", m_bn: 1.5, m_nd: 2.5",
         "6f52b2551e0da9825c7310dad81d4d8484f4ec5da2f847f51282ffb835c4fa5d"),
    ])
    def test_element_sweep_is_pinned_on_any_worker_count(self, tmp_path, shapes,
                                                        digest):
        # five fading keys over three batches: at equal shapes one stream
        # serves them all, at unequal shapes each n has its own
        config = write_config(tmp_path, "axis: element_count\nstart: 4\nstop: 24\n"
                                        "points: 5\nfixed: {d_nd: 5.0, pb_dbw: -60.0"
                                        f"{shapes}}}\nmodes: [mc_exact, mc_ub, "
                                        "noiseless_variant]\ntrials: 3000\n"
                                        "batch: 1000\nseed: 11\n")
        for workers in (1, 2, 3):
            out = tmp_path / f"elements{workers}.csv"
            assert run_sweep(config, str(out), workers=workers) == 20
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, workers

    def test_one_batch_sweep_is_pinned_on_any_worker_count(self, tmp_path):
        # one fading key in one batch: a one-job plan, whose spare workers
        # draw its stream ahead
        config = write_config(tmp_path, "start: -70.0\nstop: -61.0\npoints: 4\n"
                                        "fixed: {n: 10, d_nd: 5.0}\nmodes: [mc_exact, "
                                        "mc_ub, noiseless_variant]\ntrials: 40000\n"
                                        "batch: 40000\nseed: 17\n")
        for workers in (1, 2, 3):
            out = tmp_path / f"one_batch{workers}.csv"
            assert run_sweep(config, str(out), workers=workers) == 16
            assert hashlib.sha256(out.read_bytes()).hexdigest() == (
                "0519b1bbb444dac2a298fbc09df218d187e20d84f82cfad0f88701514011637c"), workers

    @pytest.mark.parametrize("config, rows, digest", [
        # equal shapes, n 14 to 24: every key's receiver hop starts in the
        # head and ends past it, and one run's piece straddles the two
        ("axis: element_count\nstart: 14\nstop: 24\npoints: 6\n"
         "fixed: {d_nd: 5.0, pb_dbw: -60.0}\ntrials: 20000\nbatch: 20000\nseed: 23\n",
         24, "c261eb370de8b41e7e73a9a0df0fdd361df79ae7b87432d9dfd370f1b550737c"),
        # unequal shapes: the head and the tail are two runs
        ("start: -70.0\nstop: -61.0\npoints: 4\n"
         "fixed: {n: 10, d_nd: 5.0, m_bn: 1.5, m_nd: 2.5}\ntrials: 40000\n"
         "batch: 40000\nseed: 19\n",
         16, "bbc3150aef95e61cfb8573d540fb0151252704d95ed55457cf57b8945c4ae1f1"),
    ])
    def test_a_helped_one_batch_sweep_is_pinned_on_any_worker_count(
            self, tmp_path, monkeypatch, config, rows, digest):
        # a one-job plan on 3 CPUs: up to 2 helpers draw ahead and count
        monkeypatch.setattr(mcsim, "_usable_cpus", lambda: 3)
        config = write_config(tmp_path, config + "modes: [mc_exact, mc_ub, "
                                                 "noiseless_variant]\n")
        for workers in (1, 2, 3):
            out = tmp_path / f"helped{workers}.csv"
            assert run_sweep(config, str(out), workers=workers) == rows
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, workers

    def test_a_refusal_in_a_late_count_stops_the_sweep(self, tmp_path, monkeypatch):
        # a NaN power in the last block counted, on the job's own thread,
        # after the helper's last draw
        monkeypatch.setattr(mcsim, "_usable_cpus", lambda: 2)
        config = write_config(tmp_path, "start: -70.0\nstop: -61.0\npoints: 2\n"
                                        "fixed: {n: 10}\nmodes: [mc_exact]\n"
                                        "trials: 40000\nbatch: 40000\nseed: 3\n")
        real = mcsim._outage_counts
        calls = []

        def counted(x, y, requests):
            calls.append(threading.current_thread())
            return real(x, y, requests)

        monkeypatch.setattr(mcsim, "_outage_counts", counted)
        run_sweep(config, str(tmp_path / "dry.csv"), workers=2)
        assert set(calls) == {threading.main_thread()}
        late = len(calls)
        calls.clear()

        def nan_late(x, y, requests):
            calls.append(threading.current_thread())
            if len(calls) == late:
                x = np.where(np.arange(x.size) == x.size // 2, math.nan, x)
            return real(x, y, requests)

        monkeypatch.setattr(mcsim, "_outage_counts", nan_late)
        before = set(threading.enumerate())
        out = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=r"^powers must be nonnegative$"):
            run_sweep(config, str(out), workers=2)
        assert len(calls) == late
        assert set(threading.enumerate()) <= before
        assert not out.exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_mode_sweep_is_pinned(self, tmp_path, workers):
        # a refactor that moves one byte of any mode's rows fails here
        out = tmp_path / "every.csv"
        count = run_sweep(write_config(tmp_path, EVERY_MODE_SWEEP), str(out),
                          workers=workers)
        assert count == 36
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "85e6ce52191c3cc14348512f7f3379a0a67d93a6293c74142f3f5f12ad1deba5")

    @pytest.mark.parametrize("noiseless", [False, True])
    @pytest.mark.parametrize("modes", [
        modes for k in range(1, len(outage.ANALYTIC_MODES) + 1)
        for modes in itertools.combinations(outage.ANALYTIC_MODES, k)])
    def test_an_analytic_mode_subset_is_the_all_modes_csv_filtered(
            self, tmp_path, modes, noiseless):
        config = write_config(tmp_path, "start: -78.0\nstop: -54.0\npoints: 5\n"
                                        "fixed: {n: 10}\n")
        twin = ("noiseless_variant",) if noiseless else ()
        every, subset = tmp_path / "every.csv", tmp_path / "subset.csv"
        run_sweep(config, str(every), modes=(*outage.ANALYTIC_MODES, *twin))
        run_sweep(config, str(subset), modes=(*modes, *twin))
        header, *lines = every.read_bytes().splitlines(keepends=True)
        want = [line for line in lines
                if line.split(b",")[1].decode().removesuffix("_noiseless") in modes]
        assert subset.read_bytes() == b"".join([header, *want])

    def test_each_point_builds_its_params_and_links_once(self, tmp_path,
                                                         monkeypatch):
        # one checked SystemParams per grid value and its unchecked noiseless
        # twin, and all 6 links (3 values x noisy, noiseless) from one
        # build_link_models call, whatever the 12 rows per value.  Each link
        # takes its own noise budget; the three noisy links share one pb-free
        # derivation of the rest, and so do the three noiseless ones.
        built = {"params": 0, "twins": 0, "calls": 0, "links": 0, "budgets": 0,
                 "hops": 0}
        check = noise.SystemParams.__post_init__
        twin = noise.SystemParams.noiseless

        def counted_check(params):
            built["params"] += 1
            check(params)

        def counted_twin(params):
            built["twins"] += 1
            return twin(params)

        def counted_links(params_seq):
            built["calls"] += 1
            links = outage.build_link_models(params_seq)
            built["links"] += len(links)
            return links

        def counted(key, f):
            def call(*args):
                built[key] += 1
                return f(*args)
            return call

        monkeypatch.setattr(noise.SystemParams, "__post_init__", counted_check)
        monkeypatch.setattr(noise.SystemParams, "noiseless", counted_twin)
        monkeypatch.setattr(cli, "build_link_models", counted_links)
        monkeypatch.setattr(outage, "build_noise_budget",
                            counted("budgets", outage.build_noise_budget))
        monkeypatch.setattr(outage, "hop_powers", counted("hops", outage.hop_powers))
        run_sweep(write_config(tmp_path, EVERY_MODE_SWEEP),
                  str(tmp_path / "every.csv"), workers=1)
        assert built == {"params": 3, "twins": 3, "calls": 1, "links": 6,
                         "budgets": 6, "hops": 2}

    def test_an_analytic_sweep_checks_each_value_once(self, tmp_path, monkeypatch):
        # 5 powers, noisy and noiseless: the rule table runs on the config
        # (11), the 5 noisy params (their noiseless twins are not checked
        # again), the Monte Carlo settings and the 2 derived cascade
        # moments, and on nothing derived from them again (167 runs when
        # each link re-checked its fields and each output its value)
        runs = []
        problems = noise._problems

        def counted(values):
            runs.append(tuple(values))
            return problems(values)

        hops = []
        monkeypatch.setattr(noise, "_problems", counted)
        monkeypatch.setattr(outage, "hop_powers",
                            lambda params: hops.append(params) or noise.hop_powers(params))
        config = write_config(tmp_path, (
            "start: -72.0\nstop: -50.0\npoints: 5\nfixed: {n: 10, d_nd: 2.0}\n"
            "modes: [analytic_lb, analytic_ub, asymptotic, noiseless_variant]\n"))
        assert run_sweep(config, str(tmp_path / "out.csv"), workers=1) == 30
        assert len(runs) <= 19, runs
        assert [p.ris_noise for p in hops] == [True, False]

    @pytest.mark.parametrize("target, fault, line", [
        (outage, "_xi2_values", "xi2: finite number required, got nan"),
        (cli, "estimate_outages", "outage: finite number required, got nan"),
    ])
    def test_a_nan_output_is_refused_not_written(self, tmp_path, monkeypatch,
                                                 target, fault, line):
        real = getattr(target, fault)

        def nan_at_second(*args, **kwargs):
            values = real(*args, **kwargs)
            if len(values) > 1:
                values[1] = (math.nan if fault == "_xi2_values"
                             else mcsim.McEstimate(math.nan, 0.0, 1.0, 1000))
            return values

        monkeypatch.setattr(target, fault, nan_at_second)
        out = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=line):
            run_sweep(write_config(tmp_path, SMALL_SWEEP), str(out), workers=1)
        assert not out.exists()

    def test_analytic_rows_do_not_depend_on_worker_count(self, tmp_path):
        # analytic rows run in double precision and touch no mpmath; the
        # pool that runs the Monte Carlo batches must not change them
        config = write_config(tmp_path, (
            "start: -72.0\nstop: -58.0\npoints: 8\nfixed: {n: 10}\n"
            "modes: [analytic_lb, analytic_ub]\n"))
        serial, pooled = str(tmp_path / "serial.csv"), str(tmp_path / "pooled.csv")
        run_sweep(config, serial, workers=1)
        run_sweep(config, pooled, workers=4)
        with open(serial, "rb") as a, open(pooled, "rb") as b:
            assert a.read() == b.read()

    def test_monte_carlo_only_sweep_runs_no_interference_series(
            self, sweep, tmp_path, monkeypatch):
        config, out, _ = sweep

        def no_series(*args, **kwargs):
            raise AssertionError("a Monte Carlo-only sweep evaluated xi1")

        monkeypatch.setattr(outage, "xi1", no_series)
        monkeypatch.setattr(outage, "xi1_closed", no_series)
        # the sweep's analytic pass reaches the xi1 kernel without either name
        monkeypatch.setattr(cli, "outage_reports", no_series)
        mc_only = str(tmp_path / "mc_only.csv")
        run_sweep(config, mc_only, modes=("mc_exact", "noiseless_variant"))
        # the link-model columns match the rows of the mixed sweep
        want = [r for r in read_rows(out)[1:] if r[1].startswith("mc_")]
        assert read_rows(mc_only)[1:] == want

    def test_delta_zeta_shared_between_variants(self, sweep):
        # fading stats do not depend on the noise switch
        _, out, _ = sweep
        rows = read_rows(out)[1:5]
        assert {r[7] for r in rows} == {rows[0][7]}
        assert {r[8] for r in rows} == {rows[0][8]}


class TestGnuplot:
    def test_a_quote_in_the_csv_path_is_doubled(self, tmp_path):
        # gnuplot's single-quoted strings take '' for a quote
        script = tmp_path / "plot.gp"
        write_gnuplot_script("it's.csv", str(script), ["analytic_lb"])
        text = script.read_text(encoding="utf-8")
        assert "plot 'it''s.csv' using" in text
        assert "'it's.csv'" not in text

    def test_script_filters_by_mode(self, tmp_path):
        script = str(tmp_path / "plot.gp")
        write_gnuplot_script("data.csv", script, ["analytic_lb", "mc_exact"])
        text = Path(script).read_text(encoding="utf-8")
        assert "set logscale y" in text
        assert text.count("strcol(2)") == 2
        assert "'analytic_lb'" in text and "'mc_exact'" in text


def nan_at_second_call(f):
    """f, returning NaN at its second call."""
    calls = itertools.count(1)
    return lambda *a, **kw: math.nan if next(calls) == 2 else f(*a, **kw)


class TestValidate:
    def test_fast_level_is_green(self):
        passed, lines = validate("fast")
        assert passed
        assert lines[-1].startswith("all checks passed")

    def test_boltzmann_fault_is_caught(self, monkeypatch):
        # a 1% constant fault moves the reference grid by ~0.04 dB,
        # an order of magnitude past the gate
        monkeypatch.setattr(noise, "BOLTZMANN", noise.BOLTZMANN * 1.01)
        passed, lines = validate("fast")
        assert not passed
        failing = [ln for ln in lines if ln.startswith("FAIL")]
        assert len(failing) == 1
        assert failing[0].startswith("FAIL table2:")

    # (check, module, name, fault): each validate check that shares its body
    # with a release gate, and a fault planted in what the body measures.
    # The contour fault is 1e-5: at 1e-6 it reads 9.99999e-7, inside the
    # 1e-6 tolerance.
    PLANTED_FAULTS = [
        ("table2", noise, "BOLTZMANN", lambda k: k * 1.01),
        ("gamma-identity", specfun, "meijer_g_1_1_1_2",
         lambda f: lambda *a: f(*a) * (1.0 + 1e-6)),
        ("kummer-transform", specfun, "kummer_1f1",
         lambda f: lambda *a: f(*a) * (1.0 + 1e-6)),
        ("meijer-dual-route", specfun, "meijer_g_2_1_1_2_contour",
         lambda f: lambda *a, **kw: f(*a, **kw) * (1.0 + 1e-5)),
        ("series-vs-quadrature", cli, "xi1_closed",
         lambda f: lambda link: f(link) * (1.0 + 1e-5)),
        ("noiseless-reduction", cli, "xi2",
         lambda f: lambda link: math.nextafter(f(link), math.inf)),
        ("asymptote-slope", cli, "outage_asymptotic",
         lambda f: lambda link: f(link) ** (1.0 + 1e-6)),
        ("mc-moments", outage, "_cascade_moments",
         lambda f: lambda *a: (1.01 * f(*a)[0], f(*a)[1])),
        ("mc-sandwich", cli, "sinr_bounds", lambda f: lambda *a: f(*a)[::-1]),
    ]

    # NaN loses every comparison: a check that took the worst gap by max()
    # or `>` passed it over at any point but the first
    NAN_FAULTS = [
        ("kummer-transform", specfun, "kummer_1f1", nan_at_second_call),
        ("series-vs-quadrature", cli, "xi1_closed", nan_at_second_call),
    ]

    @pytest.mark.parametrize("check, module, name, fault", PLANTED_FAULTS + NAN_FAULTS,
                             ids=[fault[0] for fault in PLANTED_FAULTS]
                             + [fault[0] + "-nan" for fault in NAN_FAULTS])
    def test_a_fault_in_what_a_shared_check_measures_fails_it(
            self, monkeypatch, check, module, name, fault):
        # the release gate calls the same body, so a body that could not
        # fail would leave the gate and the check green together
        monkeypatch.setattr(module, name, fault(getattr(module, name)))
        call, = [call for _, entry, call in cli._validate_checks() if entry == check]
        passed, detail = call()
        assert not passed, detail

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="level"):
            validate("paranoid")


class TestPresets:
    def test_all_presets_are_listed_and_described(self):
        names = dict(list_presets())
        assert set(names) == {"fig1_n5", "fig1_n10", "fig2_d5m", "fig2_d8m",
                              "fig3_floor110", "fig3_floor128"}
        assert all(names.values())

    @pytest.mark.parametrize("name", ["fig1_n5", "fig1_n10", "fig2_d5m",
                                      "fig2_d8m", "fig3_floor110",
                                      "fig3_floor128"])
    def test_every_preset_loads(self, name):
        grid = load_grid(name)
        assert grid.points >= 2
        assert set(grid.modes) <= set(ALL_MODES)

    def test_parsed_as_yaml_safe_load_parses(self):
        # the libyaml loader shares safe_load's constructor and resolver;
        # repr tells 1 from 1.0 and True, which == does not
        if yaml.__with_libyaml__:
            assert cli._YAML_LOADER is yaml.CSafeLoader
        edge = ("a: 1e6\nb: 1.0e6\nc: .inf\nd: -.inf\ne: yes\nf: No\n"
                "g: ~\nh: 0x10\ni: 010\nj: 1_000\nk: [on, off, null]\n"
                "l: 2024-01-02\nm: '7'\n")
        texts = [edge] + [(cli._preset_dir() / f"{name}.yaml").read_text(
            encoding="utf-8") for name, _ in list_presets()]
        for text in texts:
            got = yaml.load(text, Loader=cli._YAML_LOADER)
            want = yaml.safe_load(text)
            assert repr(got) == repr(want) and got == want
        assert yaml.load(edge, Loader=cli._YAML_LOADER)["h"] == 16

    def test_fig1_n5_low_outage_crossing(self, tmp_path):
        # the with-noise curve reaches outage 1e-3 near -59 dBW
        out = str(tmp_path / "fig1.csv")
        run_sweep("fig1_n5", out, modes=("analytic_lb",))
        rows = [(float(r[0]), float(r[2])) for r in read_rows(out)[1:]]
        crossing = None
        for (v0, p0), (v1, p1) in zip(rows, rows[1:]):
            if p0 >= 1e-3 > p1:
                f = (math.log10(p0) + 3.0) / (math.log10(p0) - math.log10(p1))
                crossing = v0 + f * (v1 - v0)
        assert crossing == pytest.approx(-59.0, abs=1.0)


class TestMain:
    def test_table2_prints_and_writes(self, tmp_path, capsys):
        out = str(tmp_path / "table.csv")
        assert main(["table2", "--out", out]) == 0
        assert "N=20" in capsys.readouterr().out
        rows = read_rows(out)
        assert rows[0] == ["alpha", "n5", "n10", "n20"]
        assert len(rows) == 11

    def test_presets_listing(self, capsys):
        assert main(["presets"]) == 0
        assert "fig1_n5" in capsys.readouterr().out

    def test_sweep_happy_path(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL_SWEEP)
        out = str(tmp_path / "out.csv")
        assert main(["sweep", "--config", config, "--out", out,
                     "--modes", "analytic_lb,asymptotic"]) == 0
        assert "wrote 6 rows" in capsys.readouterr().out
        modes = {r[1] for r in read_rows(out)[1:]}
        assert modes == {"analytic_lb", "asymptotic"}

    @pytest.mark.parametrize("modes", ["", ","])
    def test_sweep_empty_modes_override_exits_2(self, tmp_path, capsys, modes):
        # an empty --modes is an override, not a fall back on the config's modes
        config = write_config(tmp_path, SMALL_SWEEP)
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", config, "--out", str(out),
                     "--modes", modes]) == 2
        assert "modes: unknown" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_config_error_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, "axis: frequency\n")
        rc = main(["sweep", "--config", config, "--out",
                   str(tmp_path / "x.csv")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep_mixed_type_keys_exit_2(self, tmp_path, capsys):
        config = write_config(tmp_path, "1: 2\nbogus: 3\n")
        rc = main(["sweep", "--config", config, "--out",
                   str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "unknown key 1" in err
        assert "Traceback" not in err

    def test_sweep_non_finite_parameter_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL_SWEEP.replace(
            "  n: 5\n", "  n: 5\n  temp: .inf\n"))
        rc = main(["sweep", "--config", config, "--out",
                   str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "temp" in err

    def test_sweep_non_finite_stop_exits_2_without_warning(self, tmp_path,
                                                           capsys):
        config = write_config(tmp_path, "axis: element_count\nstart: 5\n"
                                        "stop: .inf\npoints: 4\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["sweep", "--config", config, "--out",
                       str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "stop" in err
        assert "Warning" not in err

    def test_sweep_rate_past_the_threshold_range_exits_2(self, tmp_path,
                                                         capsys):
        # 2**(rate/bw) would overflow; the boundary names the rate instead
        config = write_config(tmp_path, SMALL_SWEEP.replace(
            "  n: 5\n", "  n: 5\n  rate: 1.0e+12\n  bw: 1.0e+6\n"))
        rc = main(["sweep", "--config", config, "--out",
                   str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "rate/bw must be below 1024" in err

    def test_sweep_refused_analytic_row_draws_nothing(self, tmp_path, capsys,
                                                      monkeypatch):
        # rate/bw in [1023, 1024): the link is built, the upper bound refused
        def no_draws(*args, **kwargs):
            raise AssertionError("Monte Carlo ran before the analytic rows")

        monkeypatch.setattr(cli, "estimate_outages", no_draws)
        config = write_config(tmp_path, SMALL_SWEEP.replace(
            "  n: 5\n", "  n: 5\n  rate: 1.0235e+10\n  bw: 1.0e+7\n").replace(
            "[analytic_lb, mc_exact, noiseless_variant]", "[analytic_ub, mc_exact]"))
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "rate/bw must be below 1023" in err
        assert not out.exists()

    def test_sweep_lower_bound_only_at_a_doubled_threshold_past_the_range_exits_0(
            self, tmp_path):
        # rate/bw in [1023, 1024): the lower bound needs no doubled threshold
        config = write_config(tmp_path, SMALL_SWEEP.replace(
            "  n: 5\n", "  n: 5\n  rate: 1.0235e+10\n  bw: 1.0e+7\n").replace(
            "[analytic_lb, mc_exact, noiseless_variant]", "[analytic_lb, noiseless_variant]"))
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        assert [r[2] for r in read_rows(str(out))[1:]] == ["1"] * 6

    def test_sweep_config_that_is_a_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", str(tmp_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(tmp_path) in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_sweep_config_that_is_not_utf8_names_the_file(self, tmp_path, capsys):
        config = tmp_path / "latin1.yaml"
        config.write_bytes("description: caf\u00e9\n".encode("latin-1"))
        assert main(["sweep", "--config", str(config), "--out",
                     str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: 'utf-8' codec can't decode")

    @pytest.mark.parametrize("flag", ["--out", "--gnuplot"])
    def test_sweep_output_in_a_missing_directory_exits_2(self, tmp_path, capsys,
                                                         monkeypatch, flag):
        # a path in a missing directory, and one that is a directory, are
        # refused (exit 2, named) before any row is evaluated or file written
        def not_evaluated(*args, **kwargs):
            raise AssertionError("the sweep was evaluated")

        monkeypatch.setattr(cli, "outage_reports", not_evaluated)
        (tmp_path / "sub").mkdir()
        config = write_config(tmp_path, SMALL_SWEEP)
        for bad in (tmp_path / "missing" / "x", tmp_path / "sub"):
            paths = {"--out": str(tmp_path / "x.csv"),
                     "--gnuplot": str(tmp_path / "x.gp"), flag: str(bad)}
            assert main(["sweep", "--config", config, "--modes", "analytic_lb",
                         *itertools.chain(*paths.items())]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and paths[flag] in err
            assert "Traceback" not in err
            # a bad --gnuplot path leaves no CSV behind
            assert not (tmp_path / "x.csv").exists()

    def test_run_sweep_into_a_missing_directory_is_refused_before_evaluating(
            self, tmp_path, monkeypatch):
        def not_evaluated(*args, **kwargs):
            raise AssertionError("the sweep was evaluated")

        monkeypatch.setattr(cli, "outage_reports", not_evaluated)
        bad = str(tmp_path / "missing" / "x.csv")
        with pytest.raises(ConfigError, match="not a file path in an existing directory"):
            run_sweep(write_config(tmp_path, SMALL_SWEEP), bad, modes=("analytic_lb",))

    def test_sweep_plot_script_onto_its_own_csv_exits_2(self, tmp_path, capsys,
                                                        monkeypatch):
        # the script overwrote the CSV it plots, and the sweep exited 0
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, SMALL_SWEEP)
        for out, script in (("x.csv", "x.csv"), ("x.csv", str(tmp_path / "x.csv"))):
            assert main(["sweep", "--config", config, "--modes", "analytic_lb",
                         "--out", out, "--gnuplot", script]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and out in err and script in err
            assert not (tmp_path / "x.csv").exists()

    @staticmethod
    def overwrite_cases(tmp_path):
        # (--config, the flag aimed at the config, that output's path);
        # relative paths are read from tmp_path
        config = tmp_path / "sweep.yaml"
        config.write_text(SMALL_SWEEP, encoding="utf-8")
        link = tmp_path / "link.yaml"
        link.symlink_to(config)
        return [(str(config), "--out", str(config)),
                (str(config), "--gnuplot", str(config)),
                ("sweep.yaml", "--out", str(config)),
                (str(config), "--gnuplot", "sweep.yaml"),
                (str(link), "--out", str(config)),
                (str(config), "--out", str(link))]

    def test_sweep_output_onto_its_config_exits_2(self, tmp_path, capsys,
                                                  monkeypatch):
        # the CSV or the plot script replaced the config, and the sweep
        # exited 0
        def not_evaluated(*args, **kwargs):
            raise AssertionError("the sweep was evaluated")

        monkeypatch.setattr(cli, "outage_reports", not_evaluated)
        monkeypatch.chdir(tmp_path)
        for config, flag, path in self.overwrite_cases(tmp_path):
            paths = {"--out": "x.csv", "--gnuplot": "x.gp", flag: path}
            assert main(["sweep", "--config", config, "--modes", "analytic_lb",
                         *itertools.chain(*paths.items())]) == 2, (config, flag, path)
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: ") and f"config {config}" in err
            assert (tmp_path / "sweep.yaml").read_text(encoding="utf-8") == SMALL_SWEEP
            assert not (tmp_path / "x.csv").exists()

    def test_run_sweep_onto_its_config_is_refused_before_evaluating(
            self, tmp_path, monkeypatch):
        def not_evaluated(*args, **kwargs):
            raise AssertionError("the sweep was evaluated")

        monkeypatch.setattr(cli, "outage_reports", not_evaluated)
        monkeypatch.chdir(tmp_path)
        for config, flag, path in self.overwrite_cases(tmp_path):
            out, script = (path, None) if flag == "--out" else ("x.csv", path)
            with pytest.raises(ConfigError) as err:
                run_sweep(config, out, modes=("analytic_lb",), gnuplot=script)
            assert str(err.value) == \
                f"{path}: the output would overwrite the config {config}"
            assert (tmp_path / "sweep.yaml").read_text(encoding="utf-8") == SMALL_SWEEP
            assert not (tmp_path / "x.csv").exists()

    def test_sweep_output_onto_a_hard_link_exits_2(self, tmp_path, capsys):
        # the resolved paths differ, so the CSV replaced the config, and the
        # plot script an earlier CSV, and the sweep exited 0
        config = tmp_path / "s.yaml"
        config.write_text(SMALL_SWEEP, encoding="utf-8")
        os.link(config, tmp_path / "h.yaml")
        old = tmp_path / "old.csv"
        old.write_text("kept\n", encoding="utf-8")
        os.link(old, tmp_path / "old.gp")
        for out, script, names in (
                ("h.yaml", None, "the config"),
                ("x.csv", "h.yaml", "the config"),
                ("old.csv", "old.gp", "the CSV")):
            out = str(tmp_path / out)
            paths = [str(config) if names == "the config" else out]
            argv = ["sweep", "--config", str(config), "--out", out,
                    "--modes", "analytic_lb"]
            if script:
                script = str(tmp_path / script)
                argv += ["--gnuplot", script]
            assert main(argv) == 2, (out, script)
            assert capsys.readouterr().err == (
                f"error: {script or out}: the output would overwrite {names} "
                f"{paths[0]}\n")
            assert config.read_text(encoding="utf-8") == SMALL_SWEEP
            assert old.read_text(encoding="utf-8") == "kept\n"
            assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("flag", ["--out", "--gnuplot"])
    def test_sweep_output_onto_a_preset_given_by_name_exits_2(
            self, tmp_path, capsys, monkeypatch, flag):
        # the sweep overwrote the bundled preset, and `risnoise presets`
        # failed after it; the presets here are a copy
        presets = tmp_path / "presets"
        presets.mkdir()
        for entry in cli._preset_dir().iterdir():
            if entry.name.endswith(".yaml"):
                (presets / entry.name).write_bytes(entry.read_bytes())
        monkeypatch.setattr(cli, "_preset_dir", lambda: presets)
        monkeypatch.chdir(tmp_path)
        target = presets / "fig1_n5.yaml"
        before = target.read_bytes()
        paths = {"--out": "x.csv", "--gnuplot": "x.gp", flag: str(target)}
        assert main(["sweep", "--config", "fig1_n5", "--modes", "analytic_lb",
                     *itertools.chain(*paths.items())]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {target}: the output would overwrite the config fig1_n5\n"
        assert target.read_bytes() == before
        assert main(["presets"]) == 0
        assert "fig1_n5" in capsys.readouterr().out

    def test_sweep_modes_override_with_spaces(self, tmp_path, capsys):
        # " asymptotic" was an unknown mode
        config = write_config(tmp_path, SMALL_SWEEP)
        out = str(tmp_path / "out.csv")
        assert main(["sweep", "--config", config, "--out", out,
                     "--modes", " analytic_lb , asymptotic"]) == 0
        assert {r[1] for r in read_rows(out)[1:]} == {"analytic_lb", "asymptotic"}

    @pytest.mark.parametrize("entry, key", [
        # a truthy string switched the surface noise on and exited 0
        ("ris_noise: \"no\"", "ris_noise"),
        # these escaped as a TypeError and an OverflowError traceback
        ("pb_dbw: abc", "fixed.pb_dbw"),
        ("pb_dbw: 4000", "fixed.pb_dbw"),
        # SystemParams skips a None field; it failed deeper, unprefixed
        ("temp: null", "fixed.temp"),
    ])
    def test_sweep_bad_fixed_value_exits_2(self, tmp_path, capsys, entry,
                                           key):
        config = write_config(tmp_path, SMALL_SWEEP.replace(
            "  n: 5\n", f"  n: 5\n  {entry}\n"))
        out = tmp_path / "x.csv"
        rc = main(["sweep", "--config", config, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("text, line", [
        # distance ** -exponent overflowed in path_loss; the refusal names
        # the config fields of the hop, not path_loss's arguments
        ("fixed: {tau_bn: -400.0}\n",
         "error: d_bn, tau_bn, phi_ref: distance: phi_ref / distance**exponent"),
        ("axis: ris_receiver_distance_m\nstart: 1.0e-300\nstop: 1.0\n",
         "error: d_nd, tau_nd, phi_ref: distance: phi_ref / distance**exponent"),
        # psi = pb*alpha/sigma_d2 underflowed to 0 and xi2 divided by it
        ("axis: reflection_factor\nstart: 5.0e-324\nstop: 1.0e-300\n"
         "points: 2\nfixed: {temp: 1.0e+300}\n",
         "pb: the signal scale pb*alpha/sigma_d2 underflows to 0"),
        # psi overflowed to inf, so xi2's asymptote took the log of 0
        ("axis: reflection_factor\nstart: 1.0e-300\nstop: 2.0e-300\npoints: 2\n"
         "modes: [analytic_lb]\nfixed: {n: 1000, m_bn: 1.0e+150, d_bn: 1.0e+30, "
         "phi_ref: 1.0e-150, pb_dbw: 3000.0, tau_bn: -3.0}\n",
         "pb: the signal scale pb*alpha/sigma_d2 is past the double range"),
        # a grid this long ran out of memory before its first row, and a
        # job plan of 4e18 Monte Carlo batches before its first draw
        ("points: 1000000000000000000\n", "points: integer in [2, 1000000]"),
        ("trials: 1000000000000000000000000\nmodes: [mc_exact]\n",
         "error: trials, batch: 1 stream group(s) x 4000000000000000000 batches"),
        # the cascade shape overflowed, then its mean underflowed to 0: both
        # were refused under gamma_approx's argument names mu and sigma2
        ("fixed: {m_bn: 1.7976931348623157e+308, m_nd: 1.7976931348623157e+308}\n",
         "error: n, m_bn, m_nd: the cascade moments are refused: mu, sigma2: "),
        ("fixed: {d_bn: 1.0e+100, d_nd: 1.0e+100}\n",
         "error: d_bn, d_nd, tau_bn, tau_nd, phi_ref: the cascade moments are "
         "refused: mu: must be positive"),
        # mu^2 underflowed: the shape 0 passed, and xi2 refused it unnamed
        ("fixed: {n: 1, m_bn: 0.5, m_nd: 0.5, d_bn: 3.7e+161, d_nd: 1.0, "
         "tau_bn: 2.0, tau_nd: 2.0}\n",
         "error: d_bn, d_nd, tau_bn, tau_nd, phi_ref: the cascade moments are "
         "refused: mu, sigma2: the shape mu^2/sigma2 underflows to 0"),
    ])
    def test_sweep_value_past_the_double_range_exits_2(self, tmp_path, capsys,
                                                       text, line):
        config = write_config(tmp_path, text)
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and line in err
        assert not out.exists()

    def test_sweep_with_an_asymptote_factor_that_underflows_exits_0(self, tmp_path):
        # lam*ups underflows to 0 in xi1's asymptote; its log was a bare
        # "math domain error" that ended every analytic sweep
        config = write_config(
            tmp_path, "points: 2\nmodes: [analytic_lb]\nfixed: {n: 2, "
            "d_nd: 1.0e+30, tau_nd: 0.0, temp: 1.0e-30, rate: 1.0e-150, nf: 1.0e+300}\n")
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        rows = read_rows(str(out))[1:]
        assert [(r[1], r[2]) for r in rows] == [("analytic_lb", "1")] * 2

    def test_sweep_bad_worker_variable_exits_2(self, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.setenv("RISNOISE_WORKERS", "abc")
        config = write_config(tmp_path, SMALL_SWEEP)
        rc = main(["sweep", "--config", config, "--out",
                   str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "RISNOISE_WORKERS" in err

    def test_sweep_writes_gnuplot_companion(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL_SWEEP)
        out = str(tmp_path / "out.csv")
        script = str(tmp_path / "plot.gp")
        assert main(["sweep", "--config", config, "--out", out,
                     "--modes", "analytic_lb", "--gnuplot", script]) == 0
        text = Path(script).read_text(encoding="utf-8")
        assert out in text
        assert "analytic_lb" in text

    def test_sweep_gnuplot_keeps_the_overrides(self, tmp_path, capsys):
        # the config alone (10 trials) cannot run; --trials makes it valid
        config = write_config(tmp_path, SMALL_SWEEP.replace(
            "trials: 1000", "trials: 10"))
        out, script = tmp_path / "out.csv", tmp_path / "gp.gp"
        assert main(["sweep", "--config", config, "--out", str(out),
                     "--trials", "2000", "--gnuplot", str(script)]) == 0
        assert out.is_file() and script.is_file()
        assert "mc_exact_noiseless" in script.read_text(encoding="utf-8")

    # an axis end past its field's rule used to pass the load and fail the
    # sweep, naming a field the config does not have
    @pytest.mark.parametrize("axis, ends, key", [
        ("transmit_power_dBW", "start: -60.0\nstop: 4000", "stop"),
        ("reflection_factor", "start: 0.5\nstop: 2.0", "stop"),
        ("ris_receiver_distance_m", "start: -1.0\nstop: 5.0", "start"),
        ("element_count", "start: 0\nstop: 8", "start"),
    ])
    def test_sweep_axis_end_past_its_rule_exits_2(self, tmp_path, capsys,
                                                  axis, ends, key):
        config = write_config(tmp_path, f"axis: {axis}\n{ends}\npoints: 5\n")
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["sweep", "--config", config, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"  {key}: " in err
        assert "Warning" not in err and "Traceback" not in err
        assert not out.exists()

    def test_validate_full_level_exits_0(self, capsys):
        assert main(["validate", "--level", "full"]) == 0
        assert "all checks passed (17/17)" in capsys.readouterr().out

    def test_validate_bad_worker_variable_exits_2(self, capsys, monkeypatch):
        # the Monte Carlo checks read the variable inside the library
        monkeypatch.setenv("RISNOISE_WORKERS", "abc")
        assert main(["validate", "--level", "full"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "RISNOISE_WORKERS" in err

    def test_validate_exit_codes(self, monkeypatch, capsys):
        assert main(["validate", "--level", "fast"]) == 0
        capsys.readouterr()
        monkeypatch.setattr(noise, "BOLTZMANN", noise.BOLTZMANN * 1.01)
        assert main(["validate", "--level", "fast"]) == 1
        assert "FAIL table2" in capsys.readouterr().out


class TestSweepRoute:
    """run_sweep is the one route from a config to its CSV and plot script."""

    def test_the_sweep_command_runs_through_run_sweep_once(self, tmp_path,
                                                           capsys, monkeypatch):
        calls = []

        def recorder(*args, **kwargs):
            calls.append((args, kwargs))
            return 6

        def not_loaded(*args, **kwargs):
            raise AssertionError("the sweep command loaded the grid itself")

        monkeypatch.setattr(cli, "run_sweep", recorder)
        monkeypatch.setattr(cli, "load_grid", not_loaded)
        config = write_config(tmp_path, SMALL_SWEEP)
        out, script = str(tmp_path / "x.csv"), str(tmp_path / "x.gp")
        assert main(["sweep", "--config", config, "--out", out, "--seed", "3",
                     "--trials", "2000", "--modes", "analytic_lb, mc_exact",
                     "--gnuplot", script]) == 0
        assert calls == [((config, out), {"seed": 3, "trials": 2000,
                                          "modes": ("analytic_lb", "mc_exact"),
                                          "gnuplot": script})]
        assert capsys.readouterr().out == \
            f"wrote 6 rows to {out}\nwrote plot script to {script}\n"

    def test_only_run_sweep_builds_rows_or_plot_scripts(self):
        # a second route from a config to its files would name one of these
        writers = {"_point_rows", "write_gnuplot_script"}
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        users = set()
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and node.id in writers \
                        or isinstance(node, ast.Attribute) and node.attr in writers:
                    users.add(getattr(stmt, "name", "<module>"))
        assert users == {"run_sweep"}


class TestModeTable:
    """outage.ANALYTIC_MODES is the one table of analytic mode names."""

    def test_every_mode_is_an_analytic_mode_a_monte_carlo_mode_or_the_twin(self):
        assert cli.ALL_MODES == (*outage.ANALYTIC_MODES, *cli.MC_MODES,
                                 "noiseless_variant")

    def test_each_analytic_mode_maps_to_its_own_report_field(self):
        values = list(outage.ANALYTIC_MODES.values())
        assert len(set(values)) == len(values)
        assert set(values) <= {f.name for f in fields(outage.OutageReport)}

    def test_monte_carlo_modes_map_one_to_one_onto_the_selectors(self):
        assert [m.removeprefix("mc_") for m in cli.MC_MODES] == list(mcsim.SELECTORS)
        assert all(m.startswith("mc_") for m in cli.MC_MODES)

    def test_no_second_dict_is_keyed_by_mode_names(self):
        # a dispatch dict keyed by mode names anywhere in the package
        # besides the table itself would restate it
        keyed = []
        for path in sorted(Path(risnoise.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Dict) and any(
                        isinstance(k, ast.Constant) and k.value in ALL_MODES
                        for k in node.keys):
                    keyed.append((path.name, node.lineno))
        assert [name for name, _ in keyed] == ["outage.py"]
