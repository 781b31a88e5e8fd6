"""Command-line layer: config parsing, CSV contract, self-checks, presets."""
import csv
import math

import pytest

import risnoise
from risnoise import mcsim, noise, outage
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

    def test_pb_and_pb_dbw_conflict(self, tmp_path):
        path = write_config(tmp_path,
                            "fixed:\n  pb: 1e-6\n  pb_dbw: -60.0\n")
        with pytest.raises(ConfigError, match="not both"):
            load_grid(path)

    def test_unknown_fixed_key(self, tmp_path):
        path = write_config(tmp_path, "fixed:\n  bandwidth: 2e7\n")
        with pytest.raises(ConfigError, match="fixed.bandwidth"):
            load_grid(path)

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

    def test_analytic_rows_do_not_depend_on_worker_count(self, tmp_path):
        # mpmath's working precision is process-global, so analytic rows
        # evaluated on pool threads would race on it
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
    def test_script_filters_by_mode(self, tmp_path):
        script = str(tmp_path / "plot.gp")
        write_gnuplot_script("data.csv", script, ["analytic_lb", "mc_exact"])
        text = open(script, encoding="utf-8").read()
        assert "set logscale y" in text
        assert text.count("strcol(2)") == 2
        assert "'analytic_lb'" in text and "'mc_exact'" in text


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

    def test_sweep_config_error_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, "axis: frequency\n")
        rc = main(["sweep", "--config", config, "--out",
                   str(tmp_path / "x.csv")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep_non_finite_parameter_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL_SWEEP.replace(
            "  n: 5\n", "  n: 5\n  temp: .inf\n"))
        rc = main(["sweep", "--config", config, "--out",
                   str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "temp" in err

    def test_sweep_writes_gnuplot_companion(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL_SWEEP)
        out = str(tmp_path / "out.csv")
        script = str(tmp_path / "plot.gp")
        assert main(["sweep", "--config", config, "--out", out,
                     "--modes", "analytic_lb", "--gnuplot", script]) == 0
        text = open(script, encoding="utf-8").read()
        assert out in text
        assert "analytic_lb" in text

    def test_validate_exit_codes(self, monkeypatch, capsys):
        assert main(["validate", "--level", "fast"]) == 0
        capsys.readouterr()
        monkeypatch.setattr(noise, "BOLTZMANN", noise.BOLTZMANN * 1.01)
        assert main(["validate", "--level", "fast"]) == 1
        assert "FAIL table2" in capsys.readouterr().out
