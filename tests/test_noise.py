import ast
import dataclasses
import importlib
import inspect
import math
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import risnoise
from risnoise import noise
from risnoise.noise import (
    REFERENCE_NOISE_TABLE_DBW,
    NoiseBudget,
    SystemParams,
    build_noise_budget,
    db_from_watts,
    path_loss,
    receiver_noise_power,
    ris_noise_power,
    table2,
    sinr_threshold,
    watts_from_db,
)
from risnoise.outage import build_link_model

KTB_290_20M = 1.380649e-23 * 290.0 * 20e6  # 8.0077642e-14 W


def test_db_round_trip():
    for p in [1e-20, 8.0077642e-14, 1.0, 3.7e4]:
        assert_allclose(watts_from_db(db_from_watts(p)), p, rtol=1e-14)
    assert db_from_watts(1.0) == 0.0
    with pytest.raises(ValueError):
        db_from_watts(0.0)
    with pytest.raises(ValueError):
        db_from_watts(-1e-3)


def test_receiver_noise_power_reference_point():
    # k*T*B at 290 K / 20 MHz, then the 3 dB noise figure on top
    assert_allclose(receiver_noise_power(nf=1.0), 8.0077642e-14, rtol=1e-12)
    assert_allclose(db_from_watts(receiver_noise_power(nf=1.0)), -130.964893, atol=1e-5)
    assert_allclose(db_from_watts(receiver_noise_power()), -127.964893, atol=1e-5)
    assert_allclose(receiver_noise_power() / receiver_noise_power(nf=1.0),
                    10.0 ** 0.3, rtol=1e-14)


def test_receiver_noise_power_scaling():
    base = receiver_noise_power(temp=290.0, bw=1.0, nf=1.0)
    assert_allclose(receiver_noise_power(temp=580.0, bw=1.0, nf=1.0), 2 * base, rtol=1e-14)
    assert_allclose(receiver_noise_power(temp=290.0, bw=5e6, nf=1.0), 5e6 * base, rtol=1e-14)


def test_receiver_noise_power_refuses_a_power_past_the_double_range():
    # 0 made the noise budget divide by zero; inf leaves no signal
    for temp, bw in ((5e-324, 20e6), (1e300, 1e300)):
        with pytest.raises(ValueError, match=re.escape(
                f"temp: k*T*B*nf must be a positive double, got temp={temp!r}, "
                f"bw={bw!r}")):
            receiver_noise_power(temp, bw)


def test_ris_noise_power_linearity_exact():
    unit = ris_noise_power(1, 1.0)
    assert unit == 1.380649e-23 * 290.0 * 20e6
    # bit-exact linearity in n and alpha by construction
    for n in (1, 5, 10, 20, 64):
        for a in (0.1, 0.3, 0.9, 1.0):
            assert ris_noise_power(n, a) == (n * a) * unit


def test_ris_noise_power_rejects_bad_input():
    with pytest.raises(ValueError):
        ris_noise_power(0, 0.9)
    with pytest.raises(ValueError):
        ris_noise_power(-3, 0.9)
    with pytest.raises(ValueError):
        ris_noise_power(2.5, 0.9)
    with pytest.raises(ValueError):
        ris_noise_power(True, 0.9)
    with pytest.raises(ValueError):
        ris_noise_power(10, 0.0)
    with pytest.raises(ValueError):
        ris_noise_power(10, 1.2)


# The published table was computed with the truncated constant k = 1.38e-23;
# the exact SI constant sits 10*log10(1.380649/1.38) = 0.0020420 dB above it.
SI_K_OFFSET_DB = 10.0 * math.log10(1.380649 / 1.38)


def test_noise_table_matches_reference_up_to_constant_offset():
    for (a, n), ref_dbw in REFERENCE_NOISE_TABLE_DBW.items():
        got = db_from_watts(ris_noise_power(n, a))
        assert got - ref_dbw == pytest.approx(SI_K_OFFSET_DB, abs=6e-5)


def test_noise_table_matches_reference_with_legacy_constant(monkeypatch):
    monkeypatch.setattr(noise, "BOLTZMANN", 1.38e-23)
    for (a, n), ref_dbw in REFERENCE_NOISE_TABLE_DBW.items():
        got = db_from_watts(ris_noise_power(n, a))
        # reference values carry 4 decimals -> half-ulp 5e-5 dB
        assert got == pytest.approx(ref_dbw, abs=5.1e-5)


def test_reference_grid_shape():
    grid = table2()
    assert [row[0] for row in grid] == [round(0.1 * i, 1) for i in range(1, 11)]
    assert all(len(row[1]) == 3 for row in grid)
    # spot check against the dict form
    for a, vals in grid:
        for n, got in zip((5, 10, 20), vals):
            assert got - REFERENCE_NOISE_TABLE_DBW[(a, n)] == pytest.approx(
                SI_K_OFFSET_DB, abs=6e-5)


def test_path_loss():
    assert_allclose(path_loss(100.0, 3.2), 10.0 ** -6.4, rtol=1e-14)
    assert_allclose(path_loss(2.0, 2.0), 0.25, rtol=1e-15)
    assert path_loss(1.0, 3.7) == 1.0
    assert_allclose(path_loss(2.0, 2.0, phi_ref=4.0), 1.0, rtol=1e-15)
    with pytest.raises(ValueError):
        path_loss(0.0, 2.0)
    with pytest.raises(ValueError):
        path_loss(2.0, 2.0, phi_ref=0.0)


def test_path_loss_is_called_only_inside_hop_powers():
    # noise.hop_powers is the one derivation of the two hop powers; a second
    # caller would derive them again, by its own route.  The path-loss body
    # is reached only through the checked path_loss and through hop_powers.
    callers = {"path_loss": [], "_path_loss": []}
    for path in sorted(Path(risnoise.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name in callers:
                        callers[name].append((path.name, getattr(top, "name", None)))
    assert callers == {"path_loss": [],
                       "_path_loss": [("noise.py", "path_loss")]
                       + [("noise.py", "hop_powers")] * 2}


def test_path_loss_refuses_a_result_past_the_double_range():
    # distance ** -exponent escaped as an OverflowError traceback; an int
    # power of an int is worked in doubles, not grown without bound
    for distance, exponent in ((1e-300, 2.0), (100.0, -400.0), (100, -10 ** 300)):
        with pytest.raises(ValueError, match=re.escape(
                f"distance: phi_ref / distance**exponent must be a positive "
                f"double, got distance={distance!r}, exponent={exponent!r}")):
            path_loss(distance, exponent)
    # a product past the double range, and a power that underflows to 0
    for distance, exponent, phi_ref in ((1e-5, 2.0, 1e300), (1e300, 2.0, 1.0)):
        with pytest.raises(ValueError, match="distance: .*phi_ref="):
            path_loss(distance, exponent, phi_ref)


def test_sinr_threshold_exact_points():
    assert sinr_threshold(0.0, 20e6) == 0.0
    assert sinr_threshold(20e6, 20e6) == 1.0
    assert sinr_threshold(40e6, 20e6) == 3.0
    assert_allclose(sinr_threshold(15e6, 20e6), 2.0 ** 0.75 - 1.0, rtol=1e-15)


def test_sinr_threshold_branch_consistency():
    # expm1 branch and pow branch agree where they meet
    for x in [0.49999, 0.5, 0.50001]:
        assert_allclose(sinr_threshold(x * 20e6, 20e6),
                        2.0 ** x - 1.0, rtol=1e-13)
    # tiny ratios keep full relative precision
    assert_allclose(sinr_threshold(20.0, 20e6), math.expm1(1e-6 * math.log(2.0)),
                    rtol=1e-15)
    with pytest.raises(ValueError):
        sinr_threshold(-1.0, 20e6)
    with pytest.raises(ValueError):
        sinr_threshold(1e6, 0.0)


def test_sinr_threshold_refuses_a_ratio_past_the_double_range():
    # 2**1024 overflows a double; the refusal names the rate
    assert sinr_threshold(1023.0, 1.0) == 2.0 ** 1023 - 1.0
    for rate, bw in ((1024.0, 1.0), (1e12, 1e6), (2e300, 1e-300)):
        with pytest.raises(ValueError, match="rate"):
            sinr_threshold(rate, bw)
    with pytest.raises(ValueError, match="rate"):
        build_link_model(SystemParams(rate=1e12, bw=1e6))


class TestBudget:
    def test_reference_operating_point(self):
        bud = build_noise_budget(SystemParams())
        assert_allclose(db_from_watts(bud.sigma_d2), -127.964893, atol=1e-5)
        # aggregate surface noise: N*alpha*k*T*B
        assert_allclose(bud.sigma_r2, 10 * 0.9 * KTB_290_20M, rtol=1e-14)
        # lambda = alpha*sigma_r2/sigma_d2 = n*alpha^2/NF
        assert_allclose(bud.lam, 10 * 0.81 / 10.0 ** 0.3, rtol=1e-12)
        assert_allclose(bud.lam, 4.0596172, atol=5e-7)
        assert_allclose(bud.rho, 1e-6 / bud.sigma_d2, rtol=1e-14)
        assert bud.psi == bud.rho * 0.9
        assert_allclose(bud.ups_th, 2.0 ** 0.75 - 1.0, rtol=1e-15)

    @pytest.mark.parametrize("n,lam_expect", [(5, 2.0298086), (10, 4.0596172),
                                              (20, 8.1192344)])
    def test_lambda_scales_with_element_count(self, n, lam_expect):
        bud = build_noise_budget(SystemParams(n=n))
        assert_allclose(bud.lam, lam_expect, atol=5e-7)

    def test_unity_alpha_unity_nf_gives_lambda_n(self):
        # with alpha = 1 and a noiseless receiver front end, lambda = n exactly
        bud = build_noise_budget(SystemParams(n=1, alpha=1.0, nf=1.0))
        assert_allclose(bud.lam, 1.0, rtol=1e-14)
        bud = build_noise_budget(SystemParams(n=7, alpha=1.0, nf=1.0))
        assert_allclose(bud.lam, 7.0, rtol=1e-14)

    def test_ris_noise_off(self):
        bud = build_noise_budget(SystemParams(ris_noise=False))
        assert bud.sigma_r2 == 0.0
        assert bud.lam == 0.0
        # receiver side unaffected
        ref = build_noise_budget(SystemParams())
        assert bud.sigma_d2 == ref.sigma_d2
        assert bud.rho == ref.rho

    def test_overrides(self):
        bud = build_noise_budget(SystemParams(sigma_d2=1e-13, sigma_r2=2e-13))
        assert bud.sigma_d2 == 1e-13
        assert bud.sigma_r2 == 2e-13
        assert_allclose(bud.lam, 0.9 * 2.0, rtol=1e-14)
        bud = build_noise_budget(SystemParams(sigma_r2=0.0))
        assert bud.lam == 0.0

    def test_boltzmann_is_read_at_call_time(self, monkeypatch):
        before = build_noise_budget(SystemParams()).sigma_d2
        monkeypatch.setattr(noise, "BOLTZMANN", 1.38e-23)
        after = build_noise_budget(SystemParams()).sigma_d2
        assert_allclose(after / before, 1.38 / 1.380649, rtol=1e-14)

    @pytest.mark.parametrize("bad", [
        dict(n=0), dict(n=2.5), dict(alpha=0.0), dict(alpha=1.5),
        dict(m_bn=0.3), dict(m_nd=0.0), dict(d_bn=-1.0), dict(d_nd=0.0),
        dict(bw=0.0), dict(temp=-5.0), dict(nf=0.5), dict(pb=0.0),
        dict(rate=-1.0), dict(sigma_d2=0.0), dict(sigma_r2=-1e-15),
        dict(ris_noise="no"), dict(ris_noise=1), dict(ris_noise=None),
    ])
    def test_validation_rejects(self, bad):
        with pytest.raises(ValueError):
            build_noise_budget(SystemParams(**bad))

    def test_signal_scale_that_underflows_to_0_is_refused(self):
        # psi = pb*alpha/sigma_d2 == 0 made xi2 divide by zero
        params = SystemParams(alpha=5e-324, temp=1e300)
        with pytest.raises(ValueError, match=re.escape(
                "pb: the signal scale pb*alpha/sigma_d2 underflows to 0, "
                "got pb=1e-06, alpha=5e-324, sigma_d2=")):
            build_noise_budget(params)

    def test_budget_is_frozen(self):
        bud = build_noise_budget(SystemParams())
        with pytest.raises(AttributeError):
            bud.lam = 0.0

    def test_bandwidth_doubling_adds_3dB_to_every_power(self):
        for bw in [5e6, 20e6, 80e6]:
            shift = db_from_watts(receiver_noise_power(bw=2 * bw)) - \
                db_from_watts(receiver_noise_power(bw=bw))
            assert_allclose(shift, 10.0 * math.log10(2.0), rtol=1e-12)
            shift = db_from_watts(ris_noise_power(10, 0.9, bw=2 * bw)) - \
                db_from_watts(ris_noise_power(10, 0.9, bw=bw))
            assert_allclose(shift, 10.0 * math.log10(2.0), rtol=1e-12)

    def test_lambda_invariant_under_temperature_scaling(self):
        # both noise powers scale linearly with T, so their ratio cancels
        base = build_noise_budget(SystemParams(temp=290.0)).lam
        for temp in [100.0, 290.0, 400.0, 870.0]:
            assert_allclose(build_noise_budget(SystemParams(temp=temp)).lam,
                            base, rtol=1e-14)


class TestSystemParams:
    def test_is_frozen(self):
        params = SystemParams()
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.n = 20

    def test_bad_fields_are_refused_when_built(self):
        with pytest.raises(ValueError, match=re.escape(
                "invalid system parameters: n: positive integer required, "
                "got 0; alpha: must lie in (0, 1], got 1.5")):
            SystemParams(n=0, alpha=1.5)

    def test_none_is_derived_for_the_noise_powers_only(self):
        # a None field passed its check and failed later, unprefixed
        with pytest.raises(ValueError, match=re.escape(
                "invalid system parameters: n: finite number required, got "
                "None; alpha: finite number required, got None; pb: finite "
                "number required, got None")):
            SystemParams(n=None, alpha=None, pb=None)
        derived = build_noise_budget(SystemParams(sigma_d2=None, sigma_r2=None))
        assert derived == build_noise_budget(SystemParams())
        assert noise.problems(sigma_d2=None, sigma_r2=None) == []
        assert noise.problems(sigma2=None) == [
            "sigma2: finite number required, got None"]

    def test_replace_checks_the_variant(self):
        with pytest.raises(ValueError, match=re.escape(
                "invalid system parameters: d_nd: must be positive, got -1.0")):
            dataclasses.replace(SystemParams(), d_nd=-1.0)

    @pytest.mark.parametrize("fields", [{}, {"ris_noise": False, "n": 64},
                                        {"sigma_r2": 1e-12, "sigma_d2": None}])
    def test_noiseless_twin_is_the_replaced_point_unchecked(self, monkeypatch, fields):
        params = SystemParams(**fields)
        want = dataclasses.replace(params, ris_noise=False)
        checks = []
        monkeypatch.setattr(noise, "_problems", lambda values: checks.append(values) or [])
        twin = params.noiseless()
        assert checks == []
        assert twin == want and type(twin) is SystemParams
        assert vars(twin) == vars(want) and twin is not params
        assert params.ris_noise == fields.get("ris_noise", True)
        with pytest.raises(dataclasses.FrozenInstanceError):
            twin.ris_noise = True


def test_every_package_dataclass_is_frozen():
    # a value checked when it is built stays checked only if it cannot change
    import risnoise

    found, mutable = [], []
    for info in pkgutil.iter_modules(risnoise.__path__):
        if info.name == "__main__":   # importing it runs the command line
            continue
        module = importlib.import_module(f"risnoise.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls):
                found.append(name)
                if not cls.__dataclass_params__.frozen:
                    mutable.append(name)
    assert "SystemParams" in found and "McConfig" in found
    assert mutable == []
