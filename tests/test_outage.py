import itertools
import math
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, fields, is_dataclass, replace

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special

from risnoise import noise, outage
from risnoise.fading import cascade_moments, gamma_approx, y_gamma_params
from risnoise.noise import (
    NoiseBudget,
    SystemParams,
    path_loss,
    receiver_noise_power,
    ris_noise_power,
    sinr_threshold,
)
from risnoise.outage import (
    ANALYTIC_MODES,
    LinkModel,
    OutageReport,
    build_link_model,
    build_link_models,
    compose_outage,
    diversity_order,
    evaluate_mode,
    outage_asymptotic,
    outage_lb,
    outage_report,
    outage_reports,
    outage_ub,
    power_for_outage,
    throughput,
    xi1,
    xi1_asymptotic,
    xi1_closed,
    xi1_oracle,
    xi2,
    xi2_asymptotic,
)


def link_at(pb_dbw, **kw):
    return build_link_model(SystemParams(pb=10.0 ** (pb_dbw / 10.0), **kw))


# (config, value) pairs computed with a standalone high-precision quadrature
# of the defining probabilities (mpmath only, shape rounded as in the series)
FROZEN_XI1 = [
    (dict(n=5, pb_dbw=-65), 0.109679209957),
    (dict(n=10, pb_dbw=-65), 0.0407639828407),
    (dict(n=10, pb_dbw=-60), 6.82793447642e-6),
    (dict(n=20, pb_dbw=-60), 7.64435443214e-10),
    (dict(n=20, pb_dbw=-55), 4.7529403567e-21),
]
FROZEN_XI2 = [
    (dict(n=5, pb_dbw=-65), 0.00166421838029),
    (dict(n=10, pb_dbw=-65), 4.83963139925e-13),
    (dict(n=10, pb_dbw=-60), 1.72933958472e-20),
    (dict(n=20, pb_dbw=-60), 8.19528199933e-59),
]


class TestXi2:
    @pytest.mark.parametrize("cfg,want", FROZEN_XI2)
    def test_frozen_values(self, cfg, want):
        link = link_at(cfg["pb_dbw"], n=cfg["n"])
        assert_allclose(xi2(link), want, rtol=1e-9)

    def test_independent_route(self):
        link = link_at(-67.0, n=5)
        arg = math.sqrt(link.budget.ups_th / link.budget.psi) / link.approx.zeta
        with mp.workdps(30):
            want = float(mp.gammainc(link.approx.delta, 0, arg, regularized=True))
        assert_allclose(xi2(link), want, rtol=1e-12)

    def test_monotone_in_power(self):
        vals = [xi2(link_at(p, n=5)) for p in (-75, -70, -65, -60)]
        assert all(a > b > 0.0 for a, b in zip(vals, vals[1:]))

    def test_threshold_edges(self):
        link = link_at(-65.0)
        assert xi2(link, 0.0) == 0.0
        assert xi2(link, 1e9) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            xi2(link, -0.5)

    def test_independent_of_lambda(self):
        noisy = link_at(-65.0, n=10)
        quiet = link_at(-65.0, n=10, ris_noise=False)
        assert xi2(noisy) == xi2(quiet)


class TestXi1Closed:
    @pytest.mark.parametrize("cfg,want", FROZEN_XI1)
    def test_frozen_values(self, cfg, want):
        link = link_at(cfg["pb_dbw"], n=cfg["n"])
        assert_allclose(xi1_closed(link), want, rtol=1e-8)

    @pytest.mark.parametrize("n", [5, 10, 20])
    @pytest.mark.parametrize("pb_dbw", [-75.0, -68.0, -62.0])
    def test_matches_quadrature_route(self, n, pb_dbw):
        link = link_at(pb_dbw, n=n)
        series = xi1_closed(link)
        quad = xi1_oracle(link, integer_shape=True)
        assert_allclose(series, quad, rtol=1e-7)

    def test_matches_quadrature_route_at_doubled_threshold(self):
        link = link_at(-65.0, n=10)
        ups = 2.0 * link.budget.ups_th
        assert_allclose(xi1_closed(link, ups), 0.476737392962, rtol=1e-8)
        assert_allclose(xi1_closed(link, ups),
                        xi1_oracle(link, ups, integer_shape=True), rtol=1e-7)

    def test_short_receiver_hop_geometry(self):
        # 8 m receiver hop pushes the series into its deep-cancellation zone
        link = link_at(-62.0, n=20, d_nd=8.0)
        assert_allclose(xi1_closed(link), 1.98149404921e-6, rtol=1e-8)
        assert_allclose(xi1_closed(link),
                        xi1_oracle(link, integer_shape=True), rtol=1e-6)

    def test_no_surface_noise_is_exact_zero(self):
        assert xi1_closed(link_at(-65.0, ris_noise=False)) == 0.0
        assert xi1_closed(link_at(-65.0, sigma_r2=0.0)) == 0.0
        assert xi1_oracle(link_at(-65.0, ris_noise=False)) == 0.0

    def test_zero_threshold(self):
        link = link_at(-65.0)
        assert xi1_closed(link, 0.0) == 0.0
        with pytest.raises(ValueError):
            xi1_closed(link, -1.0)

    def test_deep_tail_resolved_through_adaptive_precision(self):
        # slope 35.6 decades per 10 dB: the -10 dBW value sits far beyond
        # quadrature reach and must come out of the series alone
        deep = xi1_closed(link_at(-10.0, n=20))
        assert 1e-175 < deep < 1e-168

    def test_below_float_range_resolves_to_zero(self):
        # another 50 dB on top pushes the value under the subnormal floor;
        # the adaptive loop must prove that and stop rather than spin
        assert xi1_closed(link_at(40.0, n=20)) == 0.0

    def test_monotone_in_power(self):
        vals = [xi1_closed(link_at(p, n=10)) for p in (-72, -68, -64, -60)]
        assert all(a > b > 0.0 for a, b in zip(vals, vals[1:]))

    def test_large_argument_resolved_by_realized_cancellation(self):
        # z = 250.5 at n=10, -80 dBW: the sqrt(z*alpha) rule budgets 170.6
        # digits for a Slater cancellation that really takes 206.7, which
        # once gave 0.99834 instead of 1 - 7.3e-12; at n=5, -86 dBW two
        # passes are refused before the precision suffices, and a series
        # that skipped the check there would return exactly 1
        for pb_dbw, n in ((-80.0, 10), (-86.0, 5)):
            link = link_at(pb_dbw, n=n)
            got, want = xi1_closed(link), xi1_oracle(link, integer_shape=True)
            assert_allclose(got, want, rtol=1e-9)
            # the complement, 7.3e-12 and 5.6e-12, is resolved as well
            assert_allclose(1.0 - got, 1.0 - want, rtol=1e-2)

    def test_tiny_complement_keeps_every_double_digit(self):
        # xi1 = 2.2e-18 is 1 - total: the sum must clear its roundoff floor
        # by SLATER_GOOD_DIGITS digits (six were once taken as enough, which
        # left the series 8.3e-12 off); reference: a 40-digit quadrature of
        # E_Y[P(dint, c*sqrt(Y))] at the link's own doubles (2.199082131662285e-18)
        link = link_at(-40.0, n=5)
        with mp.workdps(40):
            a, r = mp.mpf(link.y_shape), mp.mpf(link.y_rate)
            c = mp.sqrt(mp.mpf(link.budget.lam) * link.budget.ups_th
                        / link.budget.psi) / link.approx.zeta
            dint = link.approx.delta_int
            peak = (a + dint / 2.0) / r
            want = mp.quad(lambda y: r ** a * y ** (a - 1) * mp.exp(-r * y) / mp.gamma(a)
                           * mp.gammainc(dint, 0, c * mp.sqrt(y), regularized=True),
                           [0, peak / 4, peak, 4 * peak, mp.inf])
        assert_allclose(xi1_closed(link), float(want), rtol=1e-15)

    def test_monotone_in_lambda(self):
        base = SystemParams(pb=10.0 ** -6.5)
        links = [build_link_model(replace(base, sigma_r2=s))
                 for s in (1e-13, 3e-13, 1e-12)]
        vals = [xi1_closed(k) for k in links]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestXi1:
    @pytest.mark.parametrize("n", [1, 3, 5, 10, 20, 64, 256])
    @pytest.mark.parametrize("m_nd", [0.5, 1.3, 2.0])
    def test_matches_quadrature_route(self, n, m_nd):
        for pb_dbw in range(-86, -39, 2):
            link = link_at(float(pb_dbw), n=n, m_nd=m_nd)
            for ups in (link.budget.ups_th, 2.0 * link.budget.ups_th):
                want = xi1_oracle(link, ups, integer_shape=True, rtol=1e-12)
                # atol: below the normal range (2.2e-308) a double no longer
                # carries the 37 bits that rtol 1e-11 asks for
                assert_allclose(xi1(link, ups), want, rtol=1e-11, atol=1e-300,
                                err_msg=f"pb={pb_dbw} dBW, ups={ups}")

    @pytest.mark.parametrize("n", [1, 5, 20, 256, 512])
    def test_trimmed_nodes_match_the_full_range_rule(self, n):
        # the rule with every node down to 745 e-folds below the peak on
        # both sides, as it ran before the left end was cut at 60
        def full_range(link, ups):
            a, dint = link.y_shape, link.approx.delta_int
            h = min(0.25, 0.4 / math.sqrt(a + dint / 2.0))
            u_lo, u_hi = -1.0 - 745.0 / a, math.log(2.0 + 1490.0 / a)
            u = h * np.arange(math.floor(u_lo / h), math.ceil(u_hi / h) + 1)
            log_w = a * (u - np.expm1(u))
            u, w = u[log_w >= -745.0], np.exp(log_w[log_w >= -745.0])
            c = math.sqrt(link.budget.lam * ups / link.budget.psi) / link.approx.zeta
            x = c * math.sqrt(a / link.y_rate) * np.exp(0.5 * u)
            lower = np.sum(w * special.gammainc(dint, x)) / np.sum(w)
            if lower <= 0.5:
                return float(lower)
            return float(1.0 - np.sum(w * special.gammaincc(dint, x)) / np.sum(w))

        for m_nd in (0.5, 1.3, 2.7):
            for m_bn in (0.5, 4.0):
                for pb_dbw in range(-90, -19, 5):
                    link = link_at(float(pb_dbw), n=n, m_nd=m_nd, m_bn=m_bn)
                    for ups in (link.budget.ups_th, 2.0 * link.budget.ups_th):
                        assert_allclose(
                            xi1(link, ups), full_range(link, ups),
                            rtol=4e-15, atol=1e-300,
                            err_msg=f"m_nd={m_nd}, m_bn={m_bn}, "
                                    f"pb={pb_dbw} dBW, ups={ups}")

    def test_pinned_where_the_series_is_off(self):
        # a 40-digit quadrature of the defining integral gives
        # 2.19908213166229e-18 here, where the series resolves a 1 - total
        # of the same size (TestXi1Closed)
        link = link_at(-40.0, n=5)
        assert_allclose(xi1(link), 2.19908213166229e-18, rtol=1e-12)

    def test_edges(self):
        link = link_at(-65.0)
        assert xi1(link, 0.0) == 0.0
        assert xi1(link_at(-65.0, ris_noise=False)) == 0.0
        assert xi1(link_at(-65.0, sigma_r2=0.0)) == 0.0
        assert xi1(link_at(-86.0, n=10)) == 1.0
        with pytest.raises(ValueError):
            xi1(link, -1.0)

    def test_refuses_a_node_count_past_its_cap_by_name(self):
        # 8.2e9 nodes at n = 1e18: a MemoryError before the count was checked
        with pytest.raises(ValueError, match=r"^n, m_nd: xi1 needs over 2097152 trapezoid"):
            xi1(link_at(-60.0, n=10 ** 18))
        assert xi1(link_at(-60.0, n=10 ** 6)) == 0.0   # 8,229 nodes, under the cap

    def test_production_path_uses_no_arbitrary_precision(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("arbitrary precision on the production path")

        monkeypatch.setattr(outage, "meijer_g_2_1_1_2_mpf", refuse)
        monkeypatch.setattr(mp, "workdps", refuse)
        link = link_at(-66.0, n=10)
        assert 0.0 < outage_lb(link) < outage_ub(link) < 1.0
        assert outage_report(link).outage_lb == outage_lb(link)

    def test_threads_give_the_serial_values(self):
        links = [link_at(p, n=n) for n in (5, 10, 20, 64)
                 for p in (-75.0, -68.0, -62.0, -55.0)]
        serial = [outage_lb(k) for k in links]
        with ThreadPoolExecutor(max_workers=4) as pool:
            pooled = list(pool.map(outage_lb, links))
        assert pooled == serial


class TestCompose:
    def test_formula(self):
        assert_allclose(compose_outage(0.25, 0.5), 1.0 - 0.75 * 0.5, rtol=1e-15)

    def test_exact_zero_short_circuit(self):
        x2 = 0.123456789e-7
        assert compose_outage(0.0, x2) == x2
        assert compose_outage(x2, 0.0) == x2

    def test_stable_for_factors_below_epsilon(self):
        # the factored form 1-(1-a)(1-b) would round both parentheses to 1
        assert compose_outage(1e-17, 1e-22) == pytest.approx(1.0001e-17, rel=1e-10)
        assert compose_outage(1e-300, 1e-310) > 0.0

    def test_saturated_factor_gives_exactly_one(self):
        # xi1 + xi2 - xi1*xi2 lands one ulp below 1 for these
        for x2 in (0.9999999999494898, 0.0025696516537693018):
            assert compose_outage(1.0, x2) == 1.0
            assert compose_outage(x2, 1.0) == 1.0

    def test_bounds(self):
        assert compose_outage(1.0, 0.3) == 1.0
        assert compose_outage(0.0, 0.0) == 0.0
        for bad in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError):
                compose_outage(bad, 0.5)


class TestBounds:
    @pytest.mark.parametrize("n", [5, 10, 20])
    @pytest.mark.parametrize("pb_dbw", [-72.0, -66.0, -60.0])
    def test_lower_below_upper(self, n, pb_dbw):
        link = link_at(pb_dbw, n=n)
        lo, hi = outage_lb(link), outage_ub(link)
        assert 0.0 <= lo < hi <= 1.0

    def test_upper_is_lower_at_doubled_threshold(self):
        link = link_at(-66.0, n=10)
        ups = link.budget.ups_th
        want = compose_outage(xi1(link, 2 * ups), xi2(link, 2 * ups))
        assert outage_ub(link) == want
        assert_allclose(xi1(link, 2 * ups), xi1_closed(link, 2 * ups), rtol=1e-12)

    def test_noiseless_equals_xi2_bitwise(self):
        link = link_at(-66.0, n=10, ris_noise=False)
        assert outage_lb(link) == xi2(link)
        assert outage_ub(link) == xi2(link, 2.0 * link.budget.ups_th)

    @pytest.mark.parametrize("n", [5, 10, 20])
    def test_lower_bound_does_not_rise_with_power(self, n):
        # the deep low-power end, where the series cancels hardest and the
        # outage saturates at 1
        vals = [outage_lb(link_at(float(p), n=n)) for p in range(-86, -69)]
        rises = [(p, a, b) for p, a, b in zip(range(-85, -69), vals, vals[1:])
                 if b > a]
        assert not rises, rises


class TestAsymptotics:
    def test_slope_is_half_shape(self):
        # the asymptote is a pure power law: exact slope -delta/2 per decade
        link_a, link_b = link_at(-50.0, n=5), link_at(-40.0, n=5)
        drop = (math.log10(outage_asymptotic(link_a))
                - math.log10(outage_asymptotic(link_b)))
        assert_allclose(drop, diversity_order(link_a.approx), rtol=1e-9)
        assert_allclose(diversity_order(link_a.approx),
                        link_a.approx.delta / 2.0, rtol=1e-15)

    def test_converges_to_analytic(self):
        # single element, no surface noise: the limit form and the exact
        # factor share the real-valued shape, so the ratio must close in
        cfgs = dict(n=1, rate=2e6, ris_noise=False)
        far = link_at(-20.0, **cfgs)
        near = link_at(-40.0, **cfgs)
        r_far = outage_asymptotic(far) / outage_lb(far)
        r_near = outage_asymptotic(near) / outage_lb(near)
        assert abs(r_far - 1.0) < abs(r_near - 1.0)
        assert r_far == pytest.approx(1.0, abs=2e-2)

    def test_factors_against_log_space_references(self):
        link = link_at(-55.0, n=5)
        d, zeta = link.approx.delta, link.approx.zeta
        ups, psi, lam = link.budget.ups_th, link.budget.psi, link.budget.lam
        with mp.workdps(40):
            b2 = mp.sqrt(ups / psi) / zeta
            want2 = float(b2 ** d / (d * mp.gamma(d)))
            b1 = mp.sqrt(lam * ups / psi) / zeta
            mn = mp.mpf(2) * 5
            want1 = float(mp.mpf(link.y_rate) ** (-d / 2) * mp.gamma(mn + d / 2)
                          / (d * mp.gamma(d) * mp.gamma(mn)) * b1 ** d)
        assert_allclose(xi2_asymptotic(link), want2, rtol=1e-10)
        assert_allclose(xi1_asymptotic(link), want1, rtol=1e-10)

    def test_clamped_at_low_power(self):
        # both power laws pass 1 far below the operating range; each factor
        # stops at exactly 1 there
        link = link_at(-100.0, n=10)
        assert xi1_asymptotic(link) == 1.0
        assert xi2_asymptotic(link) == 1.0
        assert outage_asymptotic(link) == 1.0

    def test_noiseless_factor_zero(self):
        assert xi1_asymptotic(link_at(-60.0, ris_noise=False)) == 0.0

    def test_element_count_curves_cross(self):
        # more elements means a steeper slope but a worse constant, so the
        # N = 5 and N = 10 asymptote lines trade places across the power axis
        hi_5, hi_10 = link_at(-55.0, n=5), link_at(-55.0, n=10)
        lo_5, lo_10 = link_at(-58.0, n=5), link_at(-58.0, n=10)
        assert outage_asymptotic(hi_10) < outage_asymptotic(hi_5)
        assert 1.0 > outage_asymptotic(lo_10) > outage_asymptotic(lo_5)


class TestThroughput:
    def test_values(self):
        assert throughput(0.0, 15e6) == 15e6
        assert throughput(1.0, 15e6) == 0.0
        assert_allclose(throughput(0.25, 8e6), 6e6, rtol=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            throughput(-0.1, 1e6)
        with pytest.raises(ValueError):
            throughput(1.1, 1e6)
        with pytest.raises(ValueError):
            throughput(0.5, -1.0)


class TestOutageReport:
    def test_fields_tie_back_to_the_primitives(self):
        link = link_at(-66.0, n=10)
        rep = outage_report(link)
        assert isinstance(rep, OutageReport)
        assert rep.xi1 == xi1(link)
        assert_allclose(rep.xi1, xi1_closed(link), rtol=1e-12)
        assert rep.xi2 == xi2(link)
        assert rep.outage_lb == outage_lb(link)
        assert rep.outage_ub == outage_ub(link)
        assert rep.outage_asym == outage_asymptotic(link)
        assert rep.outage_lb < rep.outage_ub
        # throughput pairs with the lower bound, exactly
        assert rep.throughput == (1.0 - rep.outage_lb) * link.params.rate
        # the link's own quantities stay on the link
        assert not {"diversity_order", "lam", "delta", "zeta"} & {
            f.name for f in fields(OutageReport)}

    def test_evaluate_mode_dispatch(self):
        link = link_at(-66.0, n=10)
        assert evaluate_mode(link, "analytic_lb") == outage_lb(link)
        assert evaluate_mode(link, "analytic_ub") == outage_ub(link)
        assert evaluate_mode(link, "asymptotic") == outage_asymptotic(link)
        with pytest.raises(ValueError):
            evaluate_mode(link, "mc_exact")

    def test_reliability_flag(self):
        assert outage_report(link_at(-66.0, n=10)).reliability_flag == 0
        assert outage_report(link_at(-66.0, ris_noise=False)).reliability_flag == 0
        tiny = link_at(-66.0, sigma_r2=1e-16)
        assert 0.0 < tiny.budget.lam < 1e-2
        assert outage_report(tiny).reliability_flag == 1

    def test_doubled_threshold_past_the_double_range_names_the_rate(self):
        # 2^1023.5 - 1 is a finite threshold, but the upper bound doubles it
        link = build_link_model(SystemParams(rate=1023.5 * 20e6))
        assert math.isfinite(link.budget.ups_th)
        with pytest.raises(ValueError, match=r"^rate: rate/bw must be below 1023"):
            outage_report(link)


def report_bits(rep):
    return [float(v).hex() for v in astuple(rep)]


def one_link_xi1(link, ups):
    """xi1's trapezoid rule on one link with 1-D arrays: the reference the
    batched rows must equal bitwise."""
    a, dint = link.y_shape, link.approx.delta_int
    h = min(0.25, 0.4 / math.sqrt(a + dint / 2.0))
    u_lo, u_hi = -1.0 - 60.0 / a, math.log(2.0 + 1490.0 / a)
    u = h * np.arange(math.floor(u_lo / h), math.ceil(u_hi / h) + 1)
    log_w = a * (u - np.expm1(u))
    keep = log_w >= np.where(u < 0.0, -60.0, -745.0)
    u, w = u[keep], np.exp(log_w[keep])
    c = math.sqrt(link.budget.lam * ups / link.budget.psi) / link.approx.zeta
    x = c * math.sqrt(a / link.y_rate) * np.exp(0.5 * u)
    lower = float(np.sum(w * special.gammainc(dint, x)) / np.sum(w))
    if lower <= 0.5:
        return lower
    return float(1.0 - np.sum(w * special.gammaincc(dint, x)) / np.sum(w))


class TestOutageReports:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of the gammainc, gammaincc and reg_lower_gamma calls the
        pass makes."""
        count = {"gammainc": 0, "gammaincc": 0, "reg_lower_gamma": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args):
                count[name] += 1
                return fn(*args)
            monkeypatch.setattr(module, name, wrapper)

        counted(outage, "gammainc")
        counted(outage, "gammaincc")
        counted(outage.specfun, "reg_lower_gamma")
        return count

    def test_power_axis_with_noiseless_twins(self, calls):
        links = [link_at(float(p), n=10, ris_noise=q)
                 for p in range(-92, -49, 3) for q in (True, False)]
        reps = outage_reports(links)
        assert calls == {"gammainc": 1, "gammaincc": 1, "reg_lower_gamma": 1}
        # the low-power points saturate, so the complement route ran
        assert reps[0].xi1 == 1.0 and 0.0 < reps[-2].xi1 < 0.5
        assert all(r.xi1 == 0.0 for r in reps[1::2])
        for link, rep in zip(links, reps):
            ups = link.budget.ups_th
            if link.budget.lam:
                assert rep.xi1 == one_link_xi1(link, ups)
                assert rep.outage_ub == compose_outage(
                    one_link_xi1(link, 2.0 * ups), xi2(link, 2.0 * ups))
        assert [report_bits(r) for r in reps] == \
            [report_bits(outage_report(k)) for k in links]

    @pytest.mark.parametrize("field, values", [
        ("d_nd", [2.0, 3.5, 5.0, 8.0, 15.0]),
        ("alpha", [0.3, 0.5, 0.7, 0.9]),
    ])
    def test_distance_and_alpha_axes_are_one_group(self, calls, field, values):
        links = [link_at(-64.0, n=20, **{field: v}) for v in values]
        reps = outage_reports(links)
        assert calls["gammainc"] == 1 and calls["reg_lower_gamma"] == 1
        assert [report_bits(r) for r in reps] == \
            [report_bits(outage_report(k)) for k in links]

    def test_element_count_axis_is_one_group_per_link(self, calls):
        links = [link_at(-62.0, n=n) for n in range(4, 25, 4)]
        reps = outage_reports(links)
        assert calls["gammainc"] == len(links) and calls["reg_lower_gamma"] == 1
        assert [report_bits(r) for r in reps] == \
            [report_bits(outage_report(k)) for k in links]

    def test_shuffled_mix_of_two_shapes(self):
        links = [link_at(float(p), n=n, m_nd=m, ris_noise=q)
                 for n, m in ((5, 0.5), (16, 2.0)) for p in range(-80, -51, 4)
                 for q in (True, False)]
        # and a rate so small that the threshold 2^(rate/bw) - 1 is 0
        links.append(build_link_model(SystemParams(rate=1e-320)))
        assert links[-1].budget.ups_th == 0.0
        order = np.random.default_rng(3).permutation(len(links))
        links = [links[i] for i in order]
        assert [report_bits(r) for r in outage_reports(links)] == \
            [report_bits(outage_report(k)) for k in links]

    def test_a_doubled_threshold_past_the_range_refuses_before_any_evaluation(
            self, calls):
        links = [link_at(-64.0, n=10), build_link_model(SystemParams(rate=1023.5 * 20e6)),
                 link_at(-60.0, n=10)]
        with pytest.raises(ValueError, match=r"^rate: rate/bw must be below 1023"):
            outage_reports(links)
        assert calls == {"gammainc": 0, "gammaincc": 0, "reg_lower_gamma": 0}

    def test_a_link_past_the_node_cap_refuses_before_any_evaluation(self, calls):
        links = [link_at(-64.0, n=10), link_at(-60.0, n=10 ** 18)]
        with pytest.raises(ValueError, match=r"^n, m_nd: xi1 needs over 2097152 trapezoid"):
            outage_reports(links)
        assert calls == {"gammainc": 0, "gammaincc": 0, "reg_lower_gamma": 0}

    def test_no_links(self):
        assert outage_reports([]) == []

    def test_params_are_refused_by_the_link_form(self):
        # the raw params failed with an AttributeError on 'budget'
        with pytest.raises(ValueError, match=r"^links: LinkModel required, got a "
                                             r"SystemParams; build_link_model\(params\)"):
            outage_reports([link_at(-64.0), SystemParams()])

    def test_a_bare_string_of_modes_is_refused_by_name(self):
        # the string was walked a character at a time: unknown mode 'a'
        with pytest.raises(ValueError, match=r"^modes: a tuple of mode names "
                                             r"required, .*; write \('analytic_lb',\)$"):
            outage_reports([link_at(-64.0)], "analytic_lb")

    # the fields each analytic mode sets; the rest ride along with every mode
    MODE_FIELDS = {"analytic_lb": {"xi1", "xi2", "outage_lb", "throughput"},
                   "analytic_ub": {"outage_ub"}, "asymptotic": {"outage_asym"}}

    @pytest.mark.parametrize("modes", [
        modes for k in range(1, len(ANALYTIC_MODES) + 1)
        for modes in itertools.combinations(ANALYTIC_MODES, k)])
    def test_a_mode_subset_gives_the_all_modes_fields_and_none_for_the_rest(
            self, modes):
        links = [link_at(float(p), n=n, ris_noise=q) for n in (5, 20)
                 for p in range(-80, -51, 7) for q in (True, False)]
        unset = set().union(*(self.MODE_FIELDS[m] for m in ANALYTIC_MODES
                              if m not in modes))
        for want, got in zip(outage_reports(links), outage_reports(links, modes)):
            for f in fields(OutageReport):
                value = getattr(got, f.name)
                if f.name in unset:
                    assert value is None, f.name
                else:
                    assert float(value).hex() == float(getattr(want, f.name)).hex()

    def test_each_mode_forms_only_the_pairs_it_needs(self, monkeypatch):
        formed = []

        def recorded(pairs):
            formed.append([ups for _, ups in pairs])
            return xi1_values(pairs)

        xi1_values = outage._xi1_values
        monkeypatch.setattr(outage, "_xi1_values", recorded)
        links = [link_at(-64.0, n=10), link_at(-60.0, n=10)]
        ups = [link.budget.ups_th for link in links]
        for modes, want in ((("analytic_lb",), ups), (("asymptotic",), []),
                            (("analytic_ub",), [2.0 * u for u in ups]),
                            (("analytic_lb", "analytic_ub"), ups + [2.0 * u for u in ups])):
            formed.clear()
            outage_reports(links, modes)
            assert formed == [want], modes


class TestPowerForOutage:
    def test_crossing_hits_target(self):
        params = SystemParams(n=10)
        p_dbw = power_for_outage(params, 1e-3)
        link = build_link_model(replace(params, pb=10.0 ** (p_dbw / 10.0)))
        assert outage_lb(link) == pytest.approx(1e-3, rel=1e-3)
        # frozen from the same analytic chain; guards against regressions
        assert p_dbw == pytest.approx(-62.477, abs=0.05)

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            power_for_outage(SystemParams(), 0.0)
        with pytest.raises(ValueError):
            power_for_outage(SystemParams(), 1.0)


def test_build_link_model_assembly():
    link = build_link_model(SystemParams())
    assert_allclose(link.omega_bn, 10.0 ** -6.4, rtol=1e-14)
    assert_allclose(link.omega_nd, 0.25, rtol=1e-15)
    assert link.y_shape == 20.0
    assert link.y_rate == 8.0
    assert link.approx.delta_int == 36
    assert_allclose(link.budget.lam, 4.0596166, atol=5e-7)


def bits(value):
    """value with each float as its hex string and each dataclass as the
    tuple of its fields: equal only where equal bit for bit."""
    if is_dataclass(value):
        return tuple(bits(getattr(value, f.name)) for f in fields(value))
    return value.hex() if type(value) is float else value


def reference_link(p: SystemParams) -> LinkModel:
    """The link of p derived field by field through the checked public
    helpers, with nothing shared between params."""
    sigma_d2 = p.sigma_d2 if p.sigma_d2 is not None \
        else receiver_noise_power(p.temp, p.bw, p.nf)
    sigma_r2 = (0.0 if not p.ris_noise else p.sigma_r2 if p.sigma_r2 is not None
                else ris_noise_power(p.n, p.alpha, p.temp, p.bw))
    rho = p.pb / sigma_d2
    budget = NoiseBudget(sigma_d2, sigma_r2, p.alpha * sigma_r2 / sigma_d2, rho,
                         rho * p.alpha, sinr_threshold(p.rate, p.bw))
    omega_bn = path_loss(p.d_bn, p.tau_bn, p.phi_ref)
    omega_nd = path_loss(p.d_nd, p.tau_nd, p.phi_ref)
    approx = gamma_approx(*cascade_moments(p.n, p.m_bn, p.m_nd, omega_bn, omega_nd))
    return LinkModel(p, budget, omega_bn, omega_nd, approx,
                     *y_gamma_params(p.n, p.m_nd, omega_nd))


class TestBuildLinkModels:
    def test_a_mixed_list_is_built_bit_for_bit_as_one_at_a_time(self, monkeypatch):
        # two powers (the slowest index, so each pb-free group comes round
        # twice), two n, two d_nd, and four noise settings: sigma_r2 = -0.0
        # compares equal to 0.0 but gives lam = -0.0, so it is its own group
        noise_settings = ({}, {"ris_noise": False}, {"sigma_r2": 0.0},
                          {"sigma_r2": -0.0})
        seq = [SystemParams(pb=pb, n=n, d_nd=d_nd, **kw) for pb, n, d_nd, kw
               in itertools.product((1e-6, 1e-7), (5, 10), (2.0, 5.0), noise_settings)]
        hops = []
        monkeypatch.setattr(outage, "hop_powers",
                            lambda params: hops.append(params) or noise.hop_powers(params))
        links = build_link_models(seq)
        assert len(hops) == 16
        assert [link.params for link in links] == seq
        assert [bits(link) for link in links] \
            == [bits(build_link_model(p)) for p in seq] \
            == [bits(reference_link(p)) for p in seq]
        lams = {bits(link.budget.lam) for link in links if link.params.sigma_r2 == 0.0}
        assert lams == {(0.0).hex(), (-0.0).hex()}

    @pytest.mark.parametrize("pb, sigma_d2, message", [
        (5e-324, 1e10, "pb: the signal scale pb*alpha/sigma_d2 underflows to 0, "
                       "got pb=5e-324, alpha=0.9, sigma_d2=10000000000.0"),
        (1e300, 1e-20, "pb: the signal scale pb*alpha/sigma_d2 is past the double "
                       "range, got pb=1e+300, alpha=0.9, sigma_d2=1e-20"),
    ])
    def test_a_signal_scale_past_the_double_range_is_refused(self, pb, sigma_d2,
                                                             message):
        # after a good pb of its pb-free group, whose derivation it shares,
        # as alone
        good = SystemParams(sigma_d2=sigma_d2)
        for seq in ([good, replace(good, pb=pb)], [replace(good, pb=pb)]):
            with pytest.raises(ValueError, match=re.escape(message)):
                build_link_models(seq)

    def test_a_params_is_refused_in_the_order_it_is_derived(self):
        # pb's refusal comes before that of a hop power that underflows, as
        # build_noise_budget raises it before hop_powers runs
        with pytest.raises(ValueError, match="^pb: the signal scale"):
            build_link_models([SystemParams(pb=5e-324, sigma_d2=1e10, d_bn=1e300)])

    def test_only_system_params_are_built(self):
        with pytest.raises(ValueError, match="params: SystemParams required, got a dict"):
            build_link_models([{"n": 5}])
