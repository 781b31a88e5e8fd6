import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from risnoise import mcsim
from risnoise.fading import cascade_moments
from risnoise.mcsim import (
    ConfigError,
    McConfig,
    McEstimate,
    binomial_ci,
    draw_realization,
    estimate_outage,
    estimate_outages,
    estimate_throughput,
    sinr_bounds,
    sinr_exact,
)
from risnoise.noise import SystemParams, build_noise_budget
from risnoise.outage import build_link_model, xi2


def rng_for(seed=1234):
    return np.random.default_rng(seed)


class TestDrawRealization:
    def test_single_rayleigh_power_mean(self):
        # N=1, m=1, unit distances: Y is a plain exponential with mean 1
        params = SystemParams(n=1, m_bn=1.0, m_nd=1.0, d_bn=1.0, d_nd=1.0)
        _, y = draw_realization(params, rng_for(), size=1_000_000)
        assert y.mean() == pytest.approx(1.0, rel=0.01)

    def test_signal_amplitude_matches_moment_oracle(self):
        params = SystemParams(n=10)
        trials = 400_000
        x, _ = draw_realization(params, rng_for(7), size=trials)
        mu, var = cascade_moments(10, 2.0, 2.0, 10.0 ** -6.4, 0.25)
        se = math.sqrt(var / trials)
        assert abs(np.sqrt(x).mean() - mu) < 3.0 * se

    def test_surface_power_mean(self):
        params = SystemParams(n=10)
        _, y = draw_realization(params, rng_for(8), size=200_000)
        assert y.mean() == pytest.approx(10 * 0.25, rel=0.01)

    def test_signal_and_surface_powers_are_coupled(self):
        # the same receiver-hop amplitudes feed both sums
        params = SystemParams(n=5)
        x, y = draw_realization(params, rng_for(9), size=100_000)
        assert np.corrcoef(np.sqrt(x), y)[0, 1] > 0.3

    def test_scalar_form(self):
        x, y = draw_realization(SystemParams(), rng_for())
        assert isinstance(x, float) and isinstance(y, float)
        assert x > 0.0 and y > 0.0

    def test_phase_validation_mode_agrees(self):
        # complex route with the cancelling phase profile reproduces the
        # amplitude route; a mismatch raises instead of returning
        x, y = draw_realization(SystemParams(n=10), rng_for(11), size=20_000,
                                validate_phases=True)
        assert x.shape == (20_000,)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            draw_realization(SystemParams(n=0), rng_for())
        with pytest.raises(ValueError):
            draw_realization(SystemParams(), rng_for(), size=0)


class TestSinr:
    def test_exact_formula(self):
        budget = build_noise_budget(SystemParams())
        got = sinr_exact(2.0, 3.0, budget)
        assert_allclose(got, budget.psi * 2.0 / (budget.lam * 3.0 + 1.0),
                        rtol=1e-15)
        assert sinr_exact(0.0, 5.0, budget) == 0.0

    def test_exact_noiseless_is_scaled_power(self):
        budget = build_noise_budget(SystemParams(ris_noise=False))
        x = np.array([0.5, 2.0, 7.0])
        assert np.array_equal(sinr_exact(x, np.ones(3), budget), budget.psi * x)

    def test_bounds_formula(self):
        budget = build_noise_budget(SystemParams())
        lb, ub = sinr_bounds(2.0, 3.0, budget)
        want = min(budget.psi * 2.0 / (budget.lam * 3.0), budget.psi * 2.0)
        assert_allclose(ub, want, rtol=1e-15)
        assert lb == 0.5 * ub

    def test_bounds_with_zero_lambda(self):
        budget = build_noise_budget(SystemParams(ris_noise=False))
        lb, ub = sinr_bounds(np.array([1.0, 4.0]), np.array([2.0, 0.0]), budget)
        assert np.array_equal(ub, budget.psi * np.array([1.0, 4.0]))
        assert np.array_equal(lb, 0.5 * ub)

    def test_sandwich_holds_for_every_draw(self):
        params = SystemParams(n=10)
        budget = build_noise_budget(params)
        x, y = draw_realization(params, rng_for(21), size=100_000)
        lb, ub = sinr_bounds(x, y, budget)
        exact = sinr_exact(x, y, budget)
        assert np.all(lb <= exact) and np.all(exact <= ub)

    def test_domain(self):
        budget = build_noise_budget(SystemParams())
        with pytest.raises(ValueError):
            sinr_exact(-1.0, 0.0, budget)
        with pytest.raises(ValueError):
            sinr_bounds(1.0, -2.0, budget)


class TestBinomialCi:
    def test_normal_regime_width(self):
        lo, hi = binomial_ci(5000, 10_000, 0.95)
        half = 1.959963985 * math.sqrt(0.25 / 10_000)
        assert_allclose(hi - lo, 2 * half, rtol=1e-6)
        assert lo < 0.5 < hi

    def test_exact_tail_regime(self):
        # 3 successes in 10^4: exact interval, asymmetric around p_hat
        lo, hi = binomial_ci(3, 10_000, 0.95)
        assert 0.0 < lo < 3e-4 < hi < 1e-3
        assert (hi - 3e-4) > (3e-4 - lo)

    def test_zero_and_full_counts(self):
        lo, hi = binomial_ci(0, 5_000, 0.95)
        assert lo == 0.0 and 0.0 < hi < 1e-3
        lo, hi = binomial_ci(5_000, 5_000, 0.95)
        assert hi == 1.0 and lo > 0.999

    def test_covers_true_p(self):
        # frequentist sanity: ~95% of intervals cover the truth
        rng = rng_for(5)
        p, trials, runs = 0.2, 2_000, 400
        hits = 0
        for _ in range(runs):
            k = rng.binomial(trials, p)
            lo, hi = binomial_ci(int(k), trials, 0.95)
            hits += lo <= p <= hi
        assert hits / runs > 0.9


class TestEstimateOutage:
    CFG = McConfig(trials=100_000, seed=42)

    def test_deterministic_given_seed(self):
        params = SystemParams(n=5, pb=10.0 ** -6.8)
        a = estimate_outage(params, self.CFG)
        b = estimate_outage(params, self.CFG)
        assert a == b
        c = estimate_outage(params, replace(self.CFG, seed=43))
        assert c.p_hat != a.p_hat

    def test_worker_count_does_not_change_the_estimate(self, monkeypatch):
        params = SystemParams(n=5, pb=10.0 ** -6.8)
        cfg = McConfig(trials=100_000, seed=7, batch=20_000)
        serial = estimate_outage(params, cfg, workers=1)
        threaded = estimate_outage(params, cfg, workers=4)
        assert serial == threaded
        monkeypatch.setenv("RISNOISE_WORKERS", "3")
        from_env = estimate_outage(params, cfg)
        assert from_env == serial

    def test_partial_tail_batch(self):
        params = SystemParams(n=5, pb=10.0 ** -6.8)
        cfg = McConfig(trials=50_000, seed=3, batch=17_000)
        est = estimate_outage(params, cfg)
        assert est.trials_used == 50_000
        assert 0.0 < est.p_hat < 1.0

    def test_estimator_ordering_across_variants(self):
        params = SystemParams(n=5, pb=10.0 ** -6.7)
        p = {w: estimate_outage(params, self.CFG, which=w).p_hat
             for w in ("lb", "exact", "ub")}
        # lower SINR bound -> more outages; upper -> fewer
        assert p["ub"] <= p["exact"] <= p["lb"]

    def test_zero_threshold_never_fails(self):
        params = SystemParams(rate=0.0, pb=1e-9)
        est = estimate_outage(params, McConfig(trials=2_000, seed=1, batch=1_000))
        assert est.p_hat == 0.0 and est.ci_lo == 0.0

    def test_noiseless_matches_analytic_factor(self):
        # relative band, not CI containment: the analytic factor carries
        # the moment-matching bias (~4% at n=5), which outweighs the
        # sampling noise once trials are this high
        params = SystemParams(n=5, pb=10.0 ** -6.6, ris_noise=False)
        est = estimate_outage(params, McConfig(trials=400_000, seed=10))
        want = xi2(build_link_model(params))
        assert abs(est.p_hat - want) / want < 0.08

    def test_ci_width_shrinks_like_root_trials(self):
        params = SystemParams(n=5, pb=10.0 ** -6.9)
        w1 = estimate_outage(params, McConfig(trials=100_000, seed=2))
        w2 = estimate_outage(params, McConfig(trials=200_000, seed=2))
        ratio = (w1.ci_hi - w1.ci_lo) / (w2.ci_hi - w2.ci_lo)
        assert ratio == pytest.approx(math.sqrt(2.0), rel=0.1)

    def test_config_rejections(self):
        params = SystemParams()
        for cfg in (McConfig(trials=999), McConfig(trials=10_000, batch=0),
                    McConfig(trials=10_000, seed=-1),
                    McConfig(trials=10_000, seed=2 ** 64),
                    McConfig(trials=10_000, ci_level=1.0)):
            with pytest.raises(ConfigError):
                estimate_outage(params, cfg)
        with pytest.raises(ValueError):
            estimate_outage(params, McConfig(trials=10_000), which="both")

    def test_config_names_every_problem(self):
        with pytest.raises(ConfigError) as err:
            McConfig(trials=True, seed=False, batch=True, ci_level=1.0).validate()
        msg = str(err.value)
        for field in ("trials", "seed", "batch", "ci_level"):
            assert f"{field}:" in msg


class TestEstimateOutages:
    def test_shared_draws_match_separate_estimates(self, monkeypatch):
        # a power axis with noiseless twins: one fading key, so each batch
        # is drawn once for all twelve requests
        requests = [(SystemParams(n=5, pb=10.0 ** (dbw / 10.0), ris_noise=noisy), which)
                    for dbw in (-70.0, -68.0, -66.0) for noisy in (True, False)
                    for which in ("exact", "ub")]
        cfg = McConfig(trials=20_000, seed=9, batch=6_000)
        separate = [estimate_outage(p, cfg, which=w) for p, w in requests]
        draws = []
        original = mcsim.draw_realization

        def counted(*args, **kwargs):
            draws.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(mcsim, "draw_realization", counted)
        assert estimate_outages(requests, cfg, workers=2) == separate
        assert len(draws) == 4   # batches of 6000, 6000, 6000 and 2000

    def test_each_fading_key_draws_its_own_batches(self):
        requests = [(SystemParams(n=n, pb=1e-7), "exact") for n in (4, 6)]
        cfg = McConfig(trials=4_000, seed=5, batch=1_000)
        together = estimate_outages(requests, cfg)
        assert together == [estimate_outage(p, cfg) for p, _ in requests]
        assert together[0] != together[1]


class TestEstimateThroughput:
    def test_interval_mapping(self):
        params = SystemParams(n=5, pb=10.0 ** -6.8)
        cfg = McConfig(trials=100_000, seed=4)
        out = estimate_outage(params, cfg)
        thr = estimate_throughput(params, cfg)
        assert thr.value == (1.0 - out.p_hat) * params.rate
        assert thr.ci_lo == (1.0 - out.ci_hi) * params.rate
        assert thr.ci_hi == (1.0 - out.ci_lo) * params.rate
        assert thr.ci_lo <= thr.value <= thr.ci_hi

    def test_high_power_saturates_at_rate(self):
        params = SystemParams(n=10, pb=1.0)
        thr = estimate_throughput(params, McConfig(trials=5_000, seed=6))
        assert thr.value == params.rate
