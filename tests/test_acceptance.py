"""Release gate: one test per contract criterion, each printing a verdict line.

Every test times itself where the gate carries a runtime cap, computes the
gate quantity from scratch, prints one PASS/FAIL line, and asserts.  A gate
that cannot be met stays red with its diagnostic in the message; tolerances
are never loosened to hide a defect.
"""
import math
import time

import mpmath as mp
import numpy as np

from risnoise import noise
from risnoise.fading import cascade_moments
from risnoise.mcsim import (
    McConfig,
    draw_realization,
    estimate_outages,
    estimate_throughput,
    sinr_bounds,
    sinr_exact,
)
from risnoise.noise import (
    REFERENCE_NOISE_TABLE_DBW,
    SystemParams,
    build_noise_budget,
    db_from_watts,
    receiver_noise_power,
)
from risnoise.outage import (
    build_link_model,
    outage_asymptotic,
    outage_lb,
    outage_report,
    power_for_outage,
    xi1_closed,
    xi1_oracle,
    xi2,
)
from risnoise.specfun import (
    kummer_1f1,
    meijer_g_1_1_1_2,
    meijer_g_2_1_1_2,
    meijer_g_2_1_1_2_contour,
)


def _verdict(gate: str, ok: bool, detail: str) -> None:
    line = f"{gate}: {'PASS' if ok else 'FAIL'} {detail}"
    print(line, flush=True)
    assert ok, line


def test_gate01_reference_noise_grid():
    # every tabulated surface-noise power, 1e-3 dB, under 1 s
    t0 = time.perf_counter()
    worst = 0.0
    for (alpha, n), ref in REFERENCE_NOISE_TABLE_DBW.items():
        got = db_from_watts(noise.ris_noise_power(n, alpha))
        worst = max(worst, abs(got - ref))
    elapsed = time.perf_counter() - t0
    _verdict("gate 01 reference-noise-grid",
             worst <= 1e-3 and elapsed < 1.0,
             f"max deviation {worst:.3e} dB (tol 1e-3), {elapsed:.2f}s; the "
             f"published grid was tabulated with the two-digit Boltzmann "
             f"constant, a 2.04e-3 dB systematic offset")


def test_gate02_receiver_noise_floor():
    # 3 dB noise figure as a true dB value, not linear 2
    got = db_from_watts(receiver_noise_power(290.0, 2e7, 10.0 ** 0.3))
    ok = abs(got - (-127.96)) < 5e-3 and abs(got - (-128.0)) <= 0.1
    _verdict("gate 02 receiver-noise-floor", ok,
             f"kTB*NF = {got:.4f} dBW vs -127.96 expected, -128 nominal")


def test_gate03_noiseless_reduction():
    # switching the surface noise off must collapse the composition onto
    # the single noise-limited factor, bitwise, across 100 points
    checked = 0
    ok = True
    for n in (1, 2, 5, 10, 20):
        for alpha in (0.5, 0.9):
            for pb_dbw in np.linspace(-80.0, -53.0, 10):
                p = SystemParams(n=n, alpha=alpha,
                                 pb=10.0 ** (float(pb_dbw) / 10.0),
                                 ris_noise=False)
                link = build_link_model(p)
                if outage_lb(link) != xi2(link):
                    ok = False
                checked += 1
    _verdict("gate 03 noiseless-reduction", ok and checked == 100,
             f"outage_lb == xi2 bitwise at {checked}/100 points")


def test_gate04_cascade_moment_match():
    t0 = time.perf_counter()
    details = []
    ok = True
    for n in (5, 10, 20):
        p = SystemParams(n=n)
        link = build_link_model(p)
        mu, var = cascade_moments(n, p.m_bn, p.m_nd,
                                  link.omega_bn, link.omega_nd)
        rng = np.random.Generator(
            np.random.Philox(key=np.array([41, n], dtype=np.uint64)))
        x, _ = draw_realization(p, rng, size=1_000_000)
        d = np.sqrt(x)
        m_hat, v_hat = d.mean(), d.var(ddof=1)
        se_m = math.sqrt(var / d.size)
        m4 = float(np.mean((d - m_hat) ** 4))
        se_v = math.sqrt(max(m4 - v_hat ** 2, 0.0) / d.size)
        zm = abs(m_hat - mu) / se_m
        zv = abs(v_hat - var) / se_v
        ok = ok and zm < 3.0 and zv < 3.0
        details.append(f"n={n}: mean {zm:.2f}se var {zv:.2f}se")
    elapsed = time.perf_counter() - t0
    _verdict("gate 04 cascade-moment-match", ok and elapsed < 30.0,
             "; ".join(details) + f"; {elapsed:.1f}s (cap 30)")


def test_gate05_series_vs_quadrature():
    # closed-form series against the real-shape quadrature oracle; the
    # oracle >= 1e-9 guard only drops points where both routes sit at
    # double-precision noise, far below the binding worst case
    worst = (0.0, "")
    for n in (5, 10, 20):
        for d in (2.0, 3.5, 5.0):
            for v in (-75, -70, -65, -60, -55, -50):
                link = build_link_model(
                    SystemParams(n=n, d_nd=d, pb=10.0 ** (v / 10.0)))
                s, o = xi1_closed(link), xi1_oracle(link)
                if o < 1e-9:
                    continue
                rel = abs(s - o) / o
                if rel > worst[0]:
                    worst = (rel, f"n={n} d_nd={d} pb={v} dBW "
                                  f"(series {s:.3e}, oracle {o:.3e})")
    a_ok = worst[0] <= 1e-3

    link8 = build_link_model(SystemParams(n=20, d_nd=8.0, pb=1e-6))
    s8, o8 = xi1_closed(link8), xi1_oracle(link8)
    rel8 = abs(s8 - o8) / o8
    b_ok = rel8 > 1e-2
    flagged = outage_report(link8).reliability_flag == 1

    _verdict(
        "gate 05 series-vs-quadrature", a_ok and b_ok and flagged,
        f"in-domain worst rel {worst[0]:.4f} at {worst[1]} (tol 1e-3, "
        f"integer-rounded shape vs real shape); 8 m breakdown rel "
        f"{rel8:.4f} (> 1e-2 wanted: {b_ok}); reliability flag at 8 m: "
        f"{int(flagged)} (the documented floor keys on lambda, which does "
        f"not move with hop distance)")


def test_gate06_analytic_vs_simulation():
    # composition bound against simulation of the same bounded SINR at
    # every swept power with outage >= 1e-5
    # every point goes to one estimate_outages call, which draws each
    # batch once per fading key (n) and gives each point the counts it
    # would get alone
    t0 = time.perf_counter()
    points = []
    for n in (5, 10):
        for v in range(-80, -49, 3):
            params = SystemParams(n=n, pb=10.0 ** (v / 10.0))
            want = outage_lb(build_link_model(params))
            if want >= 1e-5:
                points.append((n, v, params, want))
    estimates = estimate_outages([(params, "ub") for _, _, params, _ in points],
                                 McConfig(trials=10_000_000, seed=1), workers=4)
    rows = []
    all_inside = True
    for (n, v, _, want), est in zip(points, estimates):
        inside = est.ci_lo <= want <= est.ci_hi
        all_inside = all_inside and inside
        rows.append(f"n={n} pb={v}: analytic {want:.4e} "
                    f"mc [{est.ci_lo:.4e}, {est.ci_hi:.4e}] "
                    f"inside={inside}")
    elapsed = time.perf_counter() - t0
    print("\n".join(rows), flush=True)
    _verdict(
        "gate 06 analytic-vs-simulation",
        all_inside and elapsed < 300.0,
        f"{sum('inside=True' in r for r in rows)}/{len(rows)} points inside "
        f"the 95% CI at 1e7 trials, {elapsed:.0f}s (cap 300); the factored "
        f"composition treats the fading ratio and its denominator as "
        f"independent, but they share the receiver-hop draws")


def test_gate07_power_crossings():
    targets = [
        (SystemParams(n=5), -59.0, "n=5 with surface noise"),
        (SystemParams(n=5, ris_noise=False), -64.5, "n=5 noiseless"),
        (SystemParams(n=10), -61.8, "n=10 with surface noise"),
        (SystemParams(n=10, ris_noise=False), -73.0, "n=10 noiseless"),
    ]
    details = []
    ok = True
    for params, want, label in targets:
        got = power_for_outage(params, 1e-3, mode="analytic_lb")
        ok = ok and abs(got - want) <= 1.0
        details.append(f"{label}: {got:.2f} dBW (want {want} +- 1)")
    _verdict("gate 07 power-crossings", ok, "; ".join(details))


def test_gate08_asymptote_slope():
    details = []
    ok = True
    for n, window in ((5, (-40.0, -20.0)), (10, (-45.0, -25.0))):
        pts = np.linspace(window[0], window[1], 9)
        vals = [outage_asymptotic(build_link_model(
            SystemParams(n=n, pb=10.0 ** (float(v) / 10.0)))) for v in pts]
        slope = float(np.polyfit(pts / 10.0, np.log10(vals), 1)[0])
        want = -build_link_model(SystemParams(n=n)).approx.delta / 2.0
        rel = abs(slope - want) / abs(want)
        ok = ok and rel < 0.01
        details.append(f"n={n}: fitted {slope:.5f} vs {want:.5f} "
                       f"(rel {rel:.1e})")
    _verdict("gate 08 asymptote-slope", ok, "; ".join(details))


def test_gate09_bound_sandwich():
    params = SystemParams()
    rng = np.random.Generator(
        np.random.Philox(key=np.array([9, 0], dtype=np.uint64)))
    x, y = draw_realization(params, rng, size=1_000_000)
    budget = build_noise_budget(params)
    lb, ub = sinr_bounds(x, y, budget)
    mid = sinr_exact(x, y, budget)
    bad = int(np.count_nonzero(~((lb <= mid) & (mid <= ub))))
    _verdict("gate 09 bound-sandwich", bad == 0,
             f"{bad} violations in {x.size} draws")


def test_gate10_noise_relevance_boundary():
    # paired runs (same seed, same draws) so the measured gap is the noise
    # term's own effect, not independent sampling noise
    t0 = time.perf_counter()
    cfg = McConfig(trials=1_000_000, seed=31)

    far = dict(n=10, sigma_d2=10.0 ** -12.8, d_nd=30.0)
    best = (0.0, 0.0, 0.0)
    for v in (-60.0, -58.0, -56.0, -54.0, -52.0):
        noisy = estimate_throughput(
            SystemParams(pb=10.0 ** (v / 10.0), **far), cfg, workers=4)
        quiet = estimate_throughput(
            SystemParams(pb=10.0 ** (v / 10.0), **far, ris_noise=False),
            cfg, workers=4)
        gap = abs(quiet.value - noisy.value)
        width = max(noisy.ci_hi - noisy.ci_lo, quiet.ci_hi - quiet.ci_lo)
        if gap >= best[1]:
            best = (v, gap, width)
    a_ok = best[1] > best[2]

    drowned = dict(n=10, pb=10.0 ** -4.2, sigma_d2=1e-11, d_nd=15.0)
    noisy = estimate_throughput(SystemParams(**drowned), cfg, workers=4)
    quiet = estimate_throughput(SystemParams(**drowned, ris_noise=False),
                                cfg, workers=4)
    gap_b = abs(quiet.value - noisy.value)
    rate = SystemParams().rate
    b_ok = gap_b < 0.01 * rate
    elapsed = time.perf_counter() - t0
    _verdict(
        "gate 10 noise-relevance-boundary",
        a_ok and b_ok and elapsed < 300.0,
        f"quiet floor, 30 m: largest paired gap {best[1]:.3e} bit/s at "
        f"{best[0]} dBW vs CI width {best[2]:.3e} (must exceed: {a_ok}); "
        f"loud floor, 15 m: gap {gap_b:.3e} bit/s < 1% of rate "
        f"({0.01 * rate:.1e}): {b_ok}; {elapsed:.0f}s (cap 300)")


def test_gate11_special_function_identities():
    t0 = time.perf_counter()
    worst_g = 0.0
    for delta in np.geomspace(0.7, 71.2, 10):
        for x in np.geomspace(0.05, 50.0, 10):
            got = meijer_g_1_1_1_2(float(delta), float(x))
            with mp.workdps(30):
                want = float(mp.gammainc(float(delta), 0, float(x)))
            worst_g = max(worst_g, abs(got - want) / abs(want))

    worst_k = 0.0
    for a, b, z in ((0.5, 1.5, 2.0), (3.0, 4.5, 6.0), (17.8, 18.8, 1.5),
                    (2.0, 9.0, 25.0), (35.6, 36.6, 0.8), (8.2, 9.2, 12.0)):
        lhs = kummer_1f1(a, b, z)
        with mp.workdps(30):
            rhs = math.exp(z) * float(mp.hyp1f1(b - a, b, -z))
        worst_k = max(worst_k, abs(lhs - rhs) / abs(lhs))

    worst_c = 0.0
    for a1 in (-9.5, -13.5, -17.5, -21.0, -25.5):
        for z in (0.05, 0.2, 0.5, 0.9, 1.4, 2.0, 2.8, 3.7, 4.8, 6.0):
            got = meijer_g_2_1_1_2(a1, z)
            ref = meijer_g_2_1_1_2_contour(a1, z, dps=14)
            worst_c = max(worst_c, abs(got - ref) / abs(ref))
    elapsed = time.perf_counter() - t0
    ok = (worst_g < 1e-10 and worst_k < 1e-9 and worst_c < 1e-6
          and elapsed < 30.0)
    _verdict("gate 11 special-function-identities", ok,
             f"incomplete-gamma grid {worst_g:.1e} (tol 1e-10); transform "
             f"grid {worst_k:.1e} (tol 1e-9); contour grid {worst_c:.1e} "
             f"(tol 1e-6); {elapsed:.0f}s (cap 30)")
