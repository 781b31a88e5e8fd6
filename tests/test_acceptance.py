"""Release gate: one test per contract criterion, each printing a verdict line.

Every test times itself where the gate carries a runtime cap, computes the
gate quantity from scratch, prints one PASS/FAIL line, and asserts.  A gate
whose quantity `risnoise validate` also checks measures it through the same
body in risnoise.cli, on the gate's own grid, seed and tolerance.  A gate
that cannot be met stays red with its diagnostic in the message; tolerances
are never loosened to hide a defect.
"""
import itertools
import time

import numpy as np

from risnoise import cli
from risnoise.mcsim import (
    McConfig,
    ThroughputEstimate,
    draw_realization,
    estimate_outages,
)
from risnoise.noise import (
    SystemParams,
    build_noise_budget,
    db_from_watts,
    receiver_noise_power,
)
from risnoise.outage import (
    build_link_model,
    outage_lb,
    outage_report,
    power_for_outage,
    throughput,
)


def _verdict(gate: str, ok: bool, detail: str) -> None:
    line = f"{gate}: {'PASS' if ok else 'FAIL'} {detail}"
    print(line, flush=True)
    assert ok, line


def test_gate01_reference_noise_grid():
    # every tabulated surface-noise power, 1e-3 dB, under 1 s
    t0 = time.perf_counter()
    worst = cli._table2_deviation()
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
    links = [build_link_model(SystemParams(n=n, alpha=alpha,
                                           pb=10.0 ** (float(pb_dbw) / 10.0),
                                           ris_noise=False))
             for n in (1, 2, 5, 10, 20) for alpha in (0.5, 0.9)
             for pb_dbw in np.linspace(-80.0, -53.0, 10)]
    bad = cli._noiseless_mismatches(links)
    _verdict("gate 03 noiseless-reduction", bad == 0 and len(links) == 100,
             f"outage_lb == xi2 bitwise at {len(links)}/100 points")


def test_gate04_cascade_moment_match():
    t0 = time.perf_counter()
    details = []
    ok = True
    for n in (5, 10, 20):
        link = build_link_model(SystemParams(n=n))
        rng = np.random.Generator(
            np.random.Philox(key=np.array([41, n], dtype=np.uint64)))
        x, _ = draw_realization(link.params, rng, size=1_000_000)
        zm, zv, _ = cli._moment_z(link, x)
        ok = ok and zm < 3.0 and zv < 3.0
        details.append(f"n={n}: mean {zm:.2f}se var {zv:.2f}se")
    elapsed = time.perf_counter() - t0
    _verdict("gate 04 cascade-moment-match", ok and elapsed < 30.0,
             "; ".join(details) + f"; {elapsed:.1f}s (cap 30)")


def test_gate05_series_vs_quadrature():
    # closed-form series against the real-shape quadrature oracle; the
    # oracle >= 1e-9 guard only drops points where both routes sit at
    # double-precision noise, far below the binding worst case
    where = {build_link_model(SystemParams(n=n, d_nd=d, pb=10.0 ** (v / 10.0))):
             f"n={n} d_nd={d} pb={v} dBW"
             for n in (5, 10, 20) for d in (2.0, 3.5, 5.0)
             for v in (-75, -70, -65, -60, -55, -50)}
    worst, link, s, o = cli._series_vs_oracle(where, floor=1e-9)
    a_ok = worst <= 1e-3

    link8 = build_link_model(SystemParams(n=20, d_nd=8.0, pb=1e-6))
    rel8 = cli._series_vs_oracle([link8])[0]
    b_ok = rel8 > 1e-2
    flagged = outage_report(link8).reliability_flag == 1

    _verdict(
        "gate 05 series-vs-quadrature", a_ok and b_ok and flagged,
        f"in-domain worst rel {worst:.4f} at {where[link]} (series {s:.3e}, "
        f"oracle {o:.3e}) (tol 1e-3, integer-rounded shape vs real shape); "
        f"8 m breakdown rel {rel8:.4f} (> 1e-2 wanted: {b_ok}); reliability "
        f"flag at 8 m: {int(flagged)} (the documented floor keys on lambda, "
        f"which does not move with hop distance)")


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
            link = build_link_model(SystemParams(n=n, pb=10.0 ** (v / 10.0)))
            want = outage_lb(link)
            if want >= 1e-5:
                points.append((n, v, link, want))
    estimates = estimate_outages([(link, "ub") for _, _, link, _ in points],
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
        rel, slope, want = cli._asymptote_slope(n, np.linspace(*window, 9))
        ok = ok and rel < 0.01
        details.append(f"n={n}: fitted {slope:.5f} vs {want:.5f} "
                       f"(rel {rel:.1e})")
    _verdict("gate 08 asymptote-slope", ok, "; ".join(details))


def test_gate09_bound_sandwich():
    params = SystemParams()
    rng = np.random.Generator(
        np.random.Philox(key=np.array([9, 0], dtype=np.uint64)))
    x, y = draw_realization(params, rng, size=1_000_000)
    bad = cli._sandwich_violations(x, y, build_noise_budget(params))
    _verdict("gate 09 bound-sandwich", bad == 0,
             f"{bad} violations in {x.size} draws")


def test_gate10_noise_relevance_boundary():
    # paired runs (same seed, same draws) so the measured gap is the noise
    # term's own effect, not independent sampling noise; one estimate_outages
    # call draws each batch once per fading key (d_nd) for all twelve links
    t0 = time.perf_counter()
    cfg = McConfig(trials=1_000_000, seed=31)
    rate = SystemParams().rate

    far = dict(n=10, sigma_d2=10.0 ** -12.8, d_nd=30.0)
    drowned = dict(n=10, pb=10.0 ** -4.2, sigma_d2=1e-11, d_nd=15.0)
    powers = (-60.0, -58.0, -56.0, -54.0, -52.0)
    points = [dict(pb=10.0 ** (v / 10.0), **far) for v in powers] + [drowned]
    links = [build_link_model(SystemParams(**point, ris_noise=noisy))
             for point in points for noisy in (True, False)]
    estimates = estimate_outages([(link, "exact") for link in links], cfg, workers=4)
    # the interval mapped through the rate as estimate_throughput maps it
    rates = [ThroughputEstimate(throughput(e.p_hat, rate), throughput(e.ci_hi, rate),
                                throughput(e.ci_lo, rate), e.trials_used)
             for e in estimates]
    pairs = list(zip(rates[::2], rates[1::2]))   # (noisy, quiet)

    best = (0.0, 0.0, 0.0)
    for v, (noisy, quiet) in zip(powers, pairs):
        gap = abs(quiet.value - noisy.value)
        width = max(noisy.ci_hi - noisy.ci_lo, quiet.ci_hi - quiet.ci_lo)
        if gap >= best[1]:
            best = (v, gap, width)
    a_ok = best[1] > best[2]

    noisy, quiet = pairs[-1]
    gap_b = abs(quiet.value - noisy.value)
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
    worst_g = cli._gamma_identity_error(np.geomspace(0.7, 71.2, 10),
                                        np.geomspace(0.05, 50.0, 10))
    worst_k = cli._kummer_transform_error(
        ((0.5, 1.5, 2.0), (3.0, 4.5, 6.0), (17.8, 18.8, 1.5),
         (2.0, 9.0, 25.0), (35.6, 36.6, 0.8), (8.2, 9.2, 12.0)))
    worst_c = cli._meijer_dual_route_error(itertools.product(
        (-9.5, -13.5, -17.5, -21.0, -25.5),
        (0.05, 0.2, 0.5, 0.9, 1.4, 2.0, 2.8, 3.7, 4.8, 6.0)))
    elapsed = time.perf_counter() - t0
    ok = (worst_g < 1e-10 and worst_k < 1e-9 and worst_c < 1e-6
          and elapsed < 30.0)
    _verdict("gate 11 special-function-identities", ok,
             f"incomplete-gamma grid {worst_g:.1e} (tol 1e-10); transform "
             f"grid {worst_k:.1e} (tol 1e-9); contour grid {worst_c:.1e} "
             f"(tol 1e-6); {elapsed:.0f}s (cap 30)")
