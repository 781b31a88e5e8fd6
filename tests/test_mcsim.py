import ast
import hashlib
import inspect
import itertools
import math
import random
import re
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_equal

import risnoise
from risnoise import mcsim
from risnoise.fading import cascade_moments, sample_nakagami
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
from risnoise.noise import SystemParams, build_noise_budget, hop_powers, path_loss
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

    def test_complex_channel_route_agrees(self):
        # random channel phases with the cancelling surface profile
        # phi_n = -arg(conj(g_nd) g_bn) give the amplitude route's X
        params, size = SystemParams(n=10), 20_000
        x, _ = draw_realization(params, rng_for(11), size=size)
        rng = rng_for(11)
        _, _, a, b = unblocked_draw(params, rng, size)
        gb = a * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=a.shape))
        gd = b * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=b.shape))
        term = np.conj(gd) * gb
        phased = np.abs((term * np.exp(-1j * np.angle(term))).sum(axis=1))
        assert_allclose(phased * phased, x, rtol=1e-10, atol=0.0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            draw_realization(SystemParams(n=0), rng_for())
        with pytest.raises(ValueError):
            draw_realization(SystemParams(), rng_for(), size=0)

    @pytest.mark.parametrize("size", [2.5, True, np.float64(3.0), "4"])
    def test_size_must_be_a_positive_int(self, size):
        # 2.5 drew 2 rows and True drew 1
        with pytest.raises(ValueError, match=r"^size: "):
            draw_realization(SystemParams(), rng_for(), size=size)

    def test_a_refused_hop_names_its_fields(self):
        with pytest.raises(ValueError, match=r"^d_nd, tau_nd, phi_ref: distance: "):
            draw_realization(SystemParams(d_nd=1e-300), rng_for())


def unblocked_draw(params, rng, size):
    # both hops drawn in full, in stream order, then reduced per row:
    # X, Y and the hop amplitudes a = |g_bn|, b = |g_nd|
    om_bn = path_loss(params.d_bn, params.tau_bn, params.phi_ref)
    om_nd = path_loss(params.d_nd, params.tau_nd, params.phi_ref)
    a = sample_nakagami(rng, params.m_bn, om_bn, size=(size, params.n))
    b = sample_nakagami(rng, params.m_nd, om_nd, size=(size, params.n))
    d = (a * b).sum(axis=1)
    return d * d, (b * b).sum(axis=1), a, b


class TestBlockedDraw:
    SIZE = 2_000

    SHAPES = list(itertools.product((0.5, 0.7, 2.0), repeat=2))

    def assert_blocks_change_no_bit(self, monkeypatch, n, m_bn, m_nd):
        params = SystemParams(n=n, m_bn=m_bn, m_nd=m_nd)
        want = [v.view(np.uint64) for v in
                unblocked_draw(params, mcsim._batch_rng(5, 3), self.SIZE)[:2]]
        # one row, a prime row count that does not divide the batch, and
        # one block for the whole batch
        for rows in (1, 7, self.SIZE):
            monkeypatch.setattr(mcsim, "_BLOCK_AMPLITUDES", rows * params.n)
            got = draw_realization(params, mcsim._batch_rng(5, 3), size=self.SIZE)
            for g, w in zip(got, want):
                assert np.array_equal(g.view(np.uint64), w), rows

    @pytest.mark.parametrize("m_bn, m_nd", SHAPES)
    def test_block_size_changes_no_bit(self, monkeypatch, m_bn, m_nd):
        self.assert_blocks_change_no_bit(monkeypatch, 10, m_bn, m_nd)

    # the oracle sums rows with numpy; here n = 1, 3 and 5 take _row_sums'
    # branch under 8 columns, 24 its running sums, and 40 numpy's own sum
    @pytest.mark.parametrize("n", [1, 3, 5, 24, 40])
    @pytest.mark.parametrize("m_bn, m_nd", SHAPES)
    def test_block_size_changes_no_bit_at_any_row_length(self, monkeypatch, n, m_bn, m_nd):
        self.assert_blocks_change_no_bit(monkeypatch, n, m_bn, m_nd)

    def test_row_sums_are_numpys_bit_for_bit(self):
        # numpy's pairwise order: under 8 columns, up to 128, and split
        # halves past it; with exact zeros and subnormals among the terms
        rng = rng_for(17)
        for n in [*range(1, 301), 512, 1000]:
            for rows in (1, 3, 7, mcsim._BLOCK_AMPLITUDES // n):
                m = rng.standard_gamma(0.3, (rows, n))
                m[rng.random(m.shape) < 0.05] = 0.0
                tiny = rng.random(m.shape) < 0.05
                m[tiny] = 1e-310 * rng.random(np.count_nonzero(tiny))
                assert np.array_equal(mcsim._row_sums(m).view(np.uint64),
                                      m.sum(axis=1).view(np.uint64)), (n, rows)
        # an all -0.0 row sums to +0.0 on both routes
        for n in (1, 5, 8, 200):
            zeros = np.full((2, n), -0.0)
            assert np.array_equal(mcsim._row_sums(zeros).view(np.uint64),
                                  zeros.sum(axis=1).view(np.uint64)), n

    def test_a_shared_transmitter_hop_is_rooted_once_for_every_key(self, monkeypatch):
        # keys with one omega_bn read their |g_bn| rows from the rooted
        # head; some read their |g_nd| rows from the head, once it is
        # rooted up to their own |g_bn| rows
        params = [SystemParams(n=n, d_nd=d_nd) for n, d_nd in
                  ((3, 2.0), (6, 1.0), (8, 2.0), (12, 3.0), (12, 1.0))]
        keys = [(p.n, *hop_powers(p)) for p in params]
        assert len({om_bn for _, om_bn, _ in keys}) == 1
        want = [unblocked_draw(p, mcsim._batch_rng(5, 3), self.SIZE)[:2] for p in params]
        for rows in (1, 7, self.SIZE):
            monkeypatch.setattr(mcsim, "_BLOCK_AMPLITUDES", rows * 12)
            got = group_draws(keys, 2.0, 2.0, self.SIZE)
            for (x, y), (wx, wy), p in zip(got, want, params):
                assert np.array_equal(x.view(np.uint64), wx.view(np.uint64)), (rows, p.n)
                assert np.array_equal(y.view(np.uint64), wy.view(np.uint64)), (rows, p.n)

    def test_stream_order_is_pinned(self):
        # the Philox (seed, batch index) contract: these bytes may change
        # only with a documented seed-contract change
        x, y = draw_realization(SystemParams(n=10), mcsim._batch_rng(1, 0),
                                size=20_000)
        assert hashlib.sha256(x.tobytes() + y.tobytes()).hexdigest() == (
            "72f3d098f8c0200af4b82e67c6374985350c188dd677a799b203c754677c309d")

    def test_one_batch_holds_about_one_hop(self):
        # the transmitter hop is the only batch x n array held in full
        params = SystemParams(n=64)
        cfg = McConfig(trials=100_000, batch=100_000)
        # a first call pays one-off allocations that are not the batch's
        estimate_outage(params, McConfig(trials=1_000, batch=1_000), which="ub")
        tracemalloc.start()
        try:
            estimate_outage(params, cfg, which="ub")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * cfg.batch * params.n * 8

    def test_one_batch_on_two_workers_holds_about_one_hop(self, monkeypatch):
        # a helper drawing ahead holds pieces of its own, never the stream
        monkeypatch.setattr(mcsim, "_usable_cpus", lambda: 2)
        params = SystemParams(n=64)
        cfg = McConfig(trials=100_000, batch=100_000)
        estimate_outage(params, McConfig(trials=1_000, batch=1_000), which="ub", workers=2)
        tracemalloc.start()
        try:
            estimate_outage(params, cfg, which="ub", workers=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * cfg.batch * params.n * 8


def group_draws(keys, m_bn, m_nd, size):
    # X and Y of every (n, omega_bn, omega_nd) key of a stream group,
    # assembled from the blocks of batch 3 at seed 5, drawn once per
    # omega_bn as estimate_outages splits them; each row must come exactly once
    out = [(np.full(size, np.nan), np.full(size, np.nan)) for _ in keys]
    seen = [np.zeros(size, dtype=int) for _ in keys]
    for om_bn in {om_bn for _, om_bn, _ in keys}:
        ids = [i for i, key in enumerate(keys) if key[1] == om_bn]
        for j, rows, x, y in mcsim._stream_blocks(mcsim._batch_rng(5, 3), m_bn, m_nd, om_bn,
                                                  [(keys[i][0], keys[i][2]) for i in ids],
                                                  size):
            out[ids[j]][0][rows], out[ids[j]][1][rows] = x, y
            seen[ids[j]][rows] += 1
    assert all(np.all(s == 1) for s in seen)
    return out


class TestStreamGroups:
    """One draw of a batch's stream serves every fading key that reads it."""

    SIZE = 300

    # (n, d_bn, d_nd): at equal shapes n = 3 reads its receiver hop from the
    # head (2n < n_max), n = 6 ends there exactly (2n = n_max), n = 8
    # straddles it (n_max/2 < n < n_max); equal n at other hop powers read
    # the same variates.  Unequal shapes share a stream only at one n.
    EQUAL = ((3, 2.0, 2.0), (6, 2.0, 2.0), (8, 2.0, 2.0), (8, 3.0, 1.5),
             (12, 2.0, 2.0), (12, 1.0, 7.0))
    ONE_N = ((6, 1.0, 1.0), (6, 2.0, 2.0), (6, 4.0, 4.0))

    @pytest.mark.parametrize("m_bn, m_nd, hops",
                             [(0.7, 0.7, EQUAL), (2.0, 2.0, EQUAL), (1.5, 2.5, ONE_N)])
    def test_every_key_matches_its_own_draw(self, monkeypatch, m_bn, m_nd, hops):
        params = [SystemParams(n=n, m_bn=m_bn, m_nd=m_nd, d_bn=d_bn, d_nd=d_nd)
                  for n, d_bn, d_nd in hops]
        keys = [(p.n, *hop_powers(p)) for p in params]
        want = []
        for p in params:
            x, y = draw_realization(p, mcsim._batch_rng(5, 3), size=self.SIZE)
            want.append((x.view(np.uint64), y.view(np.uint64)))
        # one row of the largest key, a prime row count, the whole batch
        n_max = max(p.n for p in params)
        for rows in (1, 7, self.SIZE):
            monkeypatch.setattr(mcsim, "_BLOCK_AMPLITUDES", rows * n_max)
            got = group_draws(keys, m_bn, m_nd, self.SIZE)
            for (x, y), (wx, wy), p in zip(got, want, params):
                assert np.array_equal(x.view(np.uint64), wx), (rows, p.n)
                assert np.array_equal(y.view(np.uint64), wy), (rows, p.n)

    def test_a_job_draws_twice_the_batch_times_the_largest_n(self, monkeypatch):
        # each job leaves its stream where 2*k*n_max Gamma variates leave it
        made = []
        original = mcsim._batch_rng

        def recorded(seed, index):
            made.append((index, original(seed, index)))
            return made[-1][1]

        monkeypatch.setattr(mcsim, "_batch_rng", recorded)
        requests = on_links([(SystemParams(n=n, pb=1e-7), "exact") for n in (3, 8, 12)])
        cfg = McConfig(trials=2_500, seed=4, batch=1_000)
        estimate_outages(requests, cfg)
        assert [index for index, _ in made] == [0, 1, 2]
        for (index, rng), size in zip(made, (1_000, 1_000, 500)):
            fresh = original(cfg.seed, index)
            fresh.standard_gamma(2.0, size=2 * size * 12)
            assert_equal(rng.bit_generator.state, fresh.bit_generator.state)

    def test_a_group_holds_about_its_largest_hop(self):
        # the head of batch x n_max variates is the only batch-sized array
        requests = on_links([(SystemParams(n=n), "ub") for n in (16, 40, 64)])
        cfg = McConfig(trials=100_000, batch=100_000)
        estimate_outages(requests, McConfig(trials=1_000, batch=1_000))
        tracemalloc.start()
        try:
            estimate_outages(requests, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * cfg.batch * 64 * 8

    def test_only_the_drawer_and_sample_nakagami_call_the_gamma_fill(self):
        # a second caller would draw a batch's stream again, by its own route
        callers = []
        for path in sorted(Path(risnoise.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            modules = {alias.asname or alias.name for node in ast.walk(tree)
                       if isinstance(node, (ast.Import, ast.ImportFrom))
                       for alias in node.names}
            for top in tree.body:
                for node in ast.walk(top):
                    func = getattr(node, "func", None)
                    if isinstance(node, ast.Call) and isinstance(func, ast.Attribute) \
                            and func.attr in ("gamma", "standard_gamma") \
                            and getattr(func.value, "id", None) not in modules:
                        callers.append((path.name, getattr(top, "name", None)))
        assert sorted(set(callers)) == [("fading.py", "sample_nakagami"),
                                        ("mcsim.py", "_gamma_stream")]


class Finished:
    def __init__(self, value):
        self.value = value

    def result(self):
        return self.value


class InOrder:
    """A pool that runs each job when it is submitted: stitch counts repeat."""

    def __init__(self, shift=0, start_shift=0, extra=0):
        # shift moves where a helper starts, start_shift the start state it
        # reports, both in Philox blocks of 4 raws; extra lengthens its draw
        self.shift, self.start_shift, self.extra = shift, start_shift, extra
        self.jobs = 0

    def submit(self, draw_ahead, skip, size):
        self.jobs += 1
        start, drawn, end = draw_ahead(skip + self.shift, size + self.extra)
        if self.start_shift:
            start = dict(start, state=dict(start["state"], counter=start["state"]["counter"]
                                           + np.uint64(self.start_shift)))
        return Finished((start, drawn, end))


class Jittered(ThreadPoolExecutor):
    """A real thread pool that starts each task a seeded random 0-2 ms late,
    and records the name of each function submitted, in order."""

    def __init__(self, max_workers=None, seed=0):
        super().__init__(max_workers)
        self.delays = random.Random(seed)
        self.submitted = []

    def submit(self, fn, /, *args, **kwargs):
        delay = self.delays.uniform(0.0, 0.002)
        self.submitted.append(getattr(fn, "__name__", "?"))

        def late():
            time.sleep(delay)
            return fn(*args, **kwargs)

        return super().submit(late)


def stitched_stream(shape, count, helpers, pool=None, out=None, seed=3, index=7):
    """The pieces _gamma_stream yields, joined, the generator it drew on,
    and its (stitched, fallbacks) counts."""
    rng = mcsim._batch_rng(seed, index)
    stream = mcsim._gamma_stream(rng, shape, count, out, pool or InOrder(), helpers)
    pieces = []
    while True:
        try:
            pieces.append(next(stream))
        except StopIteration as stop:
            return pieces, rng, stop.value


def assert_sequential(pieces, rng, shape, count, seed=3, index=7):
    # bit for bit one standard_gamma fill, and the state it leaves
    fresh = mcsim._batch_rng(seed, index)
    want = fresh.standard_gamma(shape, count)
    got = np.concatenate(pieces)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert_equal(rng.bit_generator.state, fresh.bit_generator.state)


class TestGammaStream:
    """Helpers draw a batch's Gamma stream ahead; the stitch is exact."""

    PILOT, PIECE = mcsim._PILOT, mcsim._PIECE
    # one variate, the pilot's edge, the first piece's edge, several pieces
    COUNTS = (1, PILOT - 1, PILOT, PILOT + 1, PILOT + PIECE - 1, PILOT + PIECE,
              PILOT + PIECE + 1, PILOT + 3 * PIECE + 17)

    # 0.5 and 0.7 take numpy's shape < 1 branch, 1.0 its exponential one,
    # the others Marsaglia-Tsang
    @pytest.mark.parametrize("shape", [0.5, 0.7, 1.0, 2.0, 3.3])
    @pytest.mark.parametrize("helpers", [0, 1, 2])
    def test_pieces_are_the_sequential_fill(self, shape, helpers):
        for count in self.COUNTS:
            pieces, rng, (stitched, fallbacks) = stitched_stream(shape, count, helpers)
            assert_sequential(pieces, rng, shape, count)
            assert fallbacks == 0, count
            if helpers and count == self.COUNTS[-1]:
                assert stitched > 0
            # every piece has a buffer of its own
            assert not any(np.shares_memory(a, b)
                           for a, b in itertools.combinations(pieces, 2)), count

    @pytest.mark.parametrize("helpers", [0, 1, 2])
    def test_filling_an_array_in_place(self, helpers):
        count = self.PILOT + 3 * self.PIECE + 17
        out = np.full(count, np.nan)
        pieces, rng, (stitched, fallbacks) = stitched_stream(2.0, count, helpers, out=out)
        # out comes once, whole, not in slices
        assert len(pieces) == 1 and pieces[0] is out
        assert_sequential([out], rng, 2.0, count)
        assert (stitched > 0, fallbacks) == (helpers > 0, 0)

    def test_a_helper_started_far_off_falls_back_to_the_same_bits(self):
        # 10**6 raws past the guessed start no helper joins the exact chain
        count = self.PILOT + 3 * self.PIECE + 17
        pool = InOrder(shift=250_000)
        pieces, rng, (stitched, fallbacks) = stitched_stream(0.7, count, 2, pool)
        assert_sequential(pieces, rng, 0.7, count)
        assert stitched == 0 < fallbacks <= pool.jobs

    def test_equal_values_without_the_state_are_refused(self):
        # a helper whose draws match but whose reported start is one block
        # off: its prefix drawn again misses the exact state, so no stitch
        count = self.PILOT + 3 * self.PIECE + 17
        pool = InOrder(start_shift=1)
        pieces, rng, (stitched, fallbacks) = stitched_stream(2.0, count, 1, pool)
        assert_sequential(pieces, rng, 2.0, count)
        assert stitched == 0 < fallbacks <= pool.jobs

    @pytest.mark.parametrize("out", [False, True])
    def test_a_piece_past_the_end_is_drawn_again(self, out):
        # the first helper piece is the last whole one: drawn 20,000
        # variates longer than asked it would run past count, where the
        # generator state is not known
        count = self.PILOT + self.PIECE + self.PIECE // 2
        for extra in (0, 20_000):
            pool = InOrder(extra=extra)
            fill = np.full(count, np.nan) if out else None
            pieces, rng, counts = stitched_stream(2.0, count, 1, pool, fill)
            assert_sequential([fill] if out else pieces, rng, 2.0, count)
            assert counts == ((0, 1) if extra else (pool.jobs, 0))
            assert pool.jobs == 1 or not extra

    def test_the_match_survives_a_consumer_that_overwrites_out(self):
        # out is exactly the pilot, and the consumer writes over each part
        # of out it receives before the first helper piece is joined
        count = self.PILOT + 3 * self.PIECE + 17
        out = np.empty(self.PILOT)
        rng = mcsim._batch_rng(3, 7)
        stream = mcsim._gamma_stream(rng, 2.0, count, out, InOrder(), 1)
        pieces = []
        while True:
            try:
                piece = next(stream)
            except StopIteration as stop:
                stitched, fallbacks = stop.value
                break
            pieces.append(piece.copy())
            if np.shares_memory(piece, out):
                piece[...] = -1.0
        assert_sequential(pieces, rng, 2.0, count)
        assert stitched > 0 and fallbacks == 0

    def test_two_shapes_stream_as_two_runs(self):
        # a group's head at m_bn and its tail at m_nd, on one generator: no
        # piece holds both shapes
        rng = mcsim._batch_rng(3, 7)
        sizes = (self.PIECE + 5_000, 2 * self.PIECE + 3)
        runs = [list(mcsim._gamma_stream(rng, m, k, None, InOrder(), 2))
                for m, k in zip((1.5, 2.5), sizes)]
        fresh = mcsim._batch_rng(3, 7)
        for pieces, m, k in zip(runs, (1.5, 2.5), sizes):
            want = fresh.standard_gamma(m, k)
            assert np.array_equal(np.concatenate(pieces).view(np.uint64), want.view(np.uint64))
        assert_equal(rng.bit_generator.state, fresh.bit_generator.state)

    @pytest.mark.parametrize("m_bn, m_nd, n", [(1.5, 2.5, 6), (0.7, 0.7, 12)])
    def test_helped_blocks_match_the_unhelped_draw(self, m_bn, m_nd, n):
        params = SystemParams(n=n, m_bn=m_bn, m_nd=m_nd)
        size = 100_000
        want = draw_realization(params, mcsim._batch_rng(5, 3), size=size)
        x, y = np.full(size, np.nan), np.full(size, np.nan)
        rng, pool = mcsim._batch_rng(5, 3), InOrder()
        omega_bn, omega_nd = hop_powers(params)
        for _, rows, xb, yb in mcsim._stream_blocks(rng, m_bn, m_nd, omega_bn,
                                                    [(n, omega_nd)], size, pool, 2):
            x[rows], y[rows] = xb, yb
        assert pool.jobs > 0
        for got, w in zip((x, y), want):
            assert np.array_equal(got.view(np.uint64), w.view(np.uint64))
        fresh = mcsim._batch_rng(5, 3)
        fresh.standard_gamma(m_bn, size * n)
        fresh.standard_gamma(m_nd, size * n)
        assert_equal(rng.bit_generator.state, fresh.bit_generator.state)


class TestRealThreads:
    """Stitching and the estimates under real threads, whose helper pieces
    finish in an order the synchronous fake never shows."""

    COUNT = mcsim._PILOT + 3 * mcsim._PIECE + 17

    @pytest.mark.parametrize("shape", [0.5, 2.0, 3.3])
    @pytest.mark.parametrize("helpers", [1, 2])
    def test_pieces_are_the_sequential_fill(self, shape, helpers):
        for out in (None, np.full(self.COUNT // 2, np.nan)):
            with Jittered(helpers, seed=helpers) as pool:
                pieces, rng, (stitched, fallbacks) = stitched_stream(
                    shape, self.COUNT, helpers, pool, out)
            assert_sequential(pieces, rng, shape, self.COUNT)
            assert stitched > 0 and fallbacks == 0
            if out is not None:
                # out holds the stream's head, and the pieces fill it in place
                head = np.concatenate(pieces)[:out.size]
                assert np.array_equal(out.view(np.uint64), head.view(np.uint64))
                assert sum(p.size for p in pieces if np.shares_memory(p, out)) == out.size

    @pytest.mark.parametrize("m_bn, m_nd", [(2.0, 2.0), (1.5, 2.5)])
    def test_estimates_on_more_workers_are_the_one_worker_estimates(
            self, monkeypatch, m_bn, m_nd):
        # one batch and two: at equal shapes a one-job plan, whose helpers
        # draw ahead, and on 3 workers a job with a helper beside one
        # without; the pool runs the jobs of a many-job plan and the
        # helpers' draws, nothing else
        monkeypatch.setattr(mcsim, "_usable_cpus", lambda: 3)
        pools, plans = [], []
        plan = mcsim._helper_plan

        def jittered(max_workers):
            pools.append(Jittered(max_workers, seed=len(pools)))
            return pools[-1]

        def recorded(workers, jobs):
            plans.append(plan(workers, jobs))
            return plans[-1]

        requests = on_links([(SystemParams(n=n, m_bn=m_bn, m_nd=m_nd,
                                           pb=10.0 ** (dbw / 10.0), ris_noise=noisy), which)
                             for n in (8, 10) for dbw in (-67.0, -64.0)
                             for noisy in (True, False) for which in ("exact", "ub")])
        # runs of 0.96e6 to 2.4e6 variates: more helper pieces than one
        # plan step submits, so later draws follow the first blocks
        for cfg in (McConfig(trials=120_000, seed=13, batch=120_000),
                    McConfig(trials=120_000, seed=13, batch=60_000)):
            serial = estimate_outages(requests, cfg, workers=1)
            with monkeypatch.context() as patched:
                patched.setattr(mcsim, "ThreadPoolExecutor", jittered)
                patched.setattr(mcsim, "_helper_plan", recorded)
                for workers in (2, 3):
                    pools.clear()
                    plans.clear()
                    assert estimate_outages(requests, cfg, workers=workers) == serial
                    submitted = pools[0].submitted
                    draws = submitted.count("draw_ahead")
                    assert (draws > 0) == any(plans[0]), (cfg, workers)
                    jobs = len(plans[0])
                    assert len(submitted) - draws == (jobs if jobs > 1 else 0), (cfg, workers)

    def test_a_shared_head_job_counts_on_more_workers_as_on_one(self, monkeypatch):
        # one job at equal shapes and one omega_bn, whose helpers draw ahead
        # while the calling thread draws the head: the keys at n = 4 and 16
        # reduce receiver-hop rows from the head, which is rooted up to each
        # key's |g_bn| rows first
        monkeypatch.setattr(mcsim, "_usable_cpus", lambda: 3)
        pools = []

        def jittered(max_workers):
            pools.append(Jittered(max_workers, seed=len(pools)))
            return pools[-1]

        requests = on_links([(SystemParams(n=n, d_nd=d_nd, pb=10.0 ** (dbw / 10.0)), which)
                             for n, d_nd in ((4, 2.0), (16, 3.0), (24, 2.0))
                             for dbw in (-66.0, -60.0) for which in ("exact", "ub")])
        cfg = McConfig(trials=6_250, seed=11, batch=6_250)
        serial = estimate_outages(requests, cfg, workers=1)
        monkeypatch.setattr(mcsim, "ThreadPoolExecutor", jittered)
        for workers in (2, 3):
            pools.clear()
            assert estimate_outages(requests, cfg, workers=workers) == serial, workers
            assert "draw_ahead" in pools[0].submitted, workers


class TestHandOver:
    """Once the plan has no helper piece left it hands the rest of the run
    over to the calling thread: the helpers go idle, and no later plan
    submits another draw."""

    @pytest.mark.parametrize("shape", [0.5, 2.0])
    @pytest.mark.parametrize("helpers", [1, 2])
    def test_no_draw_is_submitted_after_idle(self, shape, helpers):
        # 18,000 to 19,000 variates past the pilot and one or two pieces: the
        # last piece planned leaves the rest to the calling thread, and a
        # plan made again once no piece was pending would submit one more
        for count, draws in ((296_541, 0), (559_749, 1)):
            pool = InOrder()
            rng = mcsim._batch_rng(3, 7)
            pieces = list(mcsim._gamma_stream(rng, shape, count, None, pool, helpers))
            assert_sequential(pieces, rng, shape, count)
            assert pool.jobs == draws, count


class TestHelperPlan:
    def test_helpers_are_capped_at_the_usable_cpus(self, monkeypatch):
        # RISNOISE_WORKERS=8 on 2 CPUs: one job and one helper, not seven
        monkeypatch.setattr(mcsim, "_usable_cpus", lambda: 2)
        assert mcsim._helper_plan(8, 1) == [1]
        assert mcsim._helper_plan(8, 2) == [0, 0]
        assert mcsim._helper_plan(1, 1) == [0]
        monkeypatch.setattr(mcsim, "_usable_cpus", lambda: 16)
        assert mcsim._helper_plan(8, 1) == [7]
        assert mcsim._helper_plan(8, 3) == [2, 2, 1]
        assert mcsim._helper_plan(8, 9) == [0] * 9
        assert mcsim._helper_plan(8, 0) == []

    def test_usable_cpus_follow_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(mcsim.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert mcsim._usable_cpus() == 2
        monkeypatch.delattr(mcsim.os, "sched_getaffinity")
        monkeypatch.setattr(mcsim.os, "cpu_count", lambda: 5)
        assert mcsim._usable_cpus() == 5

    def test_a_one_job_plan_hands_its_job_the_spare_workers(self, monkeypatch):
        # the plan reads the environment and the CPU cap; no job runs
        monkeypatch.setattr(mcsim, "_usable_cpus", lambda: 2)
        monkeypatch.setenv("RISNOISE_WORKERS", "8")
        given = []
        monkeypatch.setattr(mcsim, "_count_job", lambda *job: given.append(job[-1]) or [])
        estimate_outage(SystemParams(), McConfig(trials=1_000, batch=1_000))
        assert given == [1]


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
        for fn in (sinr_exact, sinr_bounds):
            with pytest.raises(ValueError):
                fn(np.array([1.0, math.nan]), np.ones(2), budget)
            with pytest.raises(ValueError):
                fn(1.0, math.nan, budget)


def where_bracket(x, y, budget):
    # the bracket as an earlier release wrote it: a where mask for lam*Y = 0
    snr = budget.psi * np.asarray(x, dtype=float)
    lam_y = budget.lam * np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(lam_y > 0.0, snr / np.where(lam_y > 0.0, lam_y, 1.0),
                         np.inf)
    return np.minimum(ratio, snr)


def kernel_counts(x, y, requests):
    # the counting kernel on given powers, one count per (budget, which)
    return mcsim._outage_counts(np.asarray(x, dtype=float),
                                np.asarray(y, dtype=float), requests)


def on_links(requests):
    # (params, which) requests as the (link, which) ones estimate_outages takes
    return [(build_link_model(params), which) for params, which in requests]


def public_count(x, y, budget, which):
    if which == "exact":
        sinr = sinr_exact(x, y, budget)
    else:
        lb, ub = sinr_bounds(x, y, budget)
        sinr = ub if which == "ub" else lb
    return int(np.count_nonzero(np.asarray(sinr) < budget.ups_th))


# extreme powers overflow and meet inf*0 and inf/inf on purpose
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestSinrEdges:
    NOISY = build_noise_budget(SystemParams())
    QUIET = build_noise_budget(SystemParams(ris_noise=False))
    # a surface noise override of -0.0 is a valid input and gives lam = -0.0
    SIGNED = build_noise_budget(SystemParams(sigma_r2=-0.0))
    SPECIAL = (0.0, -0.0, 5e-324, 1e-300, 0.25, 1.0, 3.0, 1e300, math.inf)

    def test_bracket_keeps_the_where_form_bits(self):
        # the one difference: X = Y = inf with lam > 0 gives ub = inf where
        # the where form gave inf/inf = nan; neither is below the threshold
        x, y = (np.array(v) for v in zip(*itertools.product(self.SPECIAL, repeat=2)))
        for budget in (self.NOISY, self.QUIET, self.SIGNED):
            want = where_bracket(x, y, budget)
            lb, ub = sinr_bounds(x, y, budget)
            corner = np.isinf(budget.psi * x) & np.isinf(budget.lam * y)
            assert np.array_equal(ub[~corner].view(np.uint64),
                                  want[~corner].view(np.uint64))
            assert np.all(np.isnan(want[corner])) and np.all(ub[corner] == np.inf)
            assert np.array_equal(lb.view(np.uint64), (0.5 * ub).view(np.uint64))

    def test_zero_signal_without_surface_noise(self):
        # X = 0 with lam = 0: the ratio is 0/0, the bracket is psi*X = 0
        assert sinr_bounds(0.0, 2.0, self.QUIET) == (0.0, 0.0)
        assert sinr_bounds(0.0, 0.0, self.QUIET) == (0.0, 0.0)
        assert sinr_exact(0.0, 2.0, self.QUIET) == 0.0

    def test_zero_surface_power_with_noise(self):
        # Y = 0 with lam > 0: no surface noise in this draw, ub = psi*X
        lb, ub = sinr_bounds(2.0, 0.0, self.NOISY)
        assert ub == self.NOISY.psi * 2.0 and lb == 0.5 * ub
        assert sinr_exact(2.0, 0.0, self.NOISY) == self.NOISY.psi * 2.0
        # a negative zero, from the powers or from lam, counts as zero
        assert math.copysign(1.0, self.SIGNED.lam) == -1.0
        assert sinr_bounds(2.0, -0.0, self.NOISY) == (lb, ub)
        assert sinr_bounds(2.0, 1.0, self.SIGNED) == (lb, ub)

    def test_infinite_corner(self):
        assert sinr_bounds(math.inf, math.inf, self.NOISY) == (math.inf, math.inf)
        assert math.isnan(sinr_exact(math.inf, math.inf, self.NOISY))

    def test_kernel_counts_the_edges_like_the_public_route(self):
        # every pair of special powers, and draws whose SINR lands exactly
        # on the threshold: strictly below counts, equal does not
        x, y = (np.array(v) for v in zip(*itertools.product(self.SPECIAL, repeat=2)))
        budgets = [self.NOISY, self.QUIET, self.SIGNED]
        at_ups = []
        for budget in (self.NOISY, self.QUIET):
            sinr = sinr_exact(x, y, budget)
            ub = sinr_bounds(x, y, budget)[1]
            for v in (sinr[(x == 1.0) & (y == 1.0)][0], ub[(x == 3.0) & (y == 0.25)][0],
                      0.5 * ub[(x == 1.0) & (y == 3.0)][0]):
                at_ups.append(replace(budget, ups_th=float(v)))
        requests = [(b, w) for b in budgets + at_ups for w in ("exact", "lb", "ub")]
        got = kernel_counts(x, y, requests)
        assert got == [public_count(x, y, b, w) for b, w in requests]
        # the draw exactly at the threshold is not an outage
        assert kernel_counts([1.0], [1.0], [(at_ups[0], "exact")]) == [0]


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

    def test_bitwise_equal_to_scipy_stats(self):
        # binomial_ci uses the scipy.special kernels directly so that a sweep
        # does not import scipy.stats; the distribution-object form stays the
        # reference, on both sides of the normal/exact switch and at both ends
        from scipy import stats

        def reference(successes, trials, level):
            p = successes / trials
            tail = 0.5 * (1.0 - level)
            if min(successes, trials - successes) >= mcsim._NORMAL_CI_MIN_COUNT:
                half = stats.norm.ppf(1.0 - tail) * math.sqrt(p * (1.0 - p) / trials)
                return max(p - half, 0.0), min(p + half, 1.0)
            lo = 0.0 if successes == 0 else float(
                stats.beta.ppf(tail, successes, trials - successes + 1))
            hi = 1.0 if successes == trials else float(
                stats.beta.ppf(1.0 - tail, successes + 1, trials - successes))
            return lo, hi

        for level in (0.9, 0.95, 0.99):
            for trials in (1_000, 250_000, 10_000_000):
                for k in [*range(41), *range(trials - 40, trials + 1)]:
                    got = [float(v).hex() for v in binomial_ci(k, trials, level)]
                    want = [float(v).hex() for v in reference(k, trials, level)]
                    assert got == want, (level, trials, k)


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

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_bad_worker_variable_is_named(self, monkeypatch, value):
        monkeypatch.setenv("RISNOISE_WORKERS", value)
        with pytest.raises(ConfigError, match="RISNOISE_WORKERS"):
            estimate_outage(SystemParams(), McConfig(trials=1_000))

    @pytest.mark.parametrize("value", [0, -2, 1.5, "2", True])
    def test_bad_worker_argument_is_named(self, value):
        with pytest.raises(ConfigError, match="workers"):
            estimate_outage(SystemParams(), McConfig(trials=1_000), workers=value)

    def test_empty_worker_variable_means_one(self, monkeypatch):
        params = SystemParams(n=5, pb=10.0 ** -6.8)
        cfg = McConfig(trials=20_000, seed=7, batch=5_000)
        monkeypatch.setenv("RISNOISE_WORKERS", "")
        assert estimate_outage(params, cfg) == estimate_outage(params, cfg, workers=1)

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

    def test_a_refused_link_is_named_before_any_draw(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("drew a batch of a refused link")

        monkeypatch.setattr(mcsim, "_stream_blocks", refuse)
        with pytest.raises(ValueError, match=r"^d_bn, tau_bn, phi_ref: distance: "):
            estimate_outage(SystemParams(tau_bn=-400.0), McConfig(trials=1_000))
        # hops so weak that the cascade moments underflow to 0
        with pytest.raises(ValueError, match=r"^d_bn, d_nd, tau_bn, tau_nd, phi_ref: "
                                             r"the cascade moments are refused"):
            estimate_throughput(SystemParams(d_bn=1e100, d_nd=1e100),
                                McConfig(trials=1_000))

    def test_a_params_request_is_refused_before_any_draw(self, monkeypatch):
        # the (SystemParams, selector) form failed with an AttributeError
        def refuse(*args, **kwargs):
            raise AssertionError("drew a batch of a refused request")

        monkeypatch.setattr(mcsim, "_stream_blocks", refuse)
        link = build_link_model(SystemParams())
        with pytest.raises(ValueError, match=r"^requests: \(LinkModel, selector\) "
                                             r"pairs required, got a SystemParams; "
                                             r"build_link_model\(params\)"):
            estimate_outages([(link, "ub"), (SystemParams(), "ub")],
                             McConfig(trials=1_000))

    def test_config_rejections(self):
        for kwargs in ({"trials": 999}, {"trials": 10_000, "batch": 0},
                       {"trials": 10_000, "seed": -1},
                       {"trials": 10_000, "seed": 2 ** 64},
                       {"trials": 10_000, "ci_level": 1.0}):
            with pytest.raises(ConfigError):
                McConfig(**kwargs)
        with pytest.raises(ValueError):
            estimate_outage(SystemParams(), McConfig(trials=10_000), which="both")

    def test_config_names_every_problem(self):
        with pytest.raises(ConfigError) as err:
            McConfig(trials=True, seed=False, batch=True, ci_level=1.0)
        msg = str(err.value)
        for field in ("trials", "seed", "batch", "ci_level"):
            assert f"{field}:" in msg
        assert "trials: finite number required, got True" in msg
        with pytest.raises(ConfigError, match=re.escape(
                "trials: integer >= 1000 required (for a confidence interval), "
                "got 999")):
            McConfig(trials=999)


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
        original = mcsim._stream_blocks

        def counted(*args, **kwargs):
            draws.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(mcsim, "_stream_blocks", counted)
        assert estimate_outages(on_links(requests), cfg, workers=2) == separate
        assert len(draws) == 4   # batches of 6000, 6000, 6000 and 2000

    def test_links_with_equal_hop_powers_share_each_draw(self, monkeypatch):
        # 4 / 2**2 and 1 / 1**tau: the raw hop fields differ, the hop
        # powers are both 1.0, bitwise
        scaled = SystemParams(d_bn=2.0, d_nd=2.0, tau_bn=2.0, tau_nd=2.0, phi_ref=4.0,
                              pb=5e-14)
        unit = SystemParams(d_bn=1.0, d_nd=1.0, pb=1e-13)
        links = [build_link_model(p) for p in (scaled, unit)]
        assert {(link.omega_bn, link.omega_nd) for link in links} == {(1.0, 1.0)}
        cfg = McConfig(trials=4_000, seed=8, batch=2_000)
        separate = [estimate_outage(p, cfg, which="ub") for p in (scaled, unit)]
        assert all(0.0 < est.p_hat < 1.0 for est in separate)
        draws = []
        original = mcsim._stream_blocks

        def counted(*args, **kwargs):
            draws.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(mcsim, "_stream_blocks", counted)
        assert estimate_outages([(link, "ub") for link in links], cfg) == separate
        assert len(draws) == 2   # one per batch, not one per batch and link

    # equal shapes at two transmitter-hop powers (d_bn 100 and 50 m), each
    # near its own outage knee, and n = 4 and 12 at each
    TWO_HOPS = [(SystemParams(n=n, d_bn=d_bn, pb=10.0 ** (dbw / 10.0)), which)
                for d_bn, dbw in ((100.0, -68.0), (50.0, -78.0)) for n in (4, 12)
                for which in ("exact", "ub")]
    TWO_BATCHES = McConfig(trials=3_000, seed=6, batch=2_000)

    def test_keys_at_two_transmitter_hop_powers_count_as_alone(self):
        separate = [estimate_outage(p, self.TWO_BATCHES, which=w) for p, w in self.TWO_HOPS]
        assert all(0.0 < est.p_hat < 1.0 for est in separate)
        assert estimate_outages(on_links(self.TWO_HOPS), self.TWO_BATCHES) == separate

    def test_each_draw_roots_one_transmitter_hop(self, monkeypatch):
        # a job holds one transmitter-hop power, so its head is rooted in place
        powers = []
        original = mcsim._stream_blocks

        def recorded(*args, **kwargs):
            bound = inspect.signature(original).bind(*args, **kwargs)
            powers.append(bound.arguments["omega_bn"])
            return original(*args, **kwargs)

        monkeypatch.setattr(mcsim, "_stream_blocks", recorded)
        links = on_links(self.TWO_HOPS)
        estimate_outages(links, self.TWO_BATCHES)
        hops = {link.omega_bn for link, _ in links}
        assert len(hops) == 2
        assert sorted(powers) == sorted(2 * list(hops))   # one draw per power and batch

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_a_one_job_plan_is_the_same_on_any_worker_count(self, monkeypatch, cpus):
        # one fading key in one batch: the workers past the first draw its
        # stream ahead, in one run at equal shapes and in a run per shape
        # otherwise, and the estimates do not move
        monkeypatch.setattr(mcsim, "_usable_cpus", lambda: cpus)
        counts = []
        original = mcsim._gamma_stream

        def recorded(*args):
            counts.append((yield from original(*args)))

        monkeypatch.setattr(mcsim, "_gamma_stream", recorded)
        for m_bn, m_nd, runs in ((2.0, 2.0, 1), (1.5, 2.5, 2)):
            requests = on_links([(SystemParams(n=10, m_bn=m_bn, m_nd=m_nd,
                                               pb=10.0 ** (dbw / 10.0), ris_noise=noisy),
                                  which) for dbw in (-67.0, -64.0)
                                 for noisy in (True, False) for which in ("exact", "ub")])
            cfg = McConfig(trials=40_000, seed=13, batch=40_000)
            counts.clear()
            serial = estimate_outages(requests, cfg, workers=1)
            assert counts == [(0, 0)] * runs
            for workers in (2, 3):
                counts.clear()
                assert estimate_outages(requests, cfg, workers=workers) == serial
                assert len(counts) == runs
                assert sum(stitched for stitched, _ in counts) > 0, workers
                assert sum(fallbacks for _, fallbacks in counts) == 0, workers

    @pytest.mark.parametrize("workers", [1, 2])
    def test_keys_listed_in_decreasing_n_count_as_in_increasing_n(self, monkeypatch,
                                                                  workers):
        # one job at equal shapes and one omega_bn: the keys at n = 3 and 6
        # read receiver-hop rows from the head (2n <= n_max = 12), so the
        # head must be rooted key by key in increasing n whatever the order
        # the requests come in
        monkeypatch.setattr(mcsim, "_usable_cpus", lambda: 2)
        requests = on_links([(SystemParams(n=n, d_nd=d_nd, pb=10.0 ** (dbw / 10.0)), which)
                             for n, d_nd in ((3, 1.0), (6, 2.0), (9, 1.5), (12, 3.0))
                             for dbw in (-68.0, -64.0) for which in ("exact", "ub")])
        cfg = McConfig(trials=6_000, seed=17, batch=6_000)
        rising = estimate_outages(requests, cfg, workers=workers)
        assert all(0.0 < est.p_hat < 1.0 for est in rising)
        assert estimate_outages(requests[::-1], cfg, workers=workers)[::-1] == rising

    def test_each_fading_key_draws_its_own_batches(self):
        requests = [(SystemParams(n=n, pb=1e-7), "exact") for n in (4, 6)]
        cfg = McConfig(trials=4_000, seed=5, batch=1_000)
        # any iterable of requests, though a generator has no len()
        together = estimate_outages(iter(on_links(requests)), cfg)
        assert together == [estimate_outage(p, cfg) for p, _ in requests]
        assert together[0] != together[1]


    def test_refuses_a_batch_past_its_cap_before_any_draw(self, monkeypatch):
        # 250,000 x 1e5 amplitudes is 200 GB; a short run counts its trials
        def refuse(*args, **kwargs):
            raise AssertionError("drew a batch past the cap")

        monkeypatch.setattr(mcsim, "_stream_blocks", refuse)
        small = (SystemParams(n=5), "ub")
        for n, cfg, rows in ((10 ** 5, McConfig(), 250_000),
                             (200_000, McConfig(trials=1_000), 1_000)):
            with pytest.raises(ConfigError, match=f"^n, batch: a batch of {rows} "
                                                  f"draws at n = {n} "):
                estimate_outages(on_links([small, (SystemParams(n=n), "ub")]), cfg)

    def test_refuses_a_job_plan_past_its_cap_before_any_draw(self, monkeypatch):
        # 1e24 trials are 4e18 batches: the job list died in a MemoryError
        def refuse(*args, **kwargs):
            raise AssertionError("drew a batch of a plan past the cap")

        monkeypatch.setattr(mcsim, "_stream_blocks", refuse)
        # n = 5 and 6 at equal shapes read one stream; unequal shapes, another
        with pytest.raises(ConfigError, match=r"^trials, batch: 2 stream group\(s\) x "
                                              r"4000000000000000000 batches make "):
            estimate_outages(on_links([(SystemParams(n=5), "ub"),
                                       (SystemParams(n=6), "lb"),
                                       (SystemParams(n=6, m_bn=1.5), "lb")]),
                             McConfig(trials=10 ** 24), workers=2)
        # a plan at the cap runs; one job more is refused
        monkeypatch.setattr(mcsim, "_count_job", lambda *job: [])
        monkeypatch.setattr(mcsim, "_MAX_JOBS", 4)
        assert estimate_outages(on_links([(SystemParams(), "ub")]),
                                McConfig(trials=4_000, batch=1_000))[0].p_hat == 0.0
        with pytest.raises(ConfigError, match=r"^trials, batch: 1 stream group\(s\) x 5 "
                                              r"batches make 5 jobs"):
            estimate_outages(on_links([(SystemParams(), "ub")]),
                             McConfig(trials=4_001, batch=1_000))


class TestPinnedCounts:
    # the smallest Nakagami shape, where draws come nearest to 0, over a
    # power axis with noiseless twins; batches of 17,000 trials span more
    # than one draw block.  Counts taken from the per-request full-batch
    # route, which counted each request in passes of its own.
    CFG = McConfig(trials=40_000, seed=2024, batch=17_000)
    DBW = (-71.0, -62.0, -53.0, -44.0)
    PINNED = {   # (exact, lb, ub) with surface noise, then without
        -71.0: ((39763, 39978, 38865), (28738, 36101, 28738)),
        -62.0: ((14959, 20073, 9611), (4759, 10346, 4759)),
        -53.0: ((826, 1404, 434), (225, 734, 225)),
        -44.0: ((14, 27, 5), (4, 16, 4)),
    }

    def requests(self):
        return on_links([(SystemParams(n=5, m_bn=0.5, m_nd=0.5, pb=10.0 ** (dbw / 10.0),
                                       ris_noise=not quiet), which)
                         for dbw in self.DBW for quiet in (False, True)
                         for which in ("exact", "lb", "ub")])

    def public_counts(self, requests, cfg):
        # the public SINR functions on the same draw_realization batches
        draws = [draw_realization(requests[0][0].params, mcsim._batch_rng(cfg.seed, i),
                                  size=size)
                 for i, size in enumerate(mcsim._batch_sizes(cfg.trials, cfg.batch))]
        return [sum(public_count(x, y, link.budget, which)
                    for x, y in draws) for link, which in requests]

    def test_counts_are_pinned(self):
        want = [c for dbw in self.DBW for row in self.PINNED[dbw] for c in row]
        got = estimate_outages(self.requests(), self.CFG)
        assert [e.p_hat for e in got] == [c / self.CFG.trials for c in want]

    def test_counts_match_the_public_sinr(self):
        requests = self.requests()
        got = estimate_outages(requests, self.CFG)
        want = self.public_counts(requests, self.CFG)
        assert [e.p_hat for e in got] == [c / self.CFG.trials for c in want]

    def test_count_block_changes_no_count(self, monkeypatch):
        requests = self.requests()
        cfg = McConfig(trials=2_000, seed=3, batch=2_000)
        want = [c / cfg.trials for c in self.public_counts(requests, cfg)]
        # counts follow the draw blocks: one trial, a prime that does not
        # divide the batch, the whole batch
        n = requests[0][0].params.n
        for rows in (1, 7, cfg.batch):
            monkeypatch.setattr(mcsim, "_BLOCK_AMPLITUDES", rows * n)
            got = estimate_outages(requests, cfg)
            assert [e.p_hat for e in got] == want, rows


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
