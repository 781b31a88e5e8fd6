"""Outside-in span tracer for the traced benchmark run.

Each traced function is replaced by a timing wrapper in the module that
looks the name up at call time.  The package imports these names with
``from ... import``, so the wrapper goes where the caller finds the name,
not into the defining module.  Spans stay in memory; one stack per thread
links each span to its parent, because the 2-worker sweep runs points on
pool threads.  A span's self time is its duration minus its children's.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import math
import statistics
import threading
import time
from pathlib import Path

import mpmath

# (module where the name is looked up, name, layer)
TRACED = (
    ("risnoise.cli", "load_grid", "cli"),
    ("risnoise.cli", "_point_rows", "cli"),
    ("risnoise.cli", "outage_report", "outage"),
    ("risnoise.cli", "estimate_outage", "mcsim"),
    ("risnoise.outage", "xi1_closed", "outage"),
    ("risnoise.outage", "xi2", "outage"),
    ("risnoise.outage", "reg_lower_gamma", "specfun"),
    ("risnoise.outage", "meijer_g_2_1_1_2_mpf", "specfun"),
    ("risnoise.specfun", "kummer_1f1_mpf", "specfun"),
    ("risnoise.mcsim", "draw_realization", "mcsim"),
    ("risnoise.mcsim", "sample_nakagami", "fading"),
    ("risnoise.mcsim", "sinr_exact", "mcsim"),
    ("risnoise.mcsim", "sinr_bounds", "mcsim"),
    ("risnoise.mcsim", "binomial_ci", "mcsim"),
)

LAYERS = ("cli", "outage", "specfun", "fading", "mcsim")


class Span:
    __slots__ = ("id", "name", "layer", "parent", "thread", "start", "end",
                 "child_s", "attrs")

    def __init__(self, sid, name, layer, parent, thread, attrs):
        self.id, self.name, self.layer = sid, name, layer
        self.parent, self.thread, self.attrs = parent, thread, attrs
        self.start = time.perf_counter()
        self.end = self.start
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _xi1_attrs(link, *args, **kwargs):
    return {"delta_int": link.approx.delta_int}


def _meijer_attrs(*args, **kwargs):
    return {"dps": mpmath.mp.dps}


def _draw_attrs(params, rng, size=None, *args, **kwargs):
    # everything the drawn numbers depend on: the fading part of the
    # parameters, the Philox key/counter position and the batch size
    state = rng.bit_generator.state
    inner = state["state"]
    key = (params.n, params.m_bn, params.m_nd, params.d_bn, params.d_nd,
           params.tau_bn, params.tau_nd, params.phi_ref,
           state["bit_generator"], tuple(int(v) for v in inner["key"]),
           tuple(int(v) for v in inner["counter"]), state.get("buffer_pos"),
           state.get("has_uint32"), size)
    return {"key": key, "trials": 1 if size is None else int(size)}


def _nakagami_attrs(rng, m, omega, size=None):
    return {"amplitudes": math.prod(size) if isinstance(size, tuple)
            else int(size or 1)}


_ATTRS = {
    "xi1_closed": _xi1_attrs,
    "meijer_g_2_1_1_2_mpf": _meijer_attrs,
    "draw_realization": _draw_attrs,
    "sample_nakagami": _nakagami_attrs,
}


class Tracer:
    """Records spans for the functions in TRACED while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """A span the benchmark opens itself, around a call it makes."""
        span = self._open(name, layer, {})
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name, layer, attrs) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(next(self._ids), name, layer,
                    parent.id if parent is not None else None,
                    threading.get_ident(), attrs)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child_s += span.duration
        self.spans.append(span)

    def _wrap(self, fn, name, layer):
        attrs_of = _ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = attrs_of(*args, **kwargs) if attrs_of else {}
            span = self._open(name, layer, attrs)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return traced

    def install(self) -> None:
        for module_name, name, layer in TRACED:
            module = importlib.import_module(module_name)
            original = getattr(module, name)
            setattr(module, name, self._wrap(original, name, layer))
            self._patched.append((module, name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def write(self, path: Path, append: bool = False) -> None:
        """Dump every span as JSON lines."""
        with open(path, "a" if append else "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "layer": s.layer,
                    "parent": s.parent, "thread": s.thread,
                    "start": s.start, "end": s.end, "self_s": s.self_s,
                    "attrs": {k: v for k, v in s.attrs.items() if k != "key"},
                }) + "\n")


def layer_metrics(spans: list[Span], root: Span, workers: int) -> dict:
    """Per-layer metrics of one traced sweep whose outermost span is root."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.duration for s in named(name))

    def outermost_total(name):
        # a recursive call (Kummer transform for z < 0) is not counted twice
        ids = {s.id for s in named(name)}
        return sum(s.duration for s in named(name) if s.parent not in ids)

    wall = root.duration
    m = {}
    m["cli.load_grid_s"] = total("load_grid")
    m["cli.run_sweep_self_s"] = wall - (total("outage_report")
                                        + total("estimate_outage")) / workers
    m["cli.worker_busy_share"] = total("_point_rows") / (workers * wall)

    m["outage.outage_report.calls"] = len(named("outage_report"))
    m["outage.outage_report.s"] = total("outage_report")
    xi1 = named("xi1_closed")
    meijer_per_xi1: dict[int, int] = {}
    for s in named("meijer_g_2_1_1_2_mpf"):
        meijer_per_xi1[s.parent] = meijer_per_xi1.get(s.parent, 0) + 1
    slow = [s for s in xi1 if meijer_per_xi1.get(s.id, 0) > 0]
    xi1_ms = [1e3 * s.duration for s in xi1]
    m["outage.xi1_closed.calls"] = len(xi1)
    m["outage.xi1_closed.s"] = total("xi1_closed")
    m["outage.xi1_closed.p50_ms"] = statistics.median(xi1_ms) if xi1_ms else 0.0
    m["outage.xi1_closed.max_ms"] = max(xi1_ms, default=0.0)
    m["outage.xi1_closed.fastpath_share"] = \
        (len(xi1) - len(slow)) / len(xi1) if xi1 else 0.0
    terms = sum(s.attrs["delta_int"] for s in slow)
    m["outage.xi1_closed.passes_per_call"] = \
        len(named("meijer_g_2_1_1_2_mpf")) / terms if terms else 0.0
    m["outage.xi2.calls"] = len(named("xi2"))
    m["outage.xi2.s"] = total("xi2")

    meijer = named("meijer_g_2_1_1_2_mpf")
    m["specfun.meijer_g_2_1_1_2_mpf.calls"] = len(meijer)
    m["specfun.meijer_g_2_1_1_2_mpf.self_s"] = sum(s.self_s for s in meijer)
    m["specfun.kummer_1f1_mpf.calls"] = len(named("kummer_1f1_mpf"))
    m["specfun.kummer_1f1_mpf.s"] = outermost_total("kummer_1f1_mpf")
    m["specfun.mp_dps_mean"] = \
        statistics.fmean(s.attrs["dps"] for s in meijer) if meijer else 0.0
    m["specfun.reg_lower_gamma.calls"] = len(named("reg_lower_gamma"))

    nak = named("sample_nakagami")
    nak_s = total("sample_nakagami")
    m["fading.sample_nakagami.calls"] = len(nak)
    m["fading.sample_nakagami.s"] = nak_s
    m["fading.amplitudes_per_s"] = \
        sum(s.attrs["amplitudes"] for s in nak) / nak_s if nak_s else 0.0

    draws = named("draw_realization")
    m["mcsim.estimate_outage.calls"] = len(named("estimate_outage"))
    m["mcsim.estimate_outage.s"] = total("estimate_outage")
    m["mcsim.draw_realization.self_s"] = sum(s.self_s for s in draws)
    m["mcsim.trials_drawn"] = sum(s.attrs["trials"] for s in draws)
    m["mcsim.sinr_s"] = total("sinr_exact") + total("sinr_bounds")
    m["mcsim.binomial_ci.s"] = total("binomial_ci")
    distinct = len({s.attrs["key"] for s in draws})
    m["mcsim.redraw_share"] = (len(draws) - distinct) / len(draws) if draws else 0.0

    # self time per layer; with the root span, they add up to the sweep
    for layer in LAYERS[1:]:
        m[f"{layer}.self_s"] = sum(s.self_s for s in spans if s.layer == layer)
    return m


def accounted_share(metrics: dict, wall: float, workers: int) -> float:
    """(cli self + other layers' self / workers) over the traced sweep time."""
    inner = sum(metrics[f"{layer}.self_s"] for layer in LAYERS[1:])
    return (metrics["cli.run_sweep_self_s"] + inner / workers) / wall
