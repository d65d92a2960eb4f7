"""In-process tracing of nbpk's public entry points, applied from outside the package.

``instrument(tracer)`` rebinds each traced function in every ``nbpk`` module
that holds it (``nbpk.sampler.log_pi_n_lv`` as well as
``nbpk.levy_models.log_pi_n_lv``), wraps the integrand callables handed to the
quadrature and to the grid sampler so their evaluation points are counted, and
restores everything on exit.  Nothing under ``src/`` is edited.

Spans (name, start, end, parent, op id) are kept in flat arrays and written
out once at the end; self time is a span's duration minus the durations of
its direct children, which tile part of its interval because the load runs in
one thread.  A name that a later version of nbpk no longer has is skipped and
its metrics read zero.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import time
from array import array
from collections import Counter

import numpy as np

# Entry points per layer: (module, attribute, span name).
FUNCTIONS = [
    ("nbpk.levy_models", "log_psi_lv", "levy_models.kernel"),
    ("nbpk.levy_models", "log_pi_n_lv", "levy_models.kernel"),
    ("nbpk.numerics", "log_integrate_halfline_logv", "numerics.quad"),
    ("nbpk.posterior", "log_eppf", "posterior.eppf"),
    ("nbpk.posterior", "predictive_weights", "posterior.predictive"),
    ("nbpk.posterior", "normalized_predictive", "posterior.normalized"),
    ("nbpk.sampler", "run_chain", "sampler.chain"),
    ("nbpk.sampler", "urn_step", "sampler.step"),
    ("nbpk.coalescent", "backward_event_probabilities", "coalescent.backward"),
    ("nbpk.coalescent", "h_solver_exact", "coalescent.hsolve"),
]
GRID_CLASS = ("nbpk.numerics", "LogDensityGridSampler")
FAMILIES = ("stable", "gamma", "gengamma", "truncstable")
GL_POINTS_PER_PANEL = 22  # GL7 + GL15 nodes evaluated on every panel
GRID_NODE_CAP = 1 << 14   # LogDensityGridSampler's default max_nodes
ROOT = -1


class Tracer:
    """Span recorder: one span per traced call, nested through a stack."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else ROOT)
        self.op.append(self.op_id)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def arrays(self):
        return (np.frombuffer(self.name, np.int32), np.frombuffer(self.start),
                np.frombuffer(self.end), np.frombuffer(self.parent, np.int32))

    def save(self, path) -> None:
        """Write every span, with the name table, as one compressed npz file."""
        name, start, end, parent = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, start=start,
                            end=end, parent=parent, op=np.frombuffer(self.op, np.int32))


def self_times(start, end, parent):
    """Duration of each span minus the time covered by its direct children."""
    start, end, parent = np.asarray(start), np.asarray(end), np.asarray(parent)
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


def _family(model) -> str:
    kind = getattr(model, "kind", None)
    return getattr(kind, "value", "other")


def _count_points(tracer: Tracer, key: str, fn):
    """Wrap an integrand of log v so every point it is evaluated at is counted."""
    def counted(lv):
        tracer.counts[key] += int(np.size(lv))
        return fn(lv)
    return counted


def _span(tracer: Tracer, span_name: str, fn):
    nid = tracer.name_id(span_name)

    def on_error(exc):
        # Count each exception once, at the innermost span it leaves.
        if not getattr(exc, "_perfbench_counted", False):
            tracer.counts[f"{span_name}.errors"] += 1
            tracer.counts[f"{span_name}.errors.{type(exc).__name__}"] += 1
            try:
                exc._perfbench_counted = True
            except AttributeError:
                pass

    if span_name == "levy_models.kernel":
        def traced(model, *args, **kwargs):
            fam = _family(model)
            lv = kwargs.get("lv", args[-1] if args else None)
            tracer.counts[f"levy_models.{fam}.points"] += int(np.size(lv))
            idx = tracer.open(tracer.name_id(f"levy_models.{fam}"))
            try:
                return fn(model, *args, **kwargs)
            finally:
                tracer.close(idx)
    elif span_name == "numerics.quad":
        def traced(log_f_lv, *args, **kwargs):
            idx = tracer.open(nid)
            try:
                return fn(_count_points(tracer, "numerics.quad.points", log_f_lv),
                          *args, **kwargs)
            except Exception as exc:
                on_error(exc)
                raise
            finally:
                tracer.close(idx)
    else:
        def traced(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                on_error(exc)
                raise
            finally:
                tracer.close(idx)
    return functools.wraps(fn)(traced)


def _grid_patches(tracer: Tracer, cls):
    """Replacement __init__ and sample_lv for the grid sampler class."""
    build_id = tracer.name_id("numerics.grid.build")
    draw_id = tracer.name_id("numerics.grid.draw")
    init, sample_lv = cls.__init__, cls.sample_lv

    def traced_init(self, log_density_lv, *args, **kwargs):
        idx = tracer.open(build_id)
        try:
            init(self, _count_points(tracer, "numerics.grid.points", log_density_lv),
                 *args, **kwargs)
        finally:
            tracer.close(idx)
        cells = len(getattr(self, "_t", ())) - 1
        tracer.counts["numerics.grid.capped"] += int(cells >= GRID_NODE_CAP)

    def traced_sample_lv(self, rng):
        idx = tracer.open(draw_id)
        try:
            return sample_lv(self, rng)
        finally:
            tracer.close(idx)

    return {"__init__": functools.wraps(init)(traced_init),
            "sample_lv": functools.wraps(sample_lv)(traced_sample_lv)}


def _nbpk_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "nbpk" or name.startswith("nbpk."))]


def _rebind(modules, original, replacement, undo):
    """Point every module name bound to `original` at `replacement`."""
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, key, value))
                setattr(mod, key, replacement)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Trace nbpk's entry points for the duration of the block."""
    modules = _nbpk_modules()
    undo = []
    for mod_name, attr, span_name in FUNCTIONS:
        original = getattr(sys.modules.get(mod_name), attr, None)
        if original is not None:
            _rebind(modules, original, _span(tracer, span_name, original), undo)
    caches = sampler_caches()
    for cached in caches:
        _rebind(modules, cached, _cache_lookups(tracer, cached, caches), undo)
    cls = getattr(sys.modules.get(GRID_CLASS[0]), GRID_CLASS[1], None)
    if cls is not None:
        for key, value in _grid_patches(tracer, cls).items():
            undo.append((cls, key, getattr(cls, key)))
            setattr(cls, key, value)
    try:
        yield tracer
    finally:
        for obj, key, value in reversed(undo):
            setattr(obj, key, value)


def sampler_caches():
    """The lru caches that nbpk.sampler keeps its V samplers in."""
    mod = sys.modules.get("nbpk.sampler")
    return [f for f in vars(mod).values() if hasattr(f, "cache_info")] if mod else []


def _cache_lookups(tracer: Tracer, cached, caches):
    """Count each call of an lru-cached sampler factory as a hit or a miss.

    Counted per call, so caches cleared between ops keep their history.
    """
    def lookup(*args, **kwargs):
        misses = cached.cache_info().misses
        out = cached(*args, **kwargs)
        hit = cached.cache_info().misses == misses
        tracer.counts["sampler.vcache.lookups"] += 1
        tracer.counts["sampler.vcache.hits"] += hit
        size = sum(f.cache_info().currsize for f in caches)
        tracer.counts["sampler.vcache.size"] = max(tracer.counts["sampler.vcache.size"], size)
        return out
    lookup.cache_info, lookup.cache_clear = cached.cache_info, cached.cache_clear
    return functools.wraps(cached)(lookup)


def _ratio(num, den):
    return float(num) / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead_ratio):
    """Per-layer metrics (name -> (value, unit)) from the recorded spans and counters."""
    name, start, end, parent = tracer.arrays()
    self_s = self_times(start, end, parent) if len(name) else np.zeros(0)
    dur = end - start
    ids = {n: i for i, n in enumerate(tracer.names)}
    c = tracer.counts

    def mask(span_name):
        return name == ids.get(span_name, -2)

    def calls(span_name):
        return int(mask(span_name).sum())

    def self_sum(span_name):
        return float(self_s[mask(span_name)].sum())

    def children_under(child, ancestor):
        """Spans named ``child`` that have a span named ``ancestor`` above them."""
        cid, aid = ids.get(child, -2), ids.get(ancestor, -2)
        total = 0
        for i in np.flatnonzero(name == cid):
            p = parent[i]
            while p >= 0 and name[p] != aid:
                p = parent[p]
            total += int(p >= 0)
        return total

    out = {}
    points = sum(c[k] for k in c if k.startswith("levy_models.") and k.endswith(".points"))
    kernel_ids = [i for n, i in ids.items() if n.startswith("levy_models.")]
    kernel_mask = np.isin(name, kernel_ids)
    kernel_self = float(self_s[kernel_mask].sum())
    out["levy_models.calls"] = (int(kernel_mask.sum()), "count")
    out["levy_models.points"] = (points, "count")
    out["levy_models.self_s"] = (kernel_self, "s")
    out["levy_models.ns_per_point"] = (1e9 * _ratio(kernel_self, points), "ns")
    for f in FAMILIES:
        out[f"levy_models.{f}.points"] = (c[f"levy_models.{f}.points"], "count")
        out[f"levy_models.{f}.self_s"] = (self_sum(f"levy_models.{f}"), "s")

    quad_calls = calls("numerics.quad")
    out["numerics.quad.calls"] = (quad_calls, "count")
    out["numerics.quad.points"] = (c["numerics.quad.points"], "count")
    out["numerics.quad.panels_per_call"] = (
        _ratio(c["numerics.quad.points"] / GL_POINTS_PER_PANEL, quad_calls), "count")
    out["numerics.quad.self_s"] = (self_sum("numerics.quad"), "s")
    out["numerics.quad.failures"] = (c["numerics.quad.errors"], "count")

    builds = calls("numerics.grid.build")
    draws = calls("numerics.grid.draw")
    out["numerics.grid.builds"] = (builds, "count")
    out["numerics.grid.points_per_build"] = (_ratio(c["numerics.grid.points"], builds), "count")
    out["numerics.grid.build_self_s"] = (self_sum("numerics.grid.build"), "s")
    out["numerics.grid.capped"] = (c["numerics.grid.capped"], "count")
    out["numerics.grid.capped_ratio"] = (_ratio(c["numerics.grid.capped"], builds), "ratio")
    out["numerics.grid.draws"] = (draws, "count")
    out["numerics.grid.draw_us"] = (
        1e6 * _ratio(float(dur[mask("numerics.grid.draw")].sum()), draws), "us")

    pred_calls = calls("posterior.predictive")
    out["posterior.eppf.calls"] = (calls("posterior.eppf"), "count")
    out["posterior.eppf.self_s"] = (self_sum("posterior.eppf"), "s")
    out["posterior.predictive.calls"] = (pred_calls, "count")
    # normalized_predictive adds only a normalisation around predictive_weights.
    out["posterior.predictive.self_s"] = (
        self_sum("posterior.predictive") + self_sum("posterior.normalized"), "s")
    out["posterior.integrals_per_predictive"] = (
        _ratio(children_under("numerics.quad", "posterior.predictive"), pred_calls), "count")
    out["posterior.guard_failures"] = (
        c["posterior.predictive.errors.RuntimeError"]
        + c["posterior.normalized.errors.RuntimeError"], "count")

    lookups = c["sampler.vcache.lookups"]
    out["sampler.chains"] = (calls("sampler.chain"), "count")
    out["sampler.steps"] = (calls("sampler.step"), "count")
    out["sampler.step.self_s"] = (self_sum("sampler.step"), "s")
    out["sampler.chain.self_s"] = (self_sum("sampler.chain"), "s")
    out["sampler.vcache.lookups"] = (lookups, "count")
    out["sampler.vcache.hit_ratio"] = (_ratio(c["sampler.vcache.hits"], lookups), "ratio")
    out["sampler.vcache.size"] = (c["sampler.vcache.size"], "count")

    back_calls = calls("coalescent.backward")
    out["coalescent.backward.calls"] = (back_calls, "count")
    out["coalescent.backward.self_s"] = (self_sum("coalescent.backward"), "s")
    out["coalescent.predictive_per_backward"] = (
        _ratio(children_under("posterior.predictive", "coalescent.backward"), back_calls),
        "count")
    out["coalescent.hsolve.calls"] = (calls("coalescent.hsolve"), "count")
    out["coalescent.hsolve.self_s"] = (self_sum("coalescent.hsolve"), "s")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
