"""Span tracing of qnlab's layers, installed from outside the package.

``Tracer.install`` replaces the public functions of every qnlab module, the
gauge methods of the four space kinds, ``RandomSource.generator`` and the
solver entry points the modules import (``linprog`` in ``spaces`` and
``sidon``, ``minimize`` in ``interpolation``) with timing wrappers.  Every
module binding of a wrapped function is replaced, so a call through
``factorization.mvee_of_ball`` is traced like one through
``geometry.mvee_of_ball``.

Two kinds of record are kept in memory:

* spans (name, start, end, parent span, op id) for the public functions
  called a moderate number of times;
* per-parent aggregates (calls, total and self seconds) for the hot leaf
  calls (scalar gauges, validators, LP solves, optimizer runs, ...), which
  would otherwise produce millions of spans.

A layer's self time is its time minus the time of its direct children.
Records are taken only while an op is open (``begin_op``/``end_op``), so
input generation and output checks made by the benchmark are not counted.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

import numpy as np

LAYERS = (
    "numkernel",
    "spaces",
    "geometry",
    "interpolation",
    "randsigns",
    "factorization",
    "sidon",
    "harness",
)
KINDS = ("weightedlp", "polytope", "rconvexatoms", "schatten")
SPACE_METHODS = ("gauge", "gauge_many", "envelope_gauge")

# Public functions aggregated per parent span instead of stored as spans.
LEAVES = {
    "numkernel.as_vector",
    "numkernel.as_matrix",
    "numkernel.frozen_array",
    "numkernel.svd",
    "numkernel.singular_values",
    "numkernel.spd_power",
    "randsigns.rademacher_average",
    "spaces.horn_check",
}

CONSTANTS = ("type2_lower", "cotype2_lower", "cotype_q_lower", "kconvexity_lower")


class Tracer:
    """In-memory spans and leaf aggregates for one traced pass."""

    def __init__(self):
        self.active = False
        self.op = None
        self.spans = []  # [name, start, end, parent index, op id]
        self.self_s = defaultdict(float)  # span name -> summed self seconds
        self.leaves = {}  # (name, parent index) -> [calls, total_s, self_s]
        self.counters = defaultdict(float)
        self._frames = []  # open calls: [seconds spent in their children]
        self._span_stack = [None]  # innermost open span index
        self._restore = []

    # ------------------------------------------------------------------ ops

    def begin_op(self, op_id, name):
        self.op = op_id
        self.active = True
        return self._open(f"op.{name}")

    def end_op(self, token):
        self._close(token)
        self.active = False
        self.op = None

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._span_stack[-1], self.op])
        self._frames.append([0.0])
        self._span_stack.append(idx)
        return idx

    def _close(self, idx):
        end = time.perf_counter()
        span = self.spans[idx]
        span[2] = end
        child = self._frames.pop()[0]
        self._span_stack.pop()
        dur = end - span[1]
        self.self_s[span[0]] += dur - child
        if self._frames:
            self._frames[-1][0] += dur

    # -------------------------------------------------------------- wrappers

    def _span_wrapper(self, fn, name, on_result):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_result is not None:
                on_result(tracer, args, out)
            return out

        return wrapper

    def _leaf_wrapper(self, fn, name, on_result):
        tracer = self
        frames = self._frames
        spans = self._span_stack
        leaves = self.leaves
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            frames.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                frames.pop()
                frames[-1][0] += dur
                key = (name, spans[-1])
                rec = leaves.get(key)
                if rec is None:
                    rec = leaves[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
            if on_result is not None:
                on_result(tracer, args, out)
            return out

        return wrapper

    def _wrap(self, fn, name, on_result=None):
        if name in LEAVES or name.startswith("spaces.gauge") or name in _FOREIGN_LEAVES:
            return self._leaf_wrapper(fn, name, on_result)
        return self._span_wrapper(fn, name, on_result)

    # ---------------------------------------------------------- installation

    def install(self, qnlab_modules):
        """Wrap every traced entry point; ``uninstall`` undoes it."""
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in qnlab_modules}
        originals = {}
        for layer in LAYERS:
            mod = mods[layer]
            for attr, fn in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    originals[id(fn)] = (fn, self._wrap(fn, name, _HOOKS.get(name)))
        # replace the binding in every module that imported the function
        for mod in qnlab_modules:
            for attr, fn in list(vars(mod).items()):
                if id(fn) in originals and originals[id(fn)][0] is fn:
                    self._set(mod, attr, originals[id(fn)][1])
        for layer, attr, name in _FOREIGN:
            mod = mods[layer]
            self._set(mod, attr, self._wrap(getattr(mod, attr), name, _HOOKS.get(name)))
        spaces = mods["spaces"]
        for cls_name in ("WeightedLp", "Polytope", "RConvexAtoms", "Schatten"):
            cls = getattr(spaces, cls_name)
            for meth in SPACE_METHODS:
                name = "spaces.envelope_gauge" if meth == "envelope_gauge" else f"spaces.{meth}.{cls_name.lower()}"
                self._set(cls, meth, self._wrap(getattr(cls, meth), name, _HOOKS.get(f"spaces.{meth}")))
        rs = mods["numkernel"].RandomSource
        self._set(rs, "generator", self._wrap(rs.generator, "numkernel.generator"))

    def _set(self, owner, attr, value):
        had = attr in vars(owner)
        self._restore.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, old, had in reversed(self._restore):
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._restore.clear()

    # --------------------------------------------------------------- results

    def totals(self):
        """name -> [calls, self seconds] over spans and leaf aggregates."""
        out = defaultdict(lambda: [0, 0.0])
        for span in self.spans:
            out[span[0]][0] += 1
        for name, s in self.self_s.items():
            out[name][1] += s
        for (name, _), (calls, _, self_s) in self.leaves.items():
            out[name][0] += calls
            out[name][1] += self_s
        return out

    def dump(self, path, extra):
        spans = [
            {"name": n, "start": s, "end": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]
        leaves = [
            {"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
            for (n, p), (c, t, s) in self.leaves.items()
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "spans": spans, "leaves": leaves}, fh)


def _in_volume(tracer):
    """True when the innermost open span is a ``geometry.volume`` call."""
    idx = tracer._span_stack[-1]
    return idx is not None and tracer.spans[idx][0] == "geometry.volume"


def _gauge_many_hook(tracer, args, out):
    tracer.counters[f"spaces.gauge_many.{type(args[0]).__name__.lower()}.points"] += len(out)
    if _in_volume(tracer):
        # inside volume() only the Monte-Carlo path evaluates gauges in bulk
        tracer.counters["geometry.mc.samples"] += len(out)
        tracer.counters["geometry.mc.hits"] += int(np.count_nonzero(out <= 1.0))


def _count(key, pred):
    def hook(tracer, args, out):
        tracer.counters[key] += bool(pred(args, out))

    return hook


def _add(key, amount):
    def hook(tracer, args, out):
        tracer.counters[key] += amount(args, out)

    return hook


_HOOKS = {
    "spaces.gauge_many": _gauge_many_hook,
    "interpolation.theta_norm": _count(
        "interpolation.theta_norm.searched", lambda a, out: not a[0].is_quadratic
    ),
    "interpolation.k_functional": _count("interpolation.k_functional.exact", lambda a, out: out.exact),
    "interpolation.minimize": _add("interpolation.minimize.nfev", lambda a, out: out.nfev),
    "randsigns.rademacher_average": _add("randsigns.rademacher_average.points", lambda a, out: out.samples),
    "factorization.op_norm": _count("factorization.op_norm.exact", lambda a, out: out.kind == "exact"),
    "factorization.gamma2_upper": _count("factorization.gamma2_upper.certified", lambda a, out: out.certified),
    "geometry.volume": _count("geometry.volume.exact", lambda a, out: out.method != "monte-carlo"),
}

# Solver entry points the modules import from scipy, per importing module.
_FOREIGN = (
    ("spaces", "linprog", "spaces.lp"),
    ("sidon", "linprog", "sidon.lp"),
    ("interpolation", "minimize", "interpolation.minimize"),
)
_FOREIGN_LEAVES = {name for _, _, name in _FOREIGN} | {"numkernel.generator"}


def _frac(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """The per-layer metrics, by name, from one traced pass."""
    tot = tracer.totals()
    cnt = tracer.counters

    def calls(name):
        return tot[name][0] if name in tot else 0

    # self time as a share of the traced ops' wall time: a layer never called
    # reads 0, and a uniform slowdown of the machine cancels out
    busy = sum(e - b for n, b, e, _, _ in tracer.spans if n.startswith("op."))

    def share(*names):
        return _frac(sum(tot[n][1] for n in names if n in tot), busy)

    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    put("numkernel.as_vector.calls", calls("numkernel.as_vector"), "count")
    put("numkernel.as_matrix.calls", calls("numkernel.as_matrix"), "count")
    put("numkernel.svd.calls", calls("numkernel.svd"), "count")
    put("numkernel.generator.calls", calls("numkernel.generator"), "count")
    for k in KINDS:
        put(f"spaces.gauge.{k}.calls", calls(f"spaces.gauge.{k}"), "count")
        put(f"spaces.gauge.{k}.self_share", share(f"spaces.gauge.{k}"), "ratio")
    for k in KINDS:
        name = f"spaces.gauge_many.{k}"
        put(f"{name}.calls", calls(name), "count")
        put(f"{name}.points", int(cnt[f"{name}.points"]), "count")
        put(f"{name}.self_share", share(name), "ratio")
    put("spaces.lp.solves", calls("spaces.lp"), "count")
    put("spaces.lp.self_share", share("spaces.lp"), "ratio")
    put("spaces.envelope_gauge.calls", calls("spaces.envelope_gauge"), "count")
    put("spaces.envelope_gauge.self_share", share("spaces.envelope_gauge"), "ratio")
    for fn in ("horn_check", "quotient"):
        put(f"spaces.{fn}.calls", calls(f"spaces.{fn}"), "count")
        put(f"spaces.{fn}.self_share", share(f"spaces.{fn}"), "ratio")

    n = calls("interpolation.theta_norm")
    put("interpolation.theta_norm.calls", n, "count")
    put("interpolation.theta_norm.self_share", share("interpolation.theta_norm"), "ratio")
    put("interpolation.theta_norm.searched_frac", _frac(cnt["interpolation.theta_norm.searched"], n), "ratio")
    n = calls("interpolation.k_functional")
    put("interpolation.k_functional.calls", n, "count")
    put("interpolation.k_functional.self_share", share("interpolation.k_functional"), "ratio")
    put("interpolation.k_functional.exact_frac", _frac(cnt["interpolation.k_functional.exact"], n), "ratio")
    put("interpolation.minimize.calls", calls("interpolation.minimize"), "count")
    put("interpolation.minimize.nfev", int(cnt["interpolation.minimize.nfev"]), "count")
    put("interpolation.minimize.self_share", share("interpolation.minimize"), "ratio")

    put("randsigns.rademacher_average.calls", calls("randsigns.rademacher_average"), "count")
    put("randsigns.rademacher_average.points", int(cnt["randsigns.rademacher_average.points"]), "count")
    put("randsigns.rademacher_average.self_share", share("randsigns.rademacher_average"), "ratio")
    consts = [f"randsigns.{c}" for c in CONSTANTS]
    put("randsigns.constants.calls", sum(calls(c) for c in consts), "count")
    put("randsigns.constants.self_share", share(*consts), "ratio")

    n = calls("factorization.op_norm")
    put("factorization.op_norm.calls", n, "count")
    put("factorization.op_norm.exact_frac", _frac(cnt["factorization.op_norm.exact"], n), "ratio")
    put("factorization.op_norm.self_share", share("factorization.op_norm"), "ratio")
    n = calls("factorization.gamma2_upper")
    put("factorization.gamma2_upper.calls", n, "count")
    put("factorization.gamma2_upper.certified_frac", _frac(cnt["factorization.gamma2_upper.certified"], n), "ratio")
    put("factorization.gamma2_upper.self_share", share("factorization.gamma2_upper"), "ratio")
    put("factorization.envelope_distance.calls", calls("factorization.envelope_distance"), "count")
    put("factorization.envelope_distance.self_share", share("factorization.envelope_distance"), "ratio")

    put("sidon.sidon_constant.calls", calls("sidon.sidon_constant"), "count")
    put("sidon.sidon_constant.self_share", share("sidon.sidon_constant"), "ratio")
    put("sidon.lp.solves", calls("sidon.lp"), "count")
    put("sidon.lp.self_share", share("sidon.lp"), "ratio")

    n = calls("geometry.volume")
    put("geometry.volume.calls", n, "count")
    put("geometry.volume.self_share", share("geometry.volume"), "ratio")
    put("geometry.volume.exact_frac", _frac(cnt["geometry.volume.exact"], n), "ratio")
    put("geometry.mc.samples", int(cnt["geometry.mc.samples"]), "count")
    put("geometry.mc.hit_frac", _frac(cnt["geometry.mc.hits"], cnt["geometry.mc.samples"]), "ratio")
    put("geometry.mvee.calls", calls("geometry.mvee"), "count")
    put("geometry.mvee.self_share", share("geometry.mvee"), "ratio")
    put("geometry.santalo_check.calls", calls("geometry.santalo_check"), "count")
    put("geometry.santalo_check.self_share", share("geometry.santalo_check"), "ratio")

    put("harness.run.calls", calls("harness.run"), "count")
    put("harness.run.self_share", share("harness.run"), "ratio")
    return m
