"""Outside-in span recorder for the gvs benchmark.

The recorder wraps public gvs functions from outside the package: each
wrapper opens a span, calls the original and closes the span. A function is
replaced in every ``gvs`` module namespace that bound it by name, because
modules such as ``smoothness`` and ``hardy`` import ``luxemburg_norm_rows``
and ``luxemburg_norm`` directly; patching ``gvs.lebesgue`` alone would miss
their calls. ``ExponentFunction.__call__`` is wrapped on the class.

Spans (name, start, end, parent) are kept in flat arrays in memory and
written out once at the end. Self time is a span's duration minus the
durations of its direct children. ``paused()`` suspends recording, so the
benchmark's own oracle evaluations never enter a layer's numbers.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Layer span -> (end-to-end metric it should move, workload). Counters listed
# in COUNTERS are reported next to ``calls`` and ``self_s``.
LAYERS = {
    "lebesgue.luxemburg_norm_rows": "items_per_s and item_tail_ms on norms; small on toolbox (minkowski_check); none on subordination",
    "lebesgue.luxemburg_norm": "item_p50_ms and items_per_s on toolbox; the outer solve on norms, a small share",
    "smoothness.derivative_tensor": "items_per_s and peak_rss_mb on norms, mainly the d=2 and wide-window items",
    "semigroups.ph_derivative_profile": "items_per_s and peak_rss_mb on norms, mainly the d=2 and wide-window items",
    "semigroups.ph_apply_subordination_many": "item_tail_ms and items_per_s on subordination (the d=2 items); absent on toolbox",
    "hermite.basis_matrix": "item_tail_ms and items_per_s on subordination (the d=2 items); absent on toolbox",
    "semigroups.ou_apply_kernel": "item_p50_ms on subordination",
    "hardy.hardy_lower": "items_per_s on toolbox",
    "hardy.hardy_upper": "items_per_s on toolbox",
    "quadrature.logtime_grid": "items_per_s on toolbox",
    "subordinator.density": "toolbox; also a share of subordination",
    "subordinator.tv_derivative_bound": "toolbox",
    "subordinator.moment_quadrature": "toolbox",
    "exponents.ExponentFunction.__call__": "its share of norms and toolbox",
    "quadrature.make_context": "setup_s on every workload",
}

COUNTERS = {
    "lebesgue.luxemburg_norm_rows": ("cells", "zeroed_rows", "residual_max"),
    "lebesgue.luxemburg_norm": ("iterations_mean", "iterations_max"),
    "smoothness.derivative_tensor": ("cells", "computed_bytes"),
    "semigroups.ph_apply_subordination_many": ("panel_passes", "shifted_nodes"),
    "hermite.basis_matrix": ("evals",),
}

# (span, enclosing span, counter of the enclosing span): counts calls made
# anywhere inside the enclosing span.
_NESTED_COUNTS = (
    ("subordinator.density", "semigroups.ph_apply_subordination_many", "panel_passes"),
    ("hermite.basis_matrix", "semigroups.ph_apply_subordination_many", "shifted_nodes"),
)

UNITS = {
    "calls": "count",
    "self_s": "s",
    "cells": "count",
    "zeroed_rows": "count",
    "residual_max": "1",
    "iterations_mean": "count",
    "iterations_max": "count",
    "computed_bytes": "B",
    "panel_passes": "count",
    "shifted_nodes": "count",
    "evals": "count",
}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for layer in LAYERS:
        for q in ("calls", "self_s") + COUNTERS.get(layer, ()):
            out.append((f"{layer}.{q}", UNITS[q]))
    out.append(("other.self_s", "s"))
    out.append(("trace.overhead_s", "s"))
    return out


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _rows_post(rec, result, args, kwargs):
    V = np.abs(np.asarray(_arg(args, kwargs, 0, "V"), dtype=float))
    weights = np.asarray(_arg(args, kwargs, 1, "weights"), dtype=float)
    p_at = np.asarray(_arg(args, kwargs, 2, "p_at"), dtype=float)
    c = rec.counters["lebesgue.luxemburg_norm_rows"]
    c["cells"] += V.size
    nonzero_in = (V * weights[None, :]).max(axis=1) > 0
    c["zeroed_rows"] += int(np.count_nonzero(nonzero_in & (result == 0.0)))
    out_rows = result > 0
    if np.any(out_rows):
        with np.errstate(over="ignore", invalid="ignore"):
            rho = (V[out_rows] / result[out_rows][:, None]) ** p_at[None, :] @ weights
        c["residual_max"] = max(c["residual_max"], float(np.max(np.abs(rho - 1.0))))


def _norm_post(rec, result, args, kwargs):
    c = rec.counters["lebesgue.luxemburg_norm"]
    c["iterations_sum"] += result.iterations
    c["iterations_max"] = max(c["iterations_max"], result.iterations)


def _tensor_post(rec, result, args, kwargs):
    f = _arg(args, kwargs, 0, "f")
    n_t, n_x = result.shape
    modes = len(f.coeffs)
    c = rec.counters["smoothness.derivative_tensor"]
    c["cells"] += result.size
    # float64 arrays the call builds: the mode/time factor E, the basis B,
    # the product E @ B and its absolute value
    c["computed_bytes"] += 8 * (n_t * modes + modes * n_x + 2 * n_t * n_x)


def _basis_post(rec, result, args, kwargs):
    rec.counters["hermite.basis_matrix"]["evals"] += result.size


_POST = {
    "lebesgue.luxemburg_norm_rows": _rows_post,
    "lebesgue.luxemburg_norm": _norm_post,
    "smoothness.derivative_tensor": _tensor_post,
    "hermite.basis_matrix": _basis_post,
}


class SpanRecorder:
    """Records nested spans around gvs calls; install() patches, uninstall() restores."""

    def __init__(self):
        self.names: list[str] = list(LAYERS)
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[list] = []  # [span index, summed child duration]
        self._active: dict[str, int] = defaultdict(int)
        self._paused = 0
        self._patches: list[tuple[object, str, object]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, dict] = defaultdict(lambda: defaultdict(float))

    # ------------------------------------------------------------ recording

    def _open(self, name: str) -> None:
        idx = len(self.start)
        self.name_id.append(self._ids[name])
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append([idx, 0.0])
        self._active[name] += 1
        for child, outer, counter in _NESTED_COUNTS:
            if name == child and self._active[outer]:
                self.counters[outer][counter] += 1
        self.start.append(time.perf_counter())

    def _close(self, name: str) -> None:
        t_end = time.perf_counter()
        idx, child = self._stack.pop()
        self.end[idx] = t_end
        dur = t_end - self.start[idx]
        self.calls[name] += 1
        self.self_s[name] += dur - child
        self._active[name] -= 1
        if self._stack:
            self._stack[-1][1] += dur

    @contextmanager
    def paused(self):
        """Run benchmark-side code (oracles) without recording spans."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def _wrap(self, fn, name: str):
        post = _POST.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name)
            if post is not None:
                post(self, result, args, kwargs)
            return result

        return wrapper

    # ------------------------------------------------------------- patching

    def install(self, gvs) -> None:
        """Wrap every layer function in each gvs namespace that bound it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "gvs" or n.startswith("gvs."))]
        for name in LAYERS:
            if name == "exponents.ExponentFunction.__call__":
                cls = gvs.exponents.ExponentFunction
                self._patch(cls, "__call__", self._wrap(cls.__call__, name))
                continue
            module_name, attr = name.split(".")
            original = getattr(getattr(gvs, module_name), attr)
            wrapper = self._wrap(original, name)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -------------------------------------------------------------- results

    def layer_names_seen(self) -> set[str]:
        return {n for n in self.names if self.calls.get(n)}

    def self_time_check(self, wall_s: float) -> tuple[bool, float]:
        """Recompute self times from the stored spans and check they tile the wall time.

        Self times come from the arrays (duration minus direct children);
        ``other`` is the wall time no root span covers. Their sum must equal
        the wall time, which holds only if every span nests in its parent.
        Returns (ok, other_s).
        """
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_times = dur - child
        other = wall_s - float(np.sum(dur[~has_parent]))
        total = float(np.sum(self_times)) + other
        ok = (
            abs(total - wall_s) <= 1e-6 * max(1.0, wall_s)
            and other >= 0.0
            and bool(np.all(self_times >= -1e-9))
            and abs(float(np.sum(self_times)) - sum(self.self_s.values())) <= 1e-6 * max(1.0, wall_s)
        )
        return ok, other

    def metrics(self, other_s: float, overhead_s: float) -> dict[str, float]:
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls.get(layer, 0)
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
            c = self.counters.get(layer, {})
            for q in COUNTERS.get(layer, ()):
                if q == "iterations_mean":
                    n = self.calls.get(layer, 0)
                    out[f"{layer}.{q}"] = c.get("iterations_sum", 0.0) / n if n else 0.0
                else:
                    out[f"{layer}.{q}"] = c.get(q, 0)
        out["other.self_s"] = other_s
        out["trace.overhead_s"] = overhead_s
        return out

    def save(self, path, meta: dict) -> None:
        """Write every span (name, start, end, parent) plus run metadata."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            meta=np.array(json.dumps(meta)),
        )
