"""Span recorder for the traced run, and the per-layer metrics derived from it.

In the traced run only, `SpanRecorder.install` wraps every public function of
the measured layers under every name mfprop's modules hold it by (so
`meanfield.expect1`, `expressivity.sample_network` and the global that
`boundary.readout_field`'s closure calls are all covered).  Each call records
a span (name, start, end, parent) in memory; each benchmark op is a root span,
so the spans of one op share that root.  Work counts are taken at the same
boundaries.  Nothing in `src/` is edited.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

from machine import LAYERS


def _matmul_flops(widths, rows: int, products_per_layer: int) -> int:
    """2 * rows * N_{l-1} * N_l per product, for layers 2..D."""
    return sum(2 * rows * n_in * n_out * products_per_layer
               for n_in, n_out in zip(widths[1:-1], widths[2:]))


def _count_sample_network(rec, a, result) -> None:
    widths = tuple(int(n) for n in a["widths"])
    rec.counts["simulator.sample_network.normals"] += sum(
        n_out * n_in + n_out for n_in, n_out in zip(widths, widths[1:]))
    key = (widths, int(a["seed"]))
    rec.counts["simulator.sample_network.repeats"] += key in rec.sample_keys
    rec.sample_keys.add(key)


def _count_forward_from_first(rec, a, result) -> None:
    rows = np.atleast_2d(a["h1"]).shape[0]
    rec.counts["simulator.forward_from_first.flops"] += _matmul_flops(a["net"].widths, rows, 1)


def _count_forward_jet(rec, a, result) -> None:
    rows = len(a["manifold"].thetas)
    products = 3 if a["acceleration"] else 2
    rec.counts["simulator.forward_jet.flops"] += _matmul_flops(a["net"].widths, rows, products)


def _count_shallow_bound(rec, a, result) -> None:
    rec.counts["expressivity.verify_shallow_bound.normals"] += (
        a["n_trials"] * a["n_hidden"] * a["circle"].width)


def _count_correlation_trajectory(rec, a, result) -> None:
    rec.counts["meanfield.correlation_trajectory.returned"] += 1
    rec.counts["meanfield.correlation_trajectory.converged"] += bool(result.c_star_converged)


def _count_boundary_point(rec, a, result) -> None:
    rec.counts["boundary.find_boundary_point.converged"] += 1


# work counted when these calls return, from their bound arguments and result
COUNTERS = {
    "simulator.sample_network": _count_sample_network,
    "simulator.forward_from_first": _count_forward_from_first,
    "simulator.forward_jet": _count_forward_jet,
    "expressivity.verify_shallow_bound": _count_shallow_bound,
    "meanfield.correlation_trajectory": _count_correlation_trajectory,
    "boundary.find_boundary_point": _count_boundary_point,
}


class SpanRecorder:
    """Spans kept in flat arrays: name id, start/end (ns), parent index."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._paused = 0
        self.counts: Counter = Counter()
        self.sample_keys: set = set()
        self._patched: list = []

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def op_span(self, kind: str):
        idx = self._open(self._nid(f"bench.{kind}"))
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def paused(self):
        """Calls made inside pass straight through, unrecorded (output checks)."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def _wrap(self, name: str, fn):
        nid = self._nid(name)
        count = COUNTERS.get(name)
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self, bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"mfprop.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if name != "mfprop" and not name.startswith("mfprop."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def self_times(self) -> tuple[Counter, Counter]:
        """(self ns, calls) per span name.  Self time is the span's duration
        minus the outermost nested spans of other layers."""
        layer = [name.split(".", 1)[0] for name in self.names]
        span_layer = [layer[i] for i in self.name_id]
        start, end, parent = self.start, self.end, self.parent
        foreign = [0] * len(span_layer)
        for i, own in enumerate(span_layer):
            p = parent[i]
            if p < 0 or span_layer[p] == own:
                continue
            # every ancestor up the run of p's layer sees span i as foreign
            outer, duration = span_layer[p], end[i] - start[i]
            while p >= 0 and span_layer[p] == outer:
                foreign[p] += duration
                p = parent[p]
        self_ns, calls = Counter(), Counter()
        for i, nid in enumerate(self.name_id):
            self_ns[self.names[nid]] += end[i] - start[i] - foreign[i]
            calls[self.names[nid]] += 1
        return self_ns, calls

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


# ---------------------------------------------------------------------------
# per-layer metrics

SELF_MS = {
    "quadrature.expect1.ms": ("quadrature.expect1",),
    "quadrature.expect2_product.ms": ("quadrature.expect2_product",),
    "quadrature.build_rule.ms": ("quadrature.build_rule",),
    "meanfield.length_fixed_point.ms": ("meanfield.length_fixed_point",),
    "meanfield.correlation_trajectory.ms": ("meanfield.correlation_trajectory",),
    "meanfield.phase_boundary.ms": ("meanfield.phase_boundary",),
    "simulator.sample_network.ms": ("simulator.sample_network",),
    "simulator.forward.ms": ("simulator.forward",),
    "simulator.forward_from_first.ms": ("simulator.forward_from_first",),
    "simulator.forward_jet.ms": ("simulator.forward_jet",),
    "simulator.singular_spectrum.ms": ("simulator.singular_spectrum",),
    "simulator.measure.ms": ("simulator.empirical_length", "simulator.empirical_correlation",
                             "simulator.autocorrelation"),
    "geometry.curve_geometry.ms": ("geometry.curve_geometry",),
    "boundary.find_boundary_point.ms": ("boundary.find_boundary_point",),
    "boundary.principal_curvatures.ms": ("boundary.principal_curvatures",),
    "expressivity.verify_shallow_bound.ms": ("expressivity.verify_shallow_bound",),
    "expressivity.weight_chaos_empirical.ms": ("expressivity.weight_chaos_empirical",),
    "expressivity.fourier_error_profile.ms": ("expressivity.fourier_error_profile",),
}
CALLS = ("quadrature.expect1", "quadrature.expect2_product", "meanfield.length_map",
         "meanfield.c_map", "meanfield.chi1", "simulator.sample_network",
         "boundary.readout_value_and_gradient")


def _ratio(num: float, den: float) -> float:
    """num / den, and 0 when nothing was attempted."""
    return num / den if den else 0.0


def layer_metrics(rec: SpanRecorder) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit)."""
    self_ns, calls = rec.self_times()
    ms = {name: sum(self_ns[f] for f in fns) / 1e6 for name, fns in SELF_MS.items()}
    c = rec.counts
    out = {f"{f}.calls": (calls[f], "count") for f in CALLS}
    out.update({name: (value, "ms") for name, value in ms.items()})
    out["meanfield.c_converged_ratio"] = (_ratio(
        c["meanfield.correlation_trajectory.converged"],
        c["meanfield.correlation_trajectory.returned"]), "fraction")
    normals = c["simulator.sample_network.normals"]
    out["simulator.sample_network.normals"] = (normals, "count")
    out["simulator.sample_network.ns_per_normal"] = (
        _ratio(ms["simulator.sample_network.ms"] * 1e6, normals), "ns")
    out["simulator.sample_network.repeat_share"] = (_ratio(
        c["simulator.sample_network.repeats"], calls["simulator.sample_network"]), "fraction")
    for fn in ("forward_from_first", "forward_jet"):
        out[f"simulator.{fn}.gflops"] = (_ratio(
            c[f"simulator.{fn}.flops"], ms[f"simulator.{fn}.ms"] * 1e6), "GFLOP/s")
    out["boundary.points_converged_ratio"] = (_ratio(
        c["boundary.find_boundary_point.converged"],
        calls["boundary.find_boundary_point"]), "fraction")
    out["expressivity.verify_shallow_bound.normals"] = (
        c["expressivity.verify_shallow_bound.normals"], "count")
    return out
