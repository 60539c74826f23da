"""Spans and counts around ringform's public functions, from outside the package.

``Tracer.install`` replaces each traced function in every ``ringform``
module namespace that binds it: the package imports names with
``from .x import y``, so a function is looked up under several module
names.  ``Tracer.restore`` puts every replaced name back.

A span records its name, start, end, parent span and the run id; spans
stay in memory until the run ends.  Functions called once per simulation
step (``step_estimator``, ``step_formation``) are counted, not timed.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "harness", "estimation", "formation", "spectral", "core")

# The root span wrapped around ``execute``; its self time is the run's
# time that no traced function covers.
ROOT = "execute"


def _matrix_order(args, kwargs, result):
    matrix = args[0] if args else kwargs["matrix"]
    return {"order": np.shape(matrix)[0]}


def _estimate_trace(args, kwargs, trace):
    steps = len(trace.steps)
    right = trace.converged and trace.estimate == trace.n_prime_true
    stats = {"steps": steps, "robot_steps": steps * trace.n_prime_true,
             "right": int(right)}
    if right:
        stats["stop_steps"] = trace.steps_to_convergence
        stats["confirm_steps"] = (trace.steps_to_convergence
                                  - trace.first_correct_step)
    return stats


def _formation_trace(args, kwargs, trace):
    return {"snapshots": len(trace.snapshots)}


def _sweep_result(args, kwargs, result):
    return {"cells": len(result.rows)}


def _written_path(args, kwargs, result):
    return {"path": str(args[0] if args else kwargs["path"])}


def _manifest_path(args, kwargs, result):
    out_dir = args[0] if args else kwargs["out_dir"]
    return {"path": os.path.join(out_dir, "manifest.json")}


def _chain_order(args, kwargs):
    return args[0].n_prime


def _ring_size(args, kwargs):
    return args[0].positions.shape[0]


# (layer, function, observe) for timed spans; ``observe`` turns a call's
# arguments and result into numbers kept per call.
SPANNED = (
    ("cli", "load_config", None),
    ("cli", "parse_config", None),
    ("cli", "write_csv", _written_path),
    ("cli", "write_estimate_csv", None),
    ("cli", "write_trace_csv", None),
    ("cli", "write_errors_csv", None),
    ("cli", "write_manifest", _manifest_path),
    ("harness", "sweep_convergence", _sweep_result),
    ("harness", "sensitivity_curves", None),
    ("harness", "auto_stop_window", None),
    ("harness", "scaled_params", None),
    ("estimation", "run_estimation", _estimate_trace),
    ("estimation", "steady_velocity_ratio", None),
    ("formation", "run_pipeline", None),
    ("formation", "run_formation", _formation_trace),
    ("spectral", "spectral_report", None),
    ("spectral", "spectral_radius", _matrix_order),
    ("spectral", "build_estimator_matrix", None),
    ("spectral", "build_lagged_estimator_matrix", None),
    ("spectral", "build_formation_matrix", None),
    ("core", "check_finite", None),
    ("core", "make_generator", None),
    ("core", "uniform_box", None),
)

# (layer, function, robots) for per-step functions: each call adds one
# step and ``robots(args, kwargs)`` robot-steps, with no clock read.
COUNTED = (
    ("estimation", "step_estimator", _chain_order),
    ("formation", "step_formation", _ring_size),
)


class Tracer:
    """In-memory span and count recorder for one traced run."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.names: list[str] = []
        self.layer_of: dict[str, str] = {ROOT: "other"}
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.observed: dict[str, list[dict]] = {}
        self.calls: dict[str, int] = {}
        self.robot_steps: dict[str, int] = {}
        self.patched: list[tuple[object, str, object]] = []

    # --- recording -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def begin(self, name: str) -> int:
        index = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self.stack[-1])
        self.span_end.append(0.0)
        self.stack.append(index)
        self.span_start.append(self.clock())
        return index

    def end(self, index: int) -> None:
        self.span_end[index] = self.clock()
        self.stack.pop()

    def spans(self) -> dict:
        """Column-wise copy of every span, ready to write out as JSON."""
        return {
            "run_id": self.run_id,
            "names": list(self.names),
            "name": list(self.span_name),
            "parent": list(self.span_parent),
            "start": list(self.span_start),
            "end": list(self.span_end),
        }

    # --- wrappers ------------------------------------------------------

    def _spanned(self, name, func, observe):
        begin, end = self.begin, self.end
        observed = self.observed.setdefault(name, [])

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                end(index)
            if observe is not None:
                observed.append(observe(args, kwargs, result))
            return result

        return wrapper

    def _counted(self, name, func, robots):
        calls, robot_steps = self.calls, self.robot_steps
        calls[name] = 0
        robot_steps[name] = 0

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            robot_steps[name] += robots(args, kwargs)
            return func(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever a ringform module binds it."""
        modules = [
            module for key, module in sorted(sys.modules.items())
            if module is not None and (key == "ringform" or key.startswith("ringform."))
        ]
        targets = [(layer, name, self._spanned, observe)
                   for layer, name, observe in SPANNED]
        targets += [(layer, name, self._counted, robots)
                    for layer, name, robots in COUNTED]
        for layer, name, make, extra in targets:
            original = getattr(sys.modules[f"ringform.{layer}"], name)
            self.layer_of[name] = layer
            wrapper = make(name, original, extra)
            for module in modules:
                if getattr(module, name, None) is original:
                    self.patched.append((module, name, original))
                    setattr(module, name, wrapper)

    def restore(self) -> None:
        """Put back every name ``install`` replaced."""
        while self.patched:
            module, name, original = self.patched.pop()
            setattr(module, name, original)


def self_times(parent, start, end) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children of one span never overlap
    and the covered time is the sum of their durations.
    """
    parent = np.asarray(parent, dtype=np.int64)
    duration = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=len(duration))
    return duration - covered


def _ratio(numerator, denominator, scale=1.0):
    """``scale * numerator / denominator``; 0 when the layer did no work."""
    return scale * numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, file_stats: dict[str, tuple[int, int]]) -> dict:
    """Per-layer numbers of one traced run.

    ``file_stats`` maps each written path to its (rows, bytes).  The run
    must have one ``ROOT`` span around ``execute``; the self-time split
    covers the spans inside it.
    """
    spans = tracer.spans()
    name_index = np.asarray(spans["name"], dtype=int)
    names = np.array(spans["names"])[name_index]
    start = np.asarray(spans["start"])
    end = np.asarray(spans["end"])
    duration = end - start
    own = self_times(spans["parent"], start, end)

    def busy(*funcs):
        return float(duration[np.isin(names, funcs)].sum())

    def calls(func):
        return int(np.count_nonzero(names == func))

    def total(func, key):
        return sum(entry.get(key, 0) for entry in tracer.observed.get(func, []))

    root = int(np.flatnonzero(names == ROOT)[0])
    inside = (start >= start[root]) & (end <= end[root])
    layer = np.array([tracer.layer_of[n] for n in spans["names"]])[name_index]

    m = {}
    m["cli.config_s"] = busy("load_config")
    m["cli.write_s"] = busy("write_csv", "write_manifest")
    m["cli.write_errors_s"] = busy("write_errors_csv")
    m["cli.write_trace_s"] = busy("write_trace_csv")
    m["cli.write_estimate_s"] = busy("write_estimate_csv")
    csv_paths = [e["path"] for e in tracer.observed.get("write_csv", [])]
    all_paths = csv_paths + [e["path"] for e in tracer.observed.get("write_manifest", [])]
    m["cli.write_rows"] = sum(file_stats[p][0] for p in csv_paths)
    m["cli.write_bytes"] = sum(file_stats[p][1] for p in all_paths)
    m["cli.write_rows_per_s"] = _ratio(m["cli.write_rows"], busy("write_csv"))

    steps = tracer.calls.get("step_formation", 0)
    robot_steps = tracer.robot_steps.get("step_formation", 0)
    m["formation.busy_s"] = busy("run_formation")
    m["formation.steps"] = steps
    m["formation.robot_steps"] = robot_steps
    m["formation.us_per_step"] = _ratio(m["formation.busy_s"], steps, 1e6)
    m["formation.ns_per_robot_step"] = _ratio(m["formation.busy_s"], robot_steps, 1e9)
    m["formation.snapshots"] = total("run_formation", "snapshots")

    chains = calls("run_estimation")
    est_steps = total("run_estimation", "steps")
    m["estimation.busy_s"] = busy("run_estimation")
    m["estimation.chains"] = chains
    m["estimation.steps"] = est_steps
    m["estimation.us_per_step"] = _ratio(m["estimation.busy_s"], est_steps, 1e6)
    m["estimation.converged_frac"] = _ratio(total("run_estimation", "right"), chains)
    m["estimation.stop_overhead_frac"] = _ratio(
        total("run_estimation", "confirm_steps"), total("run_estimation", "stop_steps"))
    m["estimation.sensitivity_s"] = busy("steady_velocity_ratio")
    m["estimation.sensitivity_steps"] = tracer.calls.get("step_estimator", 0)
    m["estimation.sensitivity_us_per_step"] = _ratio(
        m["estimation.sensitivity_s"], m["estimation.sensitivity_steps"], 1e6)

    m["harness.sweep_s"] = busy("sweep_convergence")
    m["harness.sensitivity_s"] = busy("sensitivity_curves")
    m["harness.stop_window_s"] = busy("auto_stop_window")
    m["harness.cells"] = total("sweep_convergence", "cells")
    m["harness.cells_per_s"] = _ratio(m["harness.cells"], m["harness.sweep_s"])

    orders = [e["order"] for e in tracer.observed.get("spectral_radius", [])]
    m["spectral.calls"] = len(orders)
    m["spectral.busy_s"] = busy("spectral_radius")
    m["spectral.ms_per_call"] = _ratio(m["spectral.busy_s"], len(orders), 1e3)
    m["spectral.max_order"] = max(orders, default=0)

    m["core.check_finite_calls"] = calls("check_finite")
    m["core.check_finite_s"] = busy("check_finite")

    for name in LAYERS + ("other",):
        selected = inside & (layer == name)
        m[f"{name}.self_s"] = float(own[selected].sum())
    m["robot_steps"] = (robot_steps + total("run_estimation", "robot_steps")
                        + tracer.robot_steps.get("step_estimator", 0))
    return m
