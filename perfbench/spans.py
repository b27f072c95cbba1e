"""Span recording around the public functions of each rtspectra layer.

The benchmark installs the wrappers from here, outside the package: it
replaces each public function of a layer module, in every rtspectra
namespace that holds it, by a wrapper that records one span per call, and
puts the originals back afterwards.  Spans that the package records itself
(``ModeVerdict.diagnostics``, a CLI ``--trace`` flag) are left to a later
change.

A span is ``(id, name, parent, start, end, attrs)`` with ``parent`` the id
of the enclosing span on the same thread, so spans nest as
``cli.run > spectral.global_scan > spectral.analyze_mode > spectral.alpha``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("equilibrium", "modereduce", "assembly", "spectral", "criteria", "evolution")

DENSE_MATRICES = ("mass", "gravity", "compress", "magnetic", "elastic", "dissipation",
                  "coercivity_metric")


def _alpha_attrs(args, kwargs, result):
    s, matrices = args[0], args[1]
    return {"k": [matrices.mode.k1, matrices.mode.k2], "s": float(s)}


def _assemble_attrs(args, kwargs, result):
    return {"n_dof": result.n_dof,
            "dense_bytes": sum(getattr(result, m).nbytes for m in DENSE_MATRICES)}


def _integrate_attrs(args, kwargs, result):
    return {"steps": int(result.times.size - 1)}


ATTRS = {
    "spectral.alpha": _alpha_attrs,
    "assembly.assemble": _assemble_attrs,
    "evolution.integrate_linearized": _integrate_attrs,
}


class Tracer:
    """Collects spans in memory while its wrappers are installed."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        annotate = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = [next(self._ids), name, stack[-1] if stack else None,
                    time.perf_counter(), None, None]
            self.spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if annotate is not None:
                span[5] = annotate(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every public layer function wherever an rtspectra module holds it."""
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"rtspectra.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    targets[obj] = f"{layer}.{attr}"
        # Only the CLI entry point: cli.run's self time is then the CLI layer's
        # own work (config parsing, report formatting, artifact writes).
        targets[importlib.import_module("rtspectra.cli").run] = "cli.run"
        wrappers = {fn: self._wrap(name, fn) for fn, name in targets.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "rtspectra":
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        # The coefficient tables are set-up work, so their constructor gets a span too.
        cls = importlib.import_module("rtspectra.modereduce").FormCoefficients
        self._restore.append((cls, "__init__", cls.__init__))
        cls.__init__ = self._wrap("modereduce.FormCoefficients", cls.__init__)

    def uninstall(self):
        while self._restore:
            owner, attr, obj = self._restore.pop()
            setattr(owner, attr, obj)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path):
        """One JSON object per span, in start order; ``root`` is the CLI call it serves."""
        roots = {}
        with open(path, "w") as fh:
            for sid, name, parent, start, end, attrs in self.spans:
                roots[sid] = sid if parent is None else roots[parent]
                rec = {"id": sid, "name": name, "parent": parent, "root": roots[sid],
                       "start": start, "end": end}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def by_name(spans):
    """Per span name: call count, total time and self time (total minus children)."""
    child_time = defaultdict(float)
    for _, _, parent, start, end, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    table = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for sid, name, _, start, end, _ in spans:
        row = table[name]
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - child_time[sid]
    return dict(table)


def unit(name):
    """Unit of a per-layer metric, read from the last part of its name."""
    last = name.rsplit(".", 1)[-1]
    if last == "s" or last.endswith("_s"):
        return "s"
    if last.endswith("_us"):
        return "us"
    if last.endswith("_bytes"):
        return "bytes"
    if last.endswith(("_ratio", "_over_threads1")):
        return "ratio"
    return "count"


def layer_metrics(spans):
    """The per-layer figures named in BENCHMARK.json, from one traced pass.

    Which end-to-end metric each should move, and on which workload:

    - assembly (time, calls, n_dof, dense_bytes = the 7 dense matrices'
      bytes): verdict_s on lattice_vertical (41 calls) and peak_rss_mb on
      all three; barely evolve_crosscheck (1 call).
    - spectral.xi_per_mode: verdict_s on lattice_vertical.
    - spectral.alpha, distinct_ratio (distinct (mode, s) over calls),
      growth_rate_detailed self time, fixed points and alpha calls per
      fixed point: verdict_s on growth_mixed most, then evolve_crosscheck,
      and only the alpha(0) part on lattice_vertical.
    - spectral.analyze_mode p50/p75 and global_scan: the scan workloads.
    - evolution (integrate time, steps, time per step, export): verdict_s
      on evolve_crosscheck only.
    - equilibrium.build_profile and modereduce.FormCoefficients: setup_s;
      energy_form calls count the element-level Rayleigh polish work.
    - criteria and cli.run self time (config parsing, artifact writes):
      negligible everywhere, recorded to show that they stay so.

    A layer a workload never calls reads 0.
    """
    table = by_name(spans)
    names = {sid: name for sid, name, *_ in spans}

    def total(name, key="s"):
        return table.get(name, {}).get(key, 0)

    def attrs_of(name):
        return [a for _, n, _, _, _, a in spans if n == name and a]

    alpha_keys = [(tuple(a["k"]), a["s"]) for a in attrs_of("spectral.alpha")]
    alpha_calls = total("spectral.alpha", "calls")
    fixed_points = total("spectral.growth_rate_detailed", "calls")
    alpha_in_fp = sum(1 for _, n, p, *_ in spans
                      if n == "spectral.alpha" and names.get(p) == "spectral.growth_rate_detailed")
    assembled = attrs_of("assembly.assemble")
    steps = sum(a["steps"] for a in attrs_of("evolution.integrate_linearized"))
    per_mode = sorted(end - start for _, n, _, start, end, _ in spans
                      if n == "spectral.analyze_mode")
    if len(per_mode) >= 2:
        p50, p75 = statistics.median(per_mode), statistics.quantiles(per_mode, n=4)[2]
    else:
        p50 = p75 = per_mode[0] if per_mode else 0.0
    return {
        "assembly.assemble.s": total("assembly.assemble"),
        "assembly.assemble.calls": total("assembly.assemble", "calls"),
        "assembly.n_dof": max((a["n_dof"] for a in assembled), default=0),
        "assembly.dense_bytes": max((a["dense_bytes"] for a in assembled), default=0),
        "spectral.xi_per_mode.s": total("spectral.xi_per_mode"),
        "spectral.xi_per_mode.calls": total("spectral.xi_per_mode", "calls"),
        "spectral.alpha.s": total("spectral.alpha"),
        "spectral.alpha.calls": alpha_calls,
        "spectral.alpha.distinct_ratio": len(set(alpha_keys)) / alpha_calls if alpha_calls else 0.0,
        "spectral.growth_rate_detailed.s": total("spectral.growth_rate_detailed"),
        "spectral.growth_rate_detailed.self_s": total("spectral.growth_rate_detailed", "self_s"),
        "spectral.fixed_points": fixed_points,
        "spectral.alpha_calls_per_fixed_point": alpha_in_fp / fixed_points if fixed_points else 0.0,
        "spectral.analyze_mode.p50_s": p50,
        "spectral.analyze_mode.p75_s": p75,
        "spectral.global_scan.s": total("spectral.global_scan"),
        "evolution.integrate_linearized.s": total("evolution.integrate_linearized"),
        "evolution.steps": steps,
        "evolution.step_us": 1e6 * total("evolution.integrate_linearized") / steps if steps else 0.0,
        "evolution.export_trajectory.s": total("evolution.export_trajectory"),
        "equilibrium.build_profile.s": total("equilibrium.build_profile"),
        "modereduce.FormCoefficients.s": total("modereduce.FormCoefficients"),
        "modereduce.energy_form.calls": total("modereduce.energy_form", "calls"),
        "criteria.vertical_field_threshold.s": total("criteria.vertical_field_threshold"),
        "criteria.small_field_witness.s": total("criteria.small_field_witness"),
        "cli.run.s": total("cli.run"),
        "cli.run.self_s": total("cli.run", "self_s"),
        "trace.spans": len(spans),
    }
