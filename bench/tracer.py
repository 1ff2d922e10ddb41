"""Span recorder for the traced benchmark run.

The package itself is not changed: ``install`` wraps the public
functions of each layer module, the ``cmd_*`` handlers of the CLI and
the dense eigensolvers of numpy and scipy, and rebinds every name in
the package that a ``from ... import`` bound to one of them (plus the
CLI's command table).  Spans stay in memory as
``[id, name, start, end, parent_id, attrs]`` and are written out by the
caller when the job ends.  ``layer_totals`` and ``layer_metrics`` turn
spans into the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

LAYERS = ("config", "lattice", "coupling", "exact", "spinwave",
          "observables", "stochastic", "iocsv")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn, attrs=None):
        """Return fn timed as span ``name``; attrs(args, result) -> dict."""
        spans, ids, local = self.spans, self._ids, self._local

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = [next(ids), name, 0.0, 0.0, stack[-1] if stack else -1,
                    None]
            spans.append(span)
            stack.append(span[0])
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(inspect.signature(fn).bind(*args, **kwargs)
                                .arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _dim(key):
    return lambda a, r: {"dim": a[key].dimension}


_ATTRS = {
    "exact.evolve": lambda a, r: {"dim": a["h"].dimension,
                                  "method": r.meta["method"]},
    "exact.diagonal_ensemble": _dim("h"),
    "exact.build_full_ising": lambda a, r: {"dim": r.dimension},
    "exact.build_xy_sector": lambda a, r: {"dim": r.dimension},
    "spinwave.evolve_spinwave": lambda a, r: {"points": len(r.times)},
    "stochastic.noise_average": lambda a, r: {"samples": a["n_samples"]},
    "stochastic.shot_pipeline": lambda a, r: {"shots": a["n_shots"]},
    "stochastic.postselect": lambda a, r: {"shots": len(a["shots"]),
                                           "accepted": r.n_accepted},
    "linalg.eigh": lambda a, r: {"n": a["a"].shape[-1]},
}


def _io_bytes(a, r):
    return {"bytes": os.path.getsize(a["path"])}


# Only these functions of the CLI and iocsv are spans: the per-value
# formatter iocsv.fmt runs once per number written and would swamp the trace.
_PREFIX = {"cli": "cmd_", "iocsv": "write_"}


def install(tracer: Tracer) -> None:
    """Route the package's layer calls through ``tracer``."""
    import numpy.linalg
    import scipy.linalg

    cli = importlib.import_module("ionquench.cli")
    wrapped = {}
    for layer in LAYERS + ("cli",):
        mod = importlib.import_module(f"ionquench.{layer}")
        for attr, fn in vars(mod).items():
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and attr.startswith(_PREFIX.get(layer, ""))):
                name = f"{layer}.{attr}"
                hook = _io_bytes if layer == "iocsv" else _ATTRS.get(name)
                wrapped[fn] = tracer.wrap(name, fn, hook)
    for modname, mod in list(sys.modules.items()):
        if modname == "ionquench" or modname.startswith("ionquench."):
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    setattr(mod, attr, wrapped[val])
    for key, fn in cli._COMMANDS.items():
        cli._COMMANDS[key] = wrapped[fn]
    numpy.linalg.eigh = tracer.wrap("linalg.eigh", numpy.linalg.eigh,
                                    _ATTRS["linalg.eigh"])
    scipy.linalg.eigh = tracer.wrap("linalg.eigh", scipy.linalg.eigh,
                                    _ATTRS["linalg.eigh"])
    scipy.linalg.eigh_tridiagonal = tracer.wrap(
        "linalg.eigh_tridiagonal", scipy.linalg.eigh_tridiagonal)


# -- analysis ----------------------------------------------------------------

def self_times(spans) -> dict[int, float]:
    """Duration of each span minus the part its child spans cover.

    Children may overlap (threads) or outlive the parent's interval;
    only the union of their intervals clipped to the parent counts.
    """
    children = defaultdict(list)
    for sid, _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _ in spans:
        covered, run_start, run_end = 0.0, None, None
        for a, b in sorted(children[sid]):
            a, b = max(a, start), min(b, end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out[sid] = (end - start) - covered
    return out


# Per-layer metrics reported by the traced run, with their units.
PER_LAYER = {
    "cli.self_s": "s",
    "lattice.modes_s": "s",
    "lattice.modes_calls": "count",
    "coupling.tune_s": "s",
    "coupling.trial_builds": "count",
    "coupling.useful_frac": "ratio",
    "exact.build_s": "s",
    "exact.build_calls": "count",
    "exact.dense_s": "s",
    "exact.dense_calls": "count",
    "exact.krylov_s": "s",
    "exact.krylov_calls": "count",
    "exact.diag_ensemble_s": "s",
    "exact.max_dim": "count",
    "linalg.eigh_calls": "count",
    "linalg.eigh_s": "s",
    "linalg.eigh_n3": "n3-computed",
    "linalg.tridiag_calls": "count",
    "linalg.tridiag_s": "s",
    "spinwave.build_s": "s",
    "spinwave.evolve_s": "s",
    "spinwave.points": "count",
    "spinwave.gge_s": "s",
    "observables.assemble_s": "s",
    "observables.c_calls": "count",
    "stochastic.noise_self_s": "s",
    "stochastic.noise_samples": "count",
    "stochastic.shots_self_s": "s",
    "stochastic.shots": "count",
    "stochastic.dynamics_per_shot": "ratio",
    "stochastic.accept_ratio": "ratio",
    "stochastic.postselect_s": "s",
    "iocsv.write_s": "s",
    "iocsv.bytes": "B",
    "iocsv.mb_per_s": "MB/s",
    "trace.overhead_frac": "ratio",
}

_MODES = {"lattice.exact_modes", "lattice.perturbative_modes"}
_BUILDS = {"exact.build_full_ising", "exact.build_xy_sector"}
_GGE = {"spinwave.gge_state", "spinwave.gge_occupations",
        "spinwave.gge_lambdas", "spinwave.gge_magnetization"}
_DYNAMICS = {"exact.evolve", "spinwave.evolve_spinwave"}


def layer_totals(spans) -> dict[str, float]:
    """Additive per-layer sums over the spans of one process.

    Times of a layer count its outermost spans only, so a function of the
    layer calling another of the same layer is not counted twice.
    """
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)
    t = defaultdict(float)
    io_names = {s[1] for s in spans if s[1].startswith("iocsv.")}

    def inside(span, names):
        """Whether an ancestor of span is named in names."""
        parent = span[4]
        while parent >= 0:
            if by_id[parent][1] in names:
                return True
            parent = by_id[parent][4]
        return False

    def outer(span, names):
        return span[1] in names and not inside(span, names)

    for span in spans:
        sid, name, start, end, _, attrs = span
        dur = end - start
        attrs = attrs or {}
        if name.startswith("cli.cmd_"):
            t["cli.self_s"] += selfs[sid]
        if name in _MODES:
            t["lattice.modes_calls"] += 1
            if outer(span, _MODES):
                t["lattice.modes_s"] += dur
        if name == "coupling.tune_mu_for_alpha":
            t["coupling.tune_s"] += dur
            t["coupling.tunes"] += 1
        if name == "coupling.ion_couplings":
            t["coupling.trial_builds"] += 1
            if inside(span, {"coupling.tune_mu_for_alpha"}):
                t["coupling.tune_builds"] += 1
        if name in _BUILDS:
            t["exact.build_calls"] += 1
            t["exact.build_s"] += dur
        if name == "exact.evolve":
            kind = attrs["method"]
            t[f"exact.{kind}_calls"] += 1
            t[f"exact.{kind}_s"] += dur
        if name == "exact.diagonal_ensemble":
            t["exact.diag_ensemble_s"] += dur
        if "dim" in attrs:
            t["exact.max_dim"] = max(t["exact.max_dim"], attrs["dim"])
        if name == "linalg.eigh":
            t["linalg.eigh_calls"] += 1
            t["linalg.eigh_n3"] += float(attrs["n"]) ** 3
            if outer(span, {"linalg.eigh"}):
                t["linalg.eigh_s"] += dur
        if name == "linalg.eigh_tridiagonal":
            t["linalg.tridiag_calls"] += 1
            t["linalg.tridiag_s"] += dur
        if name == "spinwave.build_spinwave":
            t["spinwave.build_s"] += dur
        if name == "spinwave.evolve_spinwave":
            t["spinwave.evolve_s"] += dur
            t["spinwave.points"] += attrs["points"]
        if outer(span, _GGE):
            t["spinwave.gge_s"] += dur
        if name == "observables.assemble_trace":
            t["observables.assemble_s"] += dur
        if name == "observables.observable_c":
            t["observables.c_calls"] += 1
        if name == "stochastic.noise_average":
            t["stochastic.noise_self_s"] += selfs[sid]
            t["stochastic.noise_samples"] += attrs["samples"]
        if name == "stochastic.shot_pipeline":
            t["stochastic.shots_self_s"] += selfs[sid]
            t["stochastic.shots"] += attrs["shots"]
        if name in _DYNAMICS and inside(span, {"stochastic.shot_pipeline"}):
            t["stochastic.shot_dynamics"] += 1
        if name == "stochastic.postselect":
            t["stochastic.postselect_s"] += dur
            t["stochastic.postselected"] += attrs["shots"]
            t["stochastic.accepted"] += attrs["accepted"]
        if name in io_names and not inside(span, io_names):
            t["iocsv.write_s"] += dur
            t["iocsv.bytes"] += attrs["bytes"]
    return dict(t)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: list[dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics of one job from the totals of its processes."""
    t = defaultdict(float)
    for part in totals:
        for key, value in part.items():
            t[key] = (max(t[key], value) if key == "exact.max_dim"
                      else t[key] + value)
    out = {name: t[name] for name in PER_LAYER}
    out["coupling.useful_frac"] = _ratio(t["coupling.tunes"],
                                         t["coupling.tune_builds"])
    out["stochastic.dynamics_per_shot"] = _ratio(t["stochastic.shot_dynamics"],
                                                 t["stochastic.shots"])
    out["stochastic.accept_ratio"] = _ratio(t["stochastic.accepted"],
                                            t["stochastic.postselected"])
    out["iocsv.mb_per_s"] = _ratio(t["iocsv.bytes"] / 1e6, t["iocsv.write_s"])
    del out["trace.overhead_frac"]   # filled in by the runner
    return out
