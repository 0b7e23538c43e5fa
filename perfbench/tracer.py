"""In-memory span tracer for the traced benchmark runs.

The tracer wraps the public functions of each cohesivefrac layer from the
outside, by replacing them in every loaded ``cohesivefrac`` module that
holds a reference to them.  Each call records one span: name, start,
end and the span that was open when it began.  Spans stay in compact
arrays until the run ends; :meth:`Tracer.write` dumps them and
:meth:`Tracer.metrics` derives the per-layer numbers from them.

A name that a later version of the package no longer has is listed in
``absent`` and its metrics read 0; nothing here may crash on it.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

PACKAGE = "cohesivefrac"

# name -> unit of every per-layer metric, in report order
METRICS = {
    "solver1d.step.calls": "count",
    "solver1d.step.us_p50": "us",
    "solver1d.step.us_p99": "us",
    "solver1d.step.self_s": "s",
    "solver1d.griffith_step.calls": "count",
    "solver1d.griffith_step.us_p50": "us",
    "search.line_search.solver1d.calls": "count",
    "search.line_search.solver1d.s": "s",
    "search.line_search.planar2d.calls": "count",
    "search.line_search.planar2d.s": "s",
    "search.points.solver1d": "count",
    "search.points.planar2d": "count",
    "laws.phi.calls": "count",
    "laws.phi.s": "s",
    "laws.bulk.calls": "count",
    "laws.bulk.s": "s",
    "laws.relax_oracle.calls": "count",
    "laws.relax_oracle.s": "s",
    "bar1d.total_energy.calls": "count",
    "bar1d.total_energy.s": "s",
    "evolution.evolve.calls": "count",
    "evolution.evolve.s": "s",
    "evolution.evolve.self_s": "s",
    "evolution.steps": "count",
    "evolution.branch.elastic": "count",
    "evolution.branch.memory": "count",
    "evolution.branch.exceed": "count",
    "evolution.branch.fresh": "count",
    "scaling.sweep.s": "s",
    "scaling.reference.s": "s",
    "scaling.max_row_share": "ratio",
    "planar2d.evolve_tearing.calls": "count",
    "planar2d.evolve_tearing.s": "s",
    "planar2d.am.starts": "count",
    "planar2d.am.iterations": "count",
    "planar2d.am.stalls": "count",
    "planar2d.am.s": "s",
    "planar2d.am.us_per_iter": "us",
    "planar2d.solve_elastic.calls": "count",
    "planar2d.solve_elastic.us_p50": "us",
    "planar2d.prefix_sweep.s": "s",
    "planar2d.factor_reuse": "ratio",
    "planar2d.cellwise_bulk.s": "s",
    "config.load.s": "s",
    "cli.emit_csv.s": "s",
    "cli.csv_bytes": "B",
    "trace.overhead_frac": "ratio",
}

# (module, attribute, span name) of every wrapped function
FUNCTIONS = (
    ("laws", "relax_bulk_oracle", "laws.relax_oracle"),
    ("bar1d", "total_energy", "bar1d.total_energy"),
    ("solver1d", "incremental_minimize", "solver1d.step"),
    ("solver1d", "griffith_minimize", "solver1d.griffith_step"),
    ("evolution", "evolve", "evolution.evolve"),
    ("scaling", "size_effect_sweep", "scaling.sweep"),
    ("planar2d", "tearing_gap_ladder", "planar2d.gap_ladder"),
    ("planar2d", "evolve_tearing", "planar2d.evolve_tearing"),
    ("planar2d", "alternate_minimize", "planar2d.am"),
    ("planar2d", "solve_elastic", "planar2d.solve_elastic"),
    ("planar2d", "prefix_crack_sweep", "planar2d.prefix_sweep"),
    ("planar2d", "cellwise_bulk", "planar2d.cellwise_bulk"),
    ("config", "load_config", "config.load"),
    ("cli", "main", "cli.main"),
    ("cli", "emit_csv", "cli.emit_csv"),
)

# (module, class, span name) of every wrapped ``__call__``
METHODS = (
    ("laws", "CohesiveLaw", "laws.phi"),
    ("laws", "BulkDensity", "laws.bulk"),
)

# a step's opening exceeds its memory only beyond rounding
_OPENING_TOL = 1e-12


def _module(short: str):
    try:
        return importlib.import_module(f"{PACKAGE}.{short}")
    except ImportError:
        return None


def _package_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _rebind(orig, make_wrapper, skip=None) -> None:
    """Replace every module-level reference to ``orig`` in the package."""
    for mod in _package_modules():
        if mod is skip:
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, make_wrapper(mod))


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self.evolve_calls: list[tuple] = []  # (span, mode, initial crack, trace)
        self._lu_cache = None

    # -- recording -------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None, on_error=None):
        """``fn`` recording one span per call.

        ``after(span, result, arguments)``, with the call's arguments bound
        to their parameter names, and ``on_error(span, exc)`` run outside
        the span, so their cost is not charged to the layer.
        """
        nid = self._intern(name)
        clock = time.perf_counter_ns
        stack = self._stack
        signature = inspect.signature(fn) if after is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self.end[idx] = clock()
                stack.pop()
                if on_error is not None:
                    on_error(idx, exc)
                raise
            self.end[idx] = clock()
            stack.pop()
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(idx, out, bound.arguments)
            return out

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function that the loaded package still has."""
        importlib.import_module(f"{PACKAGE}.cli")  # loads every layer
        hooks = {
            "evolution.evolve": (self._after_evolve, None),
            "planar2d.am": (self._after_am, self._am_error),
            "cli.emit_csv": (self._after_emit, None),
        }
        for short, attr, name in FUNCTIONS:
            mod = _module(short)
            orig = getattr(mod, attr, None) if mod is not None else None
            if orig is None:
                self.absent.append(f"{short}.{attr}")
                continue
            after, on_error = hooks.get(name, (None, None))
            wrapped = self.wrap(name, orig, after, on_error)
            _rebind(orig, lambda _mod, w=wrapped: w)

        for short, cls_name, name in METHODS:
            cls = getattr(_module(short), cls_name, None)
            orig = getattr(cls, "__call__", None) if cls is not None else None
            if orig is None:
                self.absent.append(f"{short}.{cls_name}.__call__")
                continue
            cls.__call__ = self.wrap(name, orig)

        self._install_line_search()

        planar = _module("planar2d")
        system = getattr(planar, "_system", None) if planar is not None else None
        if hasattr(system, "cache_info"):
            self._lu_cache = system
        else:
            self.absent.append("planar2d._system.cache_info")

    def _install_line_search(self) -> None:
        search = _module("search")
        orig = getattr(search, "line_search", None) if search is not None else None
        if orig is None:
            self.absent.append("search.line_search")
            return
        counters = self.counters

        def make_wrapper(mod):
            caller = mod.__name__.rsplit(".", 1)[-1]
            key = f"search.points.{caller}"

            def counted(fn, *args, **kwargs):
                def fn_counted(x):
                    counters[key] += int(np.size(x))
                    return fn(x)
                return orig(fn_counted, *args, **kwargs)

            return self.wrap(f"search.line_search.{caller}", counted)

        _rebind(orig, make_wrapper, skip=search)

    # -- hooks -----------------------------------------------------------

    def _after_evolve(self, idx, trace, arguments) -> None:
        self.evolve_calls.append(
            (idx, arguments.get("mode"), arguments.get("initial_crack"), trace)
        )

    def _after_am(self, idx, result, arguments) -> None:
        self.counters["planar2d.am.iterations"] += int(result.iterations)

    def _am_error(self, idx, exc) -> None:
        iterations = getattr(exc, "iterations", None)
        if iterations is not None:
            self.counters["planar2d.am.stalls"] += 1
            self.counters["planar2d.am.iterations"] += int(iterations)

    def _after_emit(self, idx, out, arguments) -> None:
        path = arguments.get("path")
        if path is not None and os.path.exists(path):
            self.counters["cli.csv_bytes"] += os.path.getsize(path)

    # -- results ---------------------------------------------------------

    def irreversibility_failures(self) -> list[str]:
        """Steps of any returned evolution whose memory shrank."""
        failures = []
        for _, mode, initial, trace in self.evolve_calls:
            before = initial
            for rec in trace.records:
                lost = [s for s, v in before.psi.items() if rec.crack.psi.get(s, 0.0) < v]
                if lost:
                    failures.append(
                        f"{mode} evolution lost memory at t={rec.time:.6g}, sites {lost}"
                    )
                    break
                before = rec.crack
        return failures

    def _branches(self) -> Counter:
        """Classify each cohesive step by the minimizer branch it took."""
        counts = Counter()
        for _, mode, initial, trace in self.evolve_calls:
            if mode != "cohesive":
                continue
            before = initial
            for rec in trace.records:
                open_ = {s: abs(v) for s, v in rec.displacement.jumps.items() if v != 0.0}
                if not open_:
                    counts["elastic"] += 1
                elif any(s not in before.psi for s in open_):
                    counts["fresh"] += 1
                elif any(v > before.psi[s] + _OPENING_TOL for s, v in open_.items()):
                    counts["exceed"] += 1
                else:
                    counts["memory"] += 1
                before = rec.crack
        return counts

    def metrics(self) -> dict:
        """Per-layer metrics except ``trace.overhead_frac``, by name."""
        ids = np.asarray(self.name_id, dtype=np.int32)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end, dtype=np.int64) - np.asarray(self.start, dtype=np.int64)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_ns = dur - children

        def pick(name):
            nid = self._ids.get(name)
            return np.zeros(dur.size, dtype=bool) if nid is None else ids == nid

        def calls(name):
            return float(np.count_nonzero(pick(name)))

        def seconds(name, values=dur):
            return float(values[pick(name)].sum()) / 1e9

        def pct_us(name, q):
            d = dur[pick(name)]
            return float(np.percentile(d, q)) / 1e3 if d.size else 0.0

        out = {
            "solver1d.step.calls": calls("solver1d.step"),
            "solver1d.step.us_p50": pct_us("solver1d.step", 50),
            "solver1d.step.us_p99": pct_us("solver1d.step", 99),
            "solver1d.step.self_s": seconds("solver1d.step", self_ns),
            "solver1d.griffith_step.calls": calls("solver1d.griffith_step"),
            "solver1d.griffith_step.us_p50": pct_us("solver1d.griffith_step", 50),
        }
        for caller in ("solver1d", "planar2d"):
            name = f"search.line_search.{caller}"
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.s"] = seconds(name)
            out[f"search.points.{caller}"] = float(self.counters[f"search.points.{caller}"])
        for name in ("laws.phi", "laws.bulk", "laws.relax_oracle", "bar1d.total_energy"):
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.s"] = seconds(name)

        out["evolution.evolve.calls"] = calls("evolution.evolve")
        out["evolution.evolve.s"] = seconds("evolution.evolve")
        out["evolution.evolve.self_s"] = seconds("evolution.evolve", self_ns)
        out["evolution.steps"] = float(sum(len(c[3].records) for c in self.evolve_calls))
        branches = self._branches()
        for branch in ("elastic", "memory", "exceed", "fresh"):
            out[f"evolution.branch.{branch}"] = float(branches[branch])

        out.update(self._scaling_metrics(dur, parent, pick("scaling.sweep")))

        am_s = seconds("planar2d.am")
        am_iters = float(self.counters["planar2d.am.iterations"])
        out.update({
            "planar2d.evolve_tearing.calls": calls("planar2d.evolve_tearing"),
            "planar2d.evolve_tearing.s": seconds("planar2d.evolve_tearing"),
            "planar2d.am.starts": calls("planar2d.am"),
            "planar2d.am.iterations": am_iters,
            "planar2d.am.stalls": float(self.counters["planar2d.am.stalls"]),
            "planar2d.am.s": am_s,
            "planar2d.am.us_per_iter": 1e6 * am_s / am_iters if am_iters else 0.0,
            "planar2d.solve_elastic.calls": calls("planar2d.solve_elastic"),
            "planar2d.solve_elastic.us_p50": pct_us("planar2d.solve_elastic", 50),
            "planar2d.prefix_sweep.s": seconds("planar2d.prefix_sweep"),
            "planar2d.factor_reuse": self._factor_reuse(),
            "planar2d.cellwise_bulk.s": seconds("planar2d.cellwise_bulk"),
            "config.load.s": seconds("config.load"),
            "cli.emit_csv.s": seconds("cli.emit_csv"),
            "cli.csv_bytes": float(self.counters["cli.csv_bytes"]),
        })
        return out

    def _scaling_metrics(self, dur, parent, sweeps) -> dict:
        """Reference time and largest row share of each size sweep."""
        reference_ns = 0
        share = 0.0
        for sweep in np.flatnonzero(sweeps):
            rows = [
                (mode, float(dur[idx]))
                for idx, mode, _, _ in self.evolve_calls
                if parent[idx] == sweep
            ]
            reference_ns += sum(d for mode, d in rows if mode == "griffith")
            cohesive = [d for mode, d in rows if mode == "cohesive"]
            if cohesive and dur[sweep] > 0:
                share = max(share, max(cohesive) / float(dur[sweep]))
        return {
            "scaling.sweep.s": float(dur[sweeps].sum()) / 1e9,
            "scaling.reference.s": reference_ns / 1e9,
            "scaling.max_row_share": share,
        }

    def _factor_reuse(self) -> float:
        if self._lu_cache is None:
            return 0.0
        info = self._lu_cache.cache_info()
        total = info.hits + info.misses
        return info.hits / total if total else 0.0

    def write(self, path) -> None:
        """Dump every span, columnar, as gzipped JSON."""
        doc = {
            "names": self.names,
            "name": list(self.name_id),
            "parent": list(self.parent),
            "start_ns": list(self.start),
            "end_ns": list(self.end),
            "counters": dict(self.counters),
            "absent": self.absent,
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)
