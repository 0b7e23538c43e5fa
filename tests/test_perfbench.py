"""The benchmark harness against this checkout: one traced repetition per workload.

``perfbench/rep.py`` and its tracer reach into the package by name (the
parameter names of ``evolve``, ``EvolutionTrace.records``, the step
solver ``planar2d.alternate_minimize`` and ``PlanarNonconvergence``), so
a rename that the harness does not follow shows up here as a crash, a
failed check or a new absent name.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# tracer targets that the package no longer has; their metrics read 0
ABSENT = {
    "planar2d._system.cache_info",
    "planar2d.cellwise_bulk",
    "search.line_search",
    "solver1d.griffith_minimize",
    "solver1d.incremental_minimize",
}


@pytest.fixture
def run(monkeypatch):
    """``perfbench/run.py`` as a module; the path entry it adds is undone after."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    sys.modules.pop("tracer", None)


def _listing(path: Path):
    return sorted(map(str, path.rglob("*"))) if path.exists() else None


@pytest.mark.parametrize("workload", ["bar", "planar"])
def test_traced_repetition_passes(workload, run, tmp_path):
    scale, parts = run.inputs(workload, 0)
    work, spans = tmp_path / "work", tmp_path / "spans.json.gz"
    work.mkdir()
    spec = {"parts": parts, "trace": True, "work": str(work), "spans": str(spans)}
    out_before = _listing(run.OUT)
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "rep.py"), json.dumps(spec)],
        cwd=run.ROOT, env=run.child_env(), stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout.splitlines()[-1])
    assert rep["failed"] == 0 and rep["problems"] == [], rep["problems"]
    assert set(rep["absent"]) <= ABSENT, rep["absent"]
    assert run.consistency_problems(parts, scale, [rep]) == []
    assert spans.exists() and _listing(run.OUT) == out_before
