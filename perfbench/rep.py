"""One repetition of one benchmark workload, in a fresh process.

Usage: ``python3 perfbench/rep.py '<json spec>'`` (``run.py`` builds the
spec).  The process imports the package, writes the inputs of every
part of the workload, prints a ``ready`` line with the monotonic clock,
calls each part's public entry point once, in order, under one wall
clock, checks every result, and prints one JSON line as the last line of
its standard output:

    {"wall_s", "part_wall_s", "peak_rss_mb", "attempted", "failed",
     "objective", "digest", "problems", "absent", "versions", "layers"}

``attempted`` and ``failed`` add up over the parts, ``objective`` maps
each part to its objective, and ``digest`` fingerprints the outputs of
every part so repetitions can be compared for byte identity.  The parts
share no cache: the planar ones are keyed by a mesh size they do not
share.  With ``"trace": true`` the layer functions are
wrapped by :class:`tracer.Tracer`, the spans are written to
``spec["spans"]`` and ``layers`` holds the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

# an AM energy trace may wobble by rounding, never rise (as in the tests)
AM_RISE_TOL = 1e-9
# gap sequences are nonincreasing up to this noise (as in the tests)
GAP_TOL = 1e-6
# points the relax-check subcommand compares per slope
RELAX_POINTS = 201

BAR_INI = """\
[domain]
elements = {elements}

[law]
kind = dugdale
a = {a!r}

[program]
horizon = {horizon!r}

[sweep]
"""

PLANAR_INI = """\
[law]
kind = dugdale
a = {a!r}

[planar]
n = {n}
load = {load!r}
mode = cohesive
crack_length = {crack_length!r}
gamma = {gamma!r}
h = 1
"""


def _cli(main, argv):
    """Run a CLI subcommand in-process; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _read_csv(path: Path):
    """(rows as dicts, sha256 of the bytes); no rows if the file is missing."""
    if not path.exists():
        return [], ""
    data = path.read_bytes()
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    return rows, hashlib.sha256(data).hexdigest()


def _nonincreasing(values) -> bool:
    return all(b <= a + GAP_TOL for a, b in zip(values, values[1:]))


class BarLadder:
    """``cohesivefrac sweep --check`` over a brittle (alpha = 1/2) size ladder."""

    def __init__(self, p, work: Path):
        from cohesivefrac import cli

        self.main = cli.main
        self.config = work / "run.ini"
        self.out = work / "sweep.csv"
        self.config.write_text(BAR_INI.format(**p))
        self.argv = [
            "sweep", "--config", str(self.config), "--alpha", repr(p["alpha"]),
            "--h", p["h"], "--check", "--out", str(self.out),
        ]
        self.final_gap = p["final_gap"]

    def run(self):
        return _cli(self.main, self.argv)

    def check(self, result, problems):
        code, text = result
        if code != 0:
            problems.append(f"sweep exited with {code}")
        if "regime=brittle_limit" not in text.split():
            problems.append(f"expected regime=brittle_limit, got {text.strip()!r}")
        rows, digest = _read_csv(self.out)
        gaps = {}
        for row in rows:
            gaps.setdefault(row["h"], float(row["gap_sup"]))
        gaps = list(gaps.values())
        if not gaps:
            problems.append("sweep wrote no rows")
        elif not (_nonincreasing(gaps) and gaps[-1] < self.final_gap):
            problems.append(f"gap_sup per row {gaps} not nonincreasing to < {self.final_gap}")
        objective = sum(float(row["total"]) for row in rows) if rows else None
        return len(rows), len(rows) if problems else 0, objective, digest


class PlanarTearing:
    """``planar2d.tearing_gap_ladder``: AM tearing evolutions over an elastic-limit ladder."""

    def __init__(self, p, work: Path):
        from cohesivefrac import planar2d
        from cohesivefrac.laws import CohesiveLaw, LawKind

        self.p = p
        self.planar2d = planar2d
        self.law = CohesiveLaw(LawKind.DUGDALE, p["a"])
        self.starts = []   # (AM result or None if it stalled)
        self.steps = []    # step lists returned by evolve_tearing
        self._capture()

    def _capture(self):
        # observe AM starts and tearing steps without changing the call path
        planar2d = self.planar2d
        am, tearing = planar2d.alternate_minimize, planar2d.evolve_tearing
        stall = planar2d.PlanarNonconvergence

        def alternate_minimize(*args, **kwargs):
            try:
                res = am(*args, **kwargs)
            except stall:
                self.starts.append(None)
                raise
            self.starts.append(res)
            return res

        def evolve_tearing(*args, **kwargs):
            steps = tearing(*args, **kwargs)
            self.steps.append(steps)
            return steps

        planar2d.alternate_minimize = alternate_minimize
        planar2d.evolve_tearing = evolve_tearing

    def run(self):
        p = self.p
        return self.planar2d.tearing_gap_ladder(
            self.law, p["alpha"], p["h"], n=p["n"], crack_length=p["crack_length"],
            gamma=p["gamma"], times=p["times"],
        )

    def check(self, gaps, problems):
        import numpy as np

        gaps = [float(g) for g in gaps]
        if not (_nonincreasing(gaps) and gaps[-1] < self.p["final_gap"]):
            problems.append(f"gaps {gaps} not nonincreasing to < {self.p['final_gap']}")
        if len(self.steps) != len(gaps):
            problems.append(f"{len(self.steps)} tearing evolutions for {len(gaps)} sizes")
        # a wrong ladder fails every start; otherwise count bad starts
        bad = len(self.starts) if problems else sum(
            res is None or bool(np.any(np.diff(res.energies) > AM_RISE_TOL))
            for res in self.starts
        )
        if bad and not problems:
            problems.append(f"{bad} of {len(self.starts)} AM starts stalled or rose in energy")
        energies = [st.energy for steps in self.steps for st in steps]
        objective = float(sum(energies))
        digest = hashlib.sha256(
            np.asarray(gaps).tobytes() + np.asarray(energies).tobytes()
        ).hexdigest()
        return len(self.starts), bad, objective, digest


class PlanarPrefix:
    """``cohesivefrac planar --check``: the exhaustive prefix-crack sweep."""

    def __init__(self, p, work: Path):
        from cohesivefrac import cli

        self.main = cli.main
        self.config = work / "run.ini"
        self.out = work / "sweep2d.csv"
        self.config.write_text(PLANAR_INI.format(**p))
        self.argv = ["planar", "--config", str(self.config), "--check", "--out", str(self.out)]

    def run(self):
        return _cli(self.main, self.argv)

    def check(self, result, problems):
        code, text = result
        if code != 0:
            problems.append(f"planar exited with {code}: {text.strip()!r}")
        rows, digest = _read_csv(self.out)
        best = text.split("ell=", 1)[-1].strip() if "ell=" in text else None
        totals = [float(row["total"]) for row in rows if best is not None
                  and abs(float(row["ell"]) - float(best)) <= 1e-9]
        if len(totals) != 1:
            problems.append(f"no single CSV row at the reported best length {best!r}")
        objective = totals[0] if len(totals) == 1 else None
        return len(rows), len(rows) if problems else 0, objective, digest


class RelaxCheck:
    """``cohesivefrac relax-check`` per slope: the relaxed-density gate."""

    def __init__(self, p, work: Path):
        from cohesivefrac import cli

        self.main = cli.main
        self.argvs = [
            ["relax-check", "--a", repr(a), "--grid", repr(p["grid"])] for a in p["slopes"]
        ]

    def run(self):
        return [_cli(self.main, argv) for argv in self.argvs]

    def check(self, results, problems):
        failed = 0
        for argv, (code, text) in zip(self.argvs, results):
            if code != 0:
                # the subcommand reports only its worst point, so a failing
                # slope counts all of its points as failed
                failed += RELAX_POINTS
                problems.append(f"relax-check --a {argv[2]} exited with {code}: {text.strip()!r}")
        digest = hashlib.sha256("".join(text for _, text in results).encode()).hexdigest()
        return RELAX_POINTS * len(results), failed, None, digest


PARTS = {
    "bar_ladder": BarLadder,
    "planar_tearing": PlanarTearing,
    "planar_prefix": PlanarPrefix,
    "relax_check": RelaxCheck,
}


def main() -> None:
    spec = json.loads(sys.argv[1])
    work = Path(spec["work"])
    parts = {}
    for name, params in spec["parts"].items():
        (work / name).mkdir()
        parts[name] = PARTS[name](params, work / name)
    print(json.dumps({"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}), flush=True)

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    results, part_wall = {}, {}
    t0 = time.perf_counter()
    for name, part in parts.items():
        t_part = time.perf_counter()
        results[name] = part.run()
        part_wall[name] = time.perf_counter() - t_part
    wall = time.perf_counter() - t0

    problems: list[str] = []
    attempted = failed = 0
    objective, digests = {}, []
    for name, part in parts.items():
        found: list[str] = []
        n, bad, objective[name], digest = part.check(results[name], found)
        attempted += n
        failed += bad
        digests.append(digest)
        problems.extend(f"{name}: {p}" for p in found)
    digest = hashlib.sha256(" ".join(digests).encode()).hexdigest()
    layers = None
    if tracer is not None:
        lost = tracer.irreversibility_failures()
        if lost:
            problems.extend(lost)
            failed = attempted
        layers = tracer.metrics()
        tracer.write(spec["spans"])

    import numpy
    import scipy

    print(json.dumps({
        "wall_s": wall,
        "part_wall_s": part_wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "objective": objective,
        "digest": digest,
        "problems": problems,
        "absent": tracer.absent if tracer is not None else [],
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "layers": layers,
    }))


if __name__ == "__main__":
    main()
