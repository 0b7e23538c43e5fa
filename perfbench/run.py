"""cohesivefrac benchmark: time to a checked result, end to end and by layer.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload bar --seed 0 --seconds 60 --trace 0

Each repetition is a fresh single-threaded process (``rep.py``) that runs
each part of the workload once, in order, through a public entry point
and checks every result.  Repetitions run one at a time until
``--seconds`` are used up (at least ``MIN_REPS``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics over repetitions: ``wall_s`` is
  the mean, the others are medians.
* ``--trace 1``: untraced and traced repetitions alternate; the metrics
  are the per-layer ones (medians over traced repetitions) plus
  ``trace.overhead_frac``, traced over untraced mean wall time minus 1.

The full record of a run (machine, inputs, every repetition) goes to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``, and the spans of
each traced repetition next to it.

Workloads (why each was chosen is in ``WORKLOADS``), each made of two
parts:

* ``bar``: the 1D code.
  * ``bar_ladder``: ``cohesivefrac sweep --check`` on the brittle ladder.
  * ``relax_check``: ``cohesivefrac relax-check`` per slope, the grid
    oracle of the relaxed-density gate.
* ``planar``: the planar code.
  * ``planar_tearing``: ``planar2d.tearing_gap_ladder``, alternate
    minimization over the elastic-limit ladder.
  * ``planar_prefix``: ``cohesivefrac planar --check``, one elastic solve
    and factorization per prefix crack.

Two workloads rather than one per part, because a shared host's speed
shifts, by up to 2x, for a minute or more at a time: a run has to be
long to average that out, and the runs of every workload must fit one
time budget together.

Seed 0 gives the acceptance-fixture slopes; any other seed scales every
slope by one of ``SLOPE_SCALES``, a band in which every check holds.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from tracer import METRICS as LAYER_METRICS  # noqa: E402

# seed 0 uses 1.0; the others draw from this band just below the
# fixtures, where planar_tearing does the same AM work at every scale
# (515-517 energy evaluations; above 1.0 it climbs to 540 by 1.0015), so
# that a seed changes the inputs but not the amount of work timed
SLOPE_SCALES = (0.997, 0.9975, 0.998, 0.9985, 0.999)

# The acceptance fixtures, shrunk where one repetition would otherwise
# take 13-17 s (or 1.7 GB at n=128): with several fresh-process
# repetitions per run, medians stay steady within the run length.
PARTS = {
    "bar_ladder": {"elements": 4, "a": 2.0, "horizon": 2.0, "alpha": 0.5,
                   "h": "1,10,100,1000", "final_gap": 0.05},
    "relax_check": {"slopes": [0.5, 2.0, 10.0], "grid": 2e-4},
    "planar_tearing": {"a": 2.0, "alpha": 0.25, "h": [1.0, 10.0, 100.0, 1000.0], "n": 32,
                       "crack_length": 0.5, "gamma": 0.1,
                       "times": [0.2, 0.4, 0.6, 0.8, 1.0], "final_gap": 0.1},
    "planar_prefix": {"a": 2.0, "n": 64, "load": 0.3, "crack_length": 0.5, "gamma": 0.1},
}

WORKLOADS = {
    "bar": {
        "why": ("1D only: cohesive steps, line search, evolutions and sweep rows of the "
                "brittle ladder, then the relaxed-density grid oracle"),
        "parts": ("bar_ladder", "relax_check"),
    },
    "planar": {
        "why": ("planar only: alternate minimization reusing factorizations, then a "
                "prefix-crack sweep factorizing afresh per solve"),
        "parts": ("planar_tearing", "planar_prefix"),
    },
}

# best objective at the commit that added this benchmark, per part and
# slope scale; a run whose objective is higher by more than solver
# precision found a worse minimum
REFERENCE_OBJECTIVE = {
    "bar_ladder": dict.fromkeys((*SLOPE_SCALES, 1.0), 1485.9355954574141),
    "planar_tearing": {
        0.997: 123.21851142316083, 0.9975: 123.22764436806631, 0.998: 123.23677817177943,
        0.9985: 123.24591287606478, 0.999: 123.25504825436403, 1.0: 123.27332174014461,
    },
    "planar_prefix": {
        0.997: 0.455478813525, 0.9975: 0.455528872355, 0.998: 0.455578931184,
        0.9985: 0.455628990014, 0.999: 0.455679048843, 1.0: 0.455779166502,
    },
}
OBJECTIVE_RTOL = 1e-6

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "passed_frac": "ratio"}

MIN_REPS = 3          # per kind of repetition: determinism needs repeats
REP_TIMEOUT_S = 150   # one repetition; the whole run must end within 180 s
RUN_LIMIT_S = 170


def inputs(workload: str, seed: int) -> tuple[float, dict]:
    """(slope scale, parameters per part) for a seed; seed 0 is the fixture."""
    scale = 1.0 if seed == 0 else random.Random(seed).choice(SLOPE_SCALES)
    parts = {}
    for part in WORKLOADS[workload]["parts"]:
        params = parts[part] = dict(PARTS[part])
        if "a" in params:
            params["a"] = round(params["a"] * scale, 12)
        if "slopes" in params:
            params["slopes"] = [round(a * scale, 12) for a in params["slopes"]]
    return scale, parts


def machine() -> dict:
    """Processor count, model and caches of the host running the benchmark."""
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None,
            )
    except OSError:
        info["cpu"] = None
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    info["caches"] = caches
    return info


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("COHESIVEFRAC_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def run_rep(parts, trace, index, tag, env, timeout) -> dict:
    """One repetition in a fresh process; a crash is a failed repetition."""
    work = OUT / "work" / f"{tag}-{index}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec = {"parts": parts, "trace": trace, "work": str(work),
            "spans": str(OUT / f"{tag}-rep{index}.spans.json.gz")}
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "rep.py"), json.dumps(spec)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            raise RuntimeError(f"repetition exited with {proc.returncode}")
        rep = json.loads(lines[-1])
        rep["setup_s"] = json.loads(lines[0])["ready"] - spawned
    except (subprocess.TimeoutExpired, RuntimeError, ValueError, KeyError) as err:
        rep = {"attempted": 1, "failed": 1, "problems": [f"repetition {index}: {err}"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    rep["trace"] = trace
    return rep


def consistency_problems(parts, scale, reps) -> list[str]:
    """Repeats must agree byte for byte and reach the reference objectives."""
    done = [r for r in reps if "digest" in r]
    problems = []
    if len({r["digest"] for r in done}) > 1:
        problems.append("repetitions wrote different outputs")
    for part in parts:
        objectives = {r["objective"][part] for r in done}
        if len(objectives) > 1:
            problems.append(f"repetitions disagree on the {part} objective: "
                            f"{sorted(map(repr, objectives))}")
        ref = REFERENCE_OBJECTIVE.get(part, {}).get(scale)
        for obj in objectives:
            if ref is not None and (obj is None
                                    or obj > ref + OBJECTIVE_RTOL * max(1.0, abs(ref))):
                problems.append(f"{part} objective {obj!r} above the reference {ref!r}")
    return problems


def median_of(reps, key):
    values = [r[key] for r in reps if key in r]
    return statistics.median(values) if values else None


def mean_wall_s(reps):
    """Mean wall time of the repetitions.

    The mean rather than the median: the host's speed switches between
    levels up to 2x apart, each held for tens of seconds or more.  When
    a run straddles a switch, the median jumps to whichever level holds
    most repetitions, while the mean moves with the time spent at each.
    """
    return statistics.fmean(r["wall_s"] for r in reps)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "cohesivefrac" / "__init__.py").is_file():
        print(f"no cohesivefrac sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    began = time.monotonic()
    scale, parts = inputs(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    env = child_env()
    kinds = [False, True] if args.trace else [False]

    reps: list[dict] = []
    while True:
        trace = kinds[len(reps) % len(kinds)]
        same = [r["elapsed"] for r in reps if r["trace"] == trace]
        elapsed = time.monotonic() - began
        if len(same) >= MIN_REPS:
            if elapsed + statistics.median(same) > args.seconds:
                break
        if elapsed + (max(same) if same else 0.0) > RUN_LIMIT_S - 10:
            break
        t0 = time.monotonic()
        rep = run_rep(parts, trace, len(reps), tag, env,
                      min(REP_TIMEOUT_S, RUN_LIMIT_S - elapsed))
        rep["elapsed"] = time.monotonic() - t0
        reps.append(rep)
        print(f"rep {len(reps) - 1} trace={int(trace)} wall_s={rep.get('wall_s')} "
              f"setup_s={rep.get('setup_s')} problems={rep['problems']}", flush=True)

    ok = [r for r in reps if "wall_s" in r]
    plain = [r for r in ok if not r["trace"]]
    traced = [r for r in ok if r["trace"]]
    if not plain or (args.trace and not traced):
        print("no repetition produced a result", file=sys.stderr)
        return 3
    problems = [p for r in reps for p in r["problems"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    mismatch = consistency_problems(parts, scale, reps)
    if mismatch:
        # every repetition shares the objective and outputs in question
        problems += mismatch
        failed = attempted

    if args.trace:
        units = LAYER_METRICS
        values = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in units if name != "trace.overhead_frac"
        }
        values["trace.overhead_frac"] = (
            mean_wall_s(traced) / mean_wall_s(plain) - 1.0
        )
        absent = sorted({a for r in traced for a in r["absent"]})
        if absent:
            print(f"absent (their metrics read 0): {', '.join(absent)}")
    else:
        units = END_TO_END
        values = {
            "wall_s": mean_wall_s(plain),
            "setup_s": median_of(plain, "setup_s"),
            "peak_rss_mb": median_of(plain, "peak_rss_mb"),
            "passed_frac": 1.0 - failed / attempted,
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    objective = ok[0].get("objective")
    print(f"objective={objective!r} slope_scale={scale} reps={len(reps)}")
    for p in problems:
        print(f"check failed: {p}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "slope_scale": scale,
              "params": parts, "machine": {**machine(), **ok[0]["versions"]},
              "objective": objective, "problems": problems, "reps": reps, "result": result}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
