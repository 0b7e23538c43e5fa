"""Command-line runner: evolve traces, size sweeps, planar runs, checks.

Exit codes: 0 success, 2 configuration error, 3 solver nonconvergence,
4 failed ``--check``.  All CSV output is deterministic (column order
fixed, floats at 12 significant digits), so a rerun with the same
config is byte-identical and the files double as regression fixtures.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from cohesivefrac.config import ConfigError, load_config, read_value
from cohesivefrac.evolution import (
    EvolutionTrace,
    LoadProgram,
    energy_balance_report,
    evolve,
)
from cohesivefrac.laws import BulkDensity, plain_laws, relax_bulk_oracle, rescale_laws
from cohesivefrac.planar2d import (
    Grid2D,
    PlanarNonconvergence,
    PlanarNumericError,
    prefix_crack_sweep,
    solve_elastic,
)
from cohesivefrac.scaling import BarProblem, classify_regime, size_effect_sweep

__all__ = ["main", "emit_csv", "trace_rows"]

TRACE_HEADER = (
    "t", "bulk", "surface", "total",
    "slack", "work", "n_jumps", "max_opening",
)
SWEEP_HEADER = (
    "h", "t", "bulk", "surface", "total",
    "gap_sup", "bulk_gap_sup", "grad_l1", "rupture_bound", "regime",
)
PLANAR_HEADER = ("ell", "bulk", "surface", "total")


def emit_csv(header, rows, path) -> None:
    """Write rows deterministically; an empty run yields a header-only file.

    Strings go out as they are and numbers at 12 significant digits.  That
    one format serves numpy and Python floats alike and writes integers
    below 10**12, such as the ``n_jumps`` column, exactly.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else f"{v:.12g}" for v in row) + "\n")


def trace_rows(trace: EvolutionTrace):
    return list(zip(
        trace.times(),
        trace.bulk,
        trace.surface,
        trace.totals(),
        trace.slack,
        trace.work,
        np.count_nonzero(trace.jumps, axis=1),
        np.max(np.abs(trace.jumps), axis=1, initial=0.0),
    ))


def _trace_checks(trace: EvolutionTrace) -> list[str]:
    # evolve itself raises on a memory that decreases
    failures = []
    slack = float(trace.slack.min())
    if slack < -1e-9:
        failures.append(f"negative minimality slack {slack:.3g}")
    violation = energy_balance_report(trace).cumulative_violation
    if not violation <= 1e-9:
        failures.append(f"cumulative energy-balance violation {violation:.3g}")
    return failures


def _run_trace(args, mode: str) -> int:
    cfg = load_config(args.config)
    cfg.require("domain", "law", "program")
    program_cfg = cfg.program
    if args.delta is not None:
        program_cfg = dataclasses.replace(program_cfg, delta=args.delta)
    domain = cfg.domain.build()
    law = cfg.law.build()
    program = LoadProgram.linear_ramp(program_cfg.horizon, program_cfg.delta, program_cfg.rate)
    trace = evolve(domain, domain.initial_crack_state(), program, plain_laws(law), mode)
    if args.out:
        emit_csv(TRACE_HEADER, trace_rows(trace), args.out)
    if args.check:
        failures = _trace_checks(trace)
        if failures:
            for f in failures:
                print(f"check failed: {f}", file=sys.stderr)
            return 4
    return 0


def _run_sweep(args) -> int:
    cfg = load_config(args.config)
    cfg.require("domain", "law", "program", "sweep")
    sweep = cfg.sweep
    if args.alpha is not None:
        sweep = dataclasses.replace(sweep, alpha=args.alpha)
    if args.h:
        sweep = dataclasses.replace(sweep, h=read_value("sweep", "h", args.h))
    domain = cfg.domain.build()
    law = cfg.law.build()
    rate = cfg.program.rate
    base = BarProblem(domain, law, lambda t: 0.0, lambda t: rate * t, cfg.program.horizon)
    report = size_effect_sweep(base, sweep.alpha, sweep.h)
    regime = classify_regime(report)
    if args.out:
        rows = []
        for r in report.rows:
            tr = r.trace
            for t, bulk, surface, total in zip(tr.times(), tr.bulk, tr.surface, tr.totals()):
                rows.append((
                    r.h, t, bulk, surface, total,
                    r.gap_sup, r.bulk_gap_sup, r.initial_grad_l1, r.rupture_bound,
                    regime.value,
                ))
        emit_csv(SWEEP_HEADER, rows, args.out)
    print(f"regime={regime.value}")
    if args.check and regime.value == "inconclusive":
        return 4
    return 0


def _run_planar(args) -> int:
    cfg = load_config(args.config)
    cfg.require("planar", "law")
    p = cfg.planar
    grid = Grid2D.precracked(p.n, p.crack_length, p.gamma)
    laws = rescale_laws(cfg.law.build(), p.h, p.alpha)
    result = prefix_crack_sweep(grid, p.load, laws, mode=p.mode)
    if args.out:
        rows = list(zip(result.lengths, result.bulk, result.surface, result.total))
        emit_csv(PLANAR_HEADER, rows, args.out)
    print(f"ell={result.best_length:.12g}")
    if args.check:
        ok = bool(np.all(np.diff(result.bulk) <= 1e-12))
        # the swept bulk is the reduced lip form; the rebuilt field must carry it
        bulk = float(result.bulk[result.best_index])
        field = solve_elastic(grid, range(result.best_index), p.load)
        mismatch = abs(laws.bulk_weight * field.edge_bulk() - bulk)
        if not ok or mismatch > 1e-10 * max(1.0, bulk):
            print(f"check failed: compliance monotone {ok}, "
                  f"field bulk mismatch {mismatch:.3g}", file=sys.stderr)
            return 4
    return 0


def _run_relax_check(args) -> int:
    for flag, value in (("--a", args.a), ("--grid", args.grid)):
        if not (value > 0.0 and math.isfinite(value)):
            raise ConfigError(f"{flag} must be positive and finite, got {value}")
    a = args.a
    f = BulkDensity(a)
    xi = np.linspace(-5.0 * a, 5.0 * a, 201)
    try:
        approx = relax_bulk_oracle(lambda x: x * x, a, xi, args.grid)
    except ValueError as err:
        raise ConfigError(f"--grid {args.grid:g}: {err}") from err
    err = float(np.max(np.abs(approx - f(xi))))
    print(f"max_error={err:.12g}")
    return 0 if err < 1e-3 else 4


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cohesivefrac",
        description="Quasistatic cohesive fracture: traces, size sweeps, planar runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", help="CSV output path")
        p.add_argument("--check", action="store_true", help="verify invariants; exit 4 on failure")
        return p

    for name, text in (("evolve", "run the 1D cohesive evolution"),
                       ("griffith", "run the 1D Griffith evolution")):
        add_common(sub.add_parser(name, help=text)).add_argument(
            "--delta", type=float, help="override [program] delta")
    sweep = add_common(sub.add_parser("sweep", help="size-effect sweep with regime verdict"))
    sweep.add_argument("--alpha", type=float, help="override the scaling exponent")
    sweep.add_argument("--h", help="override the size ladder, e.g. 1,10,100")
    add_common(sub.add_parser("planar", help="2D prefix-crack sweep"))

    relax = sub.add_parser("relax-check", help="relaxed bulk density vs grid oracle")
    relax.add_argument("--a", type=float, required=True, help="law slope")
    relax.add_argument("--grid", type=float, default=1e-4, help="oracle grid step")

    args = parser.parse_args(argv)
    try:
        if args.command == "evolve":
            return _run_trace(args, "cohesive")
        if args.command == "griffith":
            return _run_trace(args, "griffith")
        if args.command == "sweep":
            return _run_sweep(args)
        if args.command == "planar":
            return _run_planar(args)
        return _run_relax_check(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (PlanarNonconvergence, PlanarNumericError) as err:
        print(f"solver error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
