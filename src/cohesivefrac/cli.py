"""Command-line runner: evolve traces, size sweeps, planar runs, checks.

Exit codes: 0 success, 2 configuration error, 3 solver nonconvergence,
4 failed ``--check``.  All CSV output is deterministic (column order
fixed, floats at 12 significant digits), so a rerun with the same
config is byte-identical and the files double as regression fixtures.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from cohesivefrac.config import ConfigError, load_config
from cohesivefrac.evolution import (
    EvolutionStepError,
    EvolutionTrace,
    LoadProgram,
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
from cohesivefrac.solver1d import BudgetError, NonconvergenceError

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


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def emit_csv(header, rows, path) -> None:
    """Write rows deterministically; an empty run yields a header-only file."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def trace_rows(trace: EvolutionTrace):
    rows = []
    for r in trace.records:
        rows.append((
            r.time,
            r.energy.bulk,
            r.energy.surface,
            r.energy.total,
            r.slack,
            r.work,
            len(r.displacement.jumps),
            r.displacement.max_opening(),
        ))
    return rows


def _trace_checks(trace: EvolutionTrace) -> list[str]:
    failures = []
    for prev, cur in zip(trace.records, trace.records[1:]):
        if not cur.crack.extends(prev.crack):
            failures.append(f"irreversibility violated at t={cur.time:.6g}")
            break
    slacks = trace.slacks()
    if slacks.size and float(slacks.min()) < -1e-9:
        failures.append(f"negative minimality slack {slacks.min():.3g}")
    return failures


def _run_trace(args, mode: str) -> int:
    cfg = load_config(args.config)
    cfg.require("domain", "law", "program")
    domain = cfg.domain.build()
    law = cfg.law.build()
    delta = args.delta if args.delta is not None else cfg.program.delta
    program = LoadProgram.linear_ramp(cfg.program.horizon, delta, cfg.program.rate)
    laws = plain_laws(law)
    trace = evolve(domain, domain.initial_crack_state(), program, laws, mode)
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
    domain = cfg.domain.build()
    law = cfg.law.build()
    alpha = args.alpha if args.alpha is not None else cfg.sweep.alpha
    h_list = _parse_h(args.h) if args.h else cfg.sweep.h
    rate = cfg.program.rate
    base = BarProblem(domain, law, lambda t: 0.0, lambda t: rate * t, cfg.program.horizon)
    report = size_effect_sweep(base, alpha, h_list, cfg.sweep.delta)
    regime = classify_regime(report)
    if args.out:
        rows = []
        for r in report.rows:
            for rec in r.trace.records:
                rows.append((
                    r.h, rec.time,
                    rec.energy.bulk, rec.energy.surface, rec.energy.total,
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
    law = cfg.law.build()
    psi = np.zeros(p.n)
    k = int(round(p.crack_length * p.n))
    psi[:k] = p.gamma
    grid = Grid2D(p.n, psi)
    laws = rescale_laws(law, law.a, p.h, p.alpha)
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


def _parse_h(raw: str):
    try:
        return tuple(float(p) for p in raw.split(",") if p.strip())
    except ValueError as err:
        raise ConfigError(f"--h expects a comma-separated float list, got {raw!r}") from err


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cohesivefrac",
        description="Quasistatic cohesive fracture: traces, size sweeps, planar runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_sweep_flags=False):
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", help="CSV output path")
        p.add_argument("--check", action="store_true", help="verify invariants; exit 4 on failure")
        p.add_argument("--delta", type=float, help="override the time step")
        if with_sweep_flags:
            p.add_argument("--alpha", type=float, help="override the scaling exponent")
            p.add_argument("--h", help="override the size ladder, e.g. 1,10,100")

    add_common(sub.add_parser("evolve", help="run the 1D cohesive evolution"))
    add_common(sub.add_parser("griffith", help="run the 1D Griffith evolution"))
    add_common(sub.add_parser("sweep", help="size-effect sweep with regime verdict"),
               with_sweep_flags=True)
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
    except (NonconvergenceError, BudgetError, EvolutionStepError,
            PlanarNonconvergence, PlanarNumericError) as err:
        print(f"solver error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
