"""Command-line runner: bar traces, size sweeps, planar sweeps and evolutions, checks.

Exit codes: 0 success, 2 configuration error, 3 solver nonconvergence,
4 failed ``--check``.  All CSV output is deterministic (column order
fixed, floats at 12 significant digits), so a rerun with the same
config is byte-identical and the files double as regression fixtures.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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
    _edge_openings,
    _lip_bulk,
    _lip_energy,
    evolve_tearing,
    prefix_crack_sweep,
    solve_elastic,
)
from cohesivefrac.scaling import BarProblem, classify_regime, size_effect_sweep

__all__ = ["main", "emit_csv", "trace_columns"]

TRACE_HEADER = (
    "t", "bulk", "surface", "total",
    "slack", "work", "n_jumps", "max_opening",
)
SWEEP_HEADER = (
    "h", "t", "bulk", "surface", "total",
    "gap_sup", "bulk_gap_sup", "grad_l1", "rupture_bound", "regime",
)
PLANAR_HEADER = ("ell", "bulk", "surface", "total")
TEAR_HEADER = (
    "t", "bulk", "surface", "total",
    "slack", "work", "open_edges", "max_memory",
)


def _block_rows(block) -> str:
    """The CSV text of one block: one ``%`` row template, applied once per row."""
    fields, columns = [], []
    for value in block:
        if np.ndim(value):
            fields.append("%.12g")
            columns.append(np.asarray(value).tolist())
        else:
            text = value if isinstance(value, str) else f"{value:.12g}"
            fields.append(text.replace("%", "%%"))
    template = ",".join(fields) + "\n"
    lengths = sorted({len(c) for c in columns})
    if len(lengths) > 1:
        raise ValueError(f"columns of one block differ in length: {lengths}")
    if not columns:
        return template % ()
    return "".join(map(template.__mod__, zip(*columns)))


def emit_csv(header, blocks, path) -> None:
    """Write blocks of rows deterministically; no rows yield a header-only file.

    A block gives one entry per header field.  An array (or list) is a
    column with one value per row; a string or a number is a constant of
    the block, written on each of its rows (a block of constants alone is
    one row).  Each block becomes one ``%`` row template: ``%.12g`` for
    each column, and each constant formatted once into the template's
    text with its ``%`` escaped, so that a row is one ``template % row``
    over the columns' ``tolist()`` values.  Strings go out as they are
    and numbers at 12 significant digits.  That one format serves floats
    and writes integers below 10**12, such as the ``n_jumps`` column,
    exactly.  Every block is formatted before the file is opened:
    columns of unequal length within a block raise ``ValueError`` and
    leave ``path`` untouched.
    """
    text = "".join([",".join(header) + "\n", *map(_block_rows, blocks)])
    with open(path, "w", newline="") as fh:
        fh.write(text)


def trace_columns(trace: EvolutionTrace) -> tuple:
    """The ``TRACE_HEADER`` columns of a trace, one block for :func:`emit_csv`."""
    return (
        trace.times(),
        trace.bulk,
        trace.surface,
        trace.totals(),
        trace.slack,
        trace.work,
        np.count_nonzero(trace.jumps, axis=1),
        np.max(np.abs(trace.jumps), axis=1, initial=0.0),
    )


def _check_exit(failures: list[str], slack: np.ndarray, violation: float) -> int:
    """Exit code of ``--check``: 4, each failure printed, unless there is none.

    To ``failures`` it adds a minimality slack below -1e-9 and a cumulative
    energy-balance violation above 1e-9, or either one not finite.
    """
    worst = float(slack.min())
    if not np.all(np.isfinite(slack)):
        failures.append("minimality slack not finite")
    elif worst < -1e-9:
        failures.append(f"negative minimality slack {worst:.3g}")
    if not -math.inf < violation <= 1e-9:
        failures.append(f"cumulative energy-balance violation {violation:.3g}")
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    return 4 if failures else 0


def _run_trace(args, mode: str) -> int:
    cfg = load_config(args.config)
    cfg.require("domain", "law", "program")
    prog = cfg.program
    domain = cfg.domain.build()
    law = cfg.law.build()
    program = LoadProgram.linear_ramp(prog.horizon, prog.delta, prog.rate)
    trace = evolve(domain, domain.initial_crack_state(), program, plain_laws(law), mode)
    if args.out:
        emit_csv(TRACE_HEADER, [trace_columns(trace)], args.out)
    if args.check:
        # evolve itself raises on a memory that decreases
        violation = energy_balance_report(trace).cumulative_violation
        return _check_exit([], trace.slack, violation)
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
        blocks = [
            (r.h, r.trace.times(), r.trace.bulk, r.trace.surface, r.trace.totals(),
             r.gap_sup, r.bulk_gap_sup, r.initial_grad_l1, r.rupture_bound, regime.value)
            for r in report.rows
        ]
        emit_csv(SWEEP_HEADER, blocks, args.out)
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
        columns = (result.lengths, result.bulk, result.surface, result.total)
        emit_csv(PLANAR_HEADER, [columns], args.out)
    print(f"ell={result.best_length:.12g}")
    if args.check:
        ok = bool(np.all(np.diff(result.bulk) <= 0.0))
        # the swept bulk is the reduced lip form; the rebuilt field must carry it
        bulk = float(result.bulk[result.best_index])
        field = solve_elastic(grid, range(result.best_index), p.load)
        mismatch = abs(laws.bulk_weight * field.edge_bulk() - bulk)
        if not ok or mismatch > 1e-10 * max(1.0, bulk):
            print(f"check failed: compliance monotone {ok}, "
                  f"field bulk mismatch {mismatch:.3g}", file=sys.stderr)
            return 4
    return 0


def _run_tear(args) -> int:
    cfg = load_config(args.config)
    cfg.require("law", "planar", "program")
    p, prog = cfg.planar, cfg.program
    if p.mode != "cohesive":
        raise ConfigError(f"[planar] mode must be cohesive for tear, got {p.mode!r}")
    grid = Grid2D.precracked(p.n, p.crack_length, p.gamma)
    laws = rescale_laws(cfg.law.build(), p.h, p.alpha)
    program = LoadProgram.linear_ramp(prog.horizon, prog.delta, prog.rate)
    steps = evolve_tearing(grid, program.right, laws)
    # each step against the previous state, zero jumps and the precrack first
    n, bw = grid.n, laws.bulk_weight
    jumps, psi, load = np.zeros(n + 1), grid.psi, steps[0].time
    rows, failures = [], []
    for t, step in zip(program.times.tolist(), steps):
        bulk = bw * _lip_bulk(n, step.time, step.nodal_jumps)
        rows.append((t, bulk, step.energy - bulk, step.energy,
                     _lip_energy(Grid2D(n, psi), laws, step.time, jumps) - step.energy,
                     bw * (_lip_bulk(n, step.time, jumps) - _lip_bulk(n, load, jumps)),
                     np.count_nonzero(_edge_openings(step.nodal_jumps)), step.psi.max()))
        if np.any(step.psi < psi):
            failures.append(f"memory decreased at t = {t:.12g}")
        jumps, psi, load = step.nodal_jumps, step.psi, step.time
    columns = np.array(rows).T  # TEAR_HEADER
    if args.out:
        emit_csv(TEAR_HEADER, [columns], args.out)
    if args.check:
        total, slack, work = columns[3:6]
        return _check_exit(failures, slack, float(np.max(total - total[0] - np.cumsum(work))))
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: each parse fills a fresh namespace."""
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

    add_common(sub.add_parser("evolve", help="run the 1D cohesive evolution"))
    add_common(sub.add_parser("griffith", help="run the 1D Griffith evolution"))
    sweep = add_common(sub.add_parser("sweep", help="size-effect sweep with regime verdict"))
    sweep.add_argument("--alpha", type=float, help="override the scaling exponent")
    sweep.add_argument("--h", help="override the size ladder, e.g. 1,10,100")
    add_common(sub.add_parser("planar", help="2D prefix-crack sweep"))
    add_common(sub.add_parser("tear", help="2D incremental tearing evolution"))

    relax = sub.add_parser("relax-check", help="relaxed bulk density vs grid oracle")
    relax.add_argument("--a", type=float, required=True, help="law slope")
    relax.add_argument("--grid", type=float, default=1e-4, help="oracle grid step")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "evolve":
            return _run_trace(args, "cohesive")
        if args.command == "griffith":
            return _run_trace(args, "griffith")
        if args.command == "sweep":
            return _run_sweep(args)
        if args.command == "planar":
            return _run_planar(args)
        if args.command == "tear":
            return _run_tear(args)
        return _run_relax_check(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (PlanarNonconvergence, PlanarNumericError) as err:
        print(f"solver error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
