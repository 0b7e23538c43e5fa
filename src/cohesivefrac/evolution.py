"""Quasistatic evolution driver for the cohesive bar.

Each step globally minimizes the incremental energy at the current
boundary data, then folds the new openings into the irreversibility
memory.  Boundary data is sampled exactly at the grid points; nothing is
interpolated in time.  A brittle (griffith) mode runs the same loop with
a unit cost per broken site instead of the cohesive surface density and
serves as an independent reference for the size-effect limits.

The state carried from step to step is the opening memory over the jump
sites of the bar.  Every step's minimizer has one uniform slope and
jumps only at jump sites (see :mod:`cohesivefrac.solver1d`), so the
loop works on floats, every energy has a closed form in the slope and
the memory, and the trace is stored as columns.

Diagnostics follow the discrete energy inequality: each step is compared
against the translated previous state (slack, nonnegative by
minimality), and the external work is accumulated with the left-endpoint
rule so the cumulative inequality

    E(t_i) <= E(0) + sum work + remainder

holds with a remainder quadratic in the data increments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from cohesivefrac.bar1d import (
    CrackState,
    Displacement1D,
    Domain1D,
    EnergyBreakdown,
    make_displacement,
)
from cohesivefrac.laws import RescaledLaws
from cohesivefrac.solver1d import _cohesive_path, _griffith_path

__all__ = [
    "LoadProgram",
    "StepRecord",
    "EvolutionTrace",
    "evolve",
    "energy_balance_report",
    "BalanceReport",
    "first_crack_time",
]

MODES = ("cohesive", "griffith")


@dataclass(frozen=True)
class LoadProgram:
    """Boundary data sampled on a strictly increasing time grid from 0 to T."""

    times: np.ndarray
    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        left = np.asarray(self.left, dtype=float)
        right = np.asarray(self.right, dtype=float)
        if times.ndim != 1 or times.size < 1:
            raise ValueError("time grid must be a nonempty 1d array")
        if times[0] != 0.0:
            raise ValueError("time grid must start at 0")
        if times.size > 1 and not np.all(np.diff(times) > 0.0):
            raise ValueError("time grid must be strictly increasing")
        if left.shape != times.shape or right.shape != times.shape:
            raise ValueError("boundary samples must match the time grid")
        # a finite datum right - left has finite samples on both sides
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(times).all() and np.isfinite(right - left).all()
        if not finite:
            raise ValueError("program values and the datum right - left must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @staticmethod
    def sampled(g_left, g_right, horizon: float, delta: float) -> "LoadProgram":
        """Sample callables on the uniform grid with max step strictly below delta."""
        if not (0.0 < horizon < math.inf and 0.0 < delta < math.inf):
            raise ValueError("horizon and delta must be positive and finite")
        n = math.ceil(horizon / delta)
        if horizon / n >= delta:
            n += 1
        times = np.linspace(0.0, horizon, n + 1)
        return LoadProgram(
            times,
            np.array([float(g_left(t)) for t in times.tolist()]),
            np.array([float(g_right(t)) for t in times.tolist()]),
        )

    @staticmethod
    def linear_ramp(horizon: float, delta: float, rate: float = 1.0) -> "LoadProgram":
        """The standard tearing program g(t) = (0, rate * t)."""
        return LoadProgram.sampled(lambda t: 0.0, lambda t: rate * t, horizon, delta)

    def pair(self, i: int) -> tuple[float, float]:
        return float(self.left[i]), float(self.right[i])

    def deltas(self) -> np.ndarray:
        return self.right - self.left


@dataclass(frozen=True)
class StepRecord:
    """One step of a trace as objects (see :attr:`EvolutionTrace.records`)."""

    time: float
    displacement: Displacement1D
    crack: CrackState
    energy: EnergyBreakdown
    slack: float
    work: float


@dataclass(frozen=True, eq=False)
class EvolutionTrace:
    """An evolution stored as columns, one row per grid time of ``program``.

    ``slope`` is each step's uniform slope, ``jumps`` its oriented jump at
    each site of ``domain.jump_sites()`` and ``psi`` the memory after the
    step (both of shape ``(steps, sites)``).  ``bulk`` and ``surface`` are
    the step energies, ``slack`` the energy of the translated previous
    state (the competitor of the energy-inequality proof) minus the
    step's, and ``work`` the left-endpoint work increment.
    """

    domain: Domain1D
    laws: RescaledLaws
    mode: str
    program: LoadProgram
    slope: np.ndarray
    jumps: np.ndarray
    psi: np.ndarray
    bulk: np.ndarray
    surface: np.ndarray
    slack: np.ndarray
    work: np.ndarray

    def times(self) -> np.ndarray:
        return self.program.times

    def totals(self) -> np.ndarray:
        return self.bulk + self.surface

    @functools.cached_property
    def records(self) -> tuple[StepRecord, ...]:
        """The columns as one :class:`StepRecord` per step, built on first use.

        For readers that want objects; the package itself reads only the
        columns.
        """
        sites = self.domain.jump_sites()
        rows = []
        for i, t in enumerate(self.times().tolist()):
            oriented = {s: j for s, j in zip(sites, self.jumps[i].tolist()) if j != 0.0}
            rows.append(StepRecord(
                time=t,
                displacement=make_displacement(
                    self.domain, self.program.pair(i), self.slope[i], oriented
                ),
                crack=CrackState(dict(zip(sites, self.psi[i].tolist()))),
                energy=EnergyBreakdown(float(self.bulk[i]), float(self.surface[i])),
                slack=float(self.slack[i]),
                work=float(self.work[i]),
            ))
        return tuple(rows)


def evolve(
    domain: Domain1D,
    initial_crack: CrackState,
    program: LoadProgram,
    laws: RescaledLaws,
    mode: str = "cohesive",
) -> EvolutionTrace:
    """Run the incremental minimization scheme over the whole program.

    In cohesive mode one path on floats runs every step
    (:func:`cohesivefrac.solver1d._cohesive_path`), each updating the
    memory to ``psi' = psi v |jump|``.  In griffith mode the whole path has a closed
    form (:func:`cohesivefrac.solver1d._griffith_path`) and the memory is
    the running maximum of the openings.  The energies are closed forms
    in the slope and the memory: bulk
    ``bw L f(slope)`` (``f`` the square in griffith mode) and surface
    ``sw sum phi(psi')``, summed site by site in site order (``sw`` times
    the number of cracked sites in griffith mode).  Priced with ``psi'``
    they equal the step's functional, which uses the memory before the
    step, because ``|jump| v psi`` is ``psi'``.  Memory at a site that is
    not a node of the bar raises ``ValueError`` before any step; raises
    ``RuntimeError`` if the memory ever decreases.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    off = sorted(s for s in initial_crack.sites if not domain.is_jump_site(s))
    if off:
        raise ValueError(f"memory at sites {off} off the bar, "
                         f"whose sites are 0..{domain.n_elements}")
    L = domain.length
    sites = domain.jump_sites()
    deltas = program.deltas()

    psi = [initial_crack.value(s) for s in sites]
    if mode == "griffith":
        slope, jumps = _griffith_path(laws, L, deltas, psi)
        memory = np.maximum.accumulate(np.vstack([psi, np.abs(jumps)]))
    else:
        slope, jumps, memory = _cohesive_path(laws, L, deltas, psi)
        memory = np.vstack([psi, memory])
    if not np.all(np.diff(memory, axis=0) >= 0.0):
        raise RuntimeError("irreversibility violated: an opening memory decreased")

    # surface energy of every memory row, the initial one first
    bw, sw = laws.bulk_weight, laws.surface_weight
    if mode == "griffith":
        density, density_deriv = np.square, lambda x: 2.0 * x
        surface = sw * np.count_nonzero(memory > 0.0, axis=1)
    else:
        density, density_deriv = laws.bulk, laws.bulk.deriv
        surface = np.zeros(memory.shape[0])
        for cost in laws.phi(memory).T:
            surface += cost
        surface = sw * surface
    bulk = bw * (L * density(slope))
    dgrad = np.diff(deltas) / L
    # the translated previous state keeps its jumps, which the memory
    # before the step covers, so that memory prices its surface
    competitor = np.concatenate([deltas[:1] / L, slope[:-1] + dgrad])
    slack = (bw * (L * density(competitor)) + surface[:-1]) - (bulk + surface[1:])
    work = np.concatenate([[0.0], bw * (L * density_deriv(slope[:-1]) * dgrad)])
    return EvolutionTrace(
        domain, laws, mode, program, slope, jumps, memory[1:], bulk, surface[1:], slack, work
    )


@dataclass(frozen=True)
class BalanceReport:
    """Discrete energy-inequality diagnostics for a completed trace.

    The per-step minimality slack is the trace's own ``slack`` column.
    """

    cumulative_violation: float
    griffith_deviation: np.ndarray | None


def energy_balance_report(trace: EvolutionTrace) -> BalanceReport:
    """Check E(t_i) <= E(0) + cumulative work + remainder along the trace.

    The data increments are those of ``trace.program``.  The remainder
    collects the quadratic term in them plus the over-threshold linear
    term where the previous gradient sits on the affine branch of the
    bulk density.  In griffith mode the work
    increments are exactly 2 <grad u, grad dg>, so the deviation from the
    energy equality of the brittle evolution is reported as well.
    """
    laws = trace.laws
    L = trace.domain.length
    bw = laws.bulk_weight
    dgrad = np.diff(trace.program.deltas()) / L
    rem = bw * L * dgrad * dgrad
    if trace.mode == "cohesive":
        prev = trace.slope[:-1]
        over = bw * (L * np.abs(laws.bulk.deriv(prev)) * np.abs(dgrad))
        rem += np.where(np.abs(prev) > laws.bulk.threshold, over, 0.0)
    remainders = np.concatenate([[0.0], rem])

    totals = trace.totals()
    bound = totals[0] + np.cumsum(trace.work) + np.cumsum(remainders)
    violation = float(np.max(totals - bound))

    deviation = None
    if trace.mode == "griffith":
        deviation = totals - totals[0] - np.cumsum(trace.work)

    return BalanceReport(cumulative_violation=violation, griffith_deviation=deviation)


def first_crack_time(trace: EvolutionTrace) -> float | None:
    """Time of the first step whose displacement carries a nonzero jump."""
    cracked = np.flatnonzero(np.any(trace.jumps != 0.0, axis=1))
    return float(trace.times()[cracked[0]]) if cracked.size else None
