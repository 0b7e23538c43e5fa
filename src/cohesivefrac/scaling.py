"""Size-effect harness for the cohesive bar.

A base problem posed on a unit-order domain is dilated by a factor h
with boundary data amplified by h^alpha.  Pulled back to the fixed
domain, the dilation only changes the laws and the energy weights
(:func:`cohesivefrac.laws.rescale_laws`); the physical large domain is
never meshed.  Sweeping h then probes which limit the normalized
evolutions approach:

* alpha = 1/2: totals approach the brittle (griffith) evolution;
* alpha < 1/2: the normalized bulk approaches the elastic minimum with
  free openings on the saturated initial crack;
* alpha > 1/2: immediate rupture, with a hard per-h bound on the
  initial gradient.

Classification never asserts beyond tolerances: convergence holds in
the limit, with no rate, so gaps are checked for monotonicity within
noise (``MONOTONE_TOL``, by :func:`nonincreasing`) plus a final-gap
threshold (``GAP_TOL`` for the brittle gap, ``BULK_TOL`` for the
elastic bulk gap, ``BOUND_SLACK`` above the rupture bound), fixed for
every sweep.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from cohesivefrac.bar1d import Domain1D
from cohesivefrac.evolution import EvolutionTrace, LoadProgram, evolve
from cohesivefrac.laws import CohesiveLaw, LawKind, plain_laws, rescale_laws

__all__ = [
    "BarProblem",
    "RegimeRow",
    "ScalingReport",
    "Regime",
    "size_effect_sweep",
    "classify_regime",
    "nonincreasing",
    "half_saturation_opening",
    "uniform_bound_constant",
    "total_variation_constant",
    "piecewise_constant_minimum",
    "trace_jump_counts",
]

# last brittle gap and last elastic bulk gap below which the limit is reached
GAP_TOL = 0.05
BULK_TOL = 0.1
# noise allowed when a gap grows from one size to the next
MONOTONE_TOL = 1e-6
# rounding allowed above the hard rupture bound on the initial gradient
BOUND_SLACK = 1e-9
# smallest opening counted as a jump
JUMP_TOL = 1e-12
# time step at which the energy and variation bounds sample the data
BOUND_DELTA = 1e-3


@dataclass(frozen=True)
class BarProblem:
    """Unit-order bar, cohesive law, and boundary program to be dilated."""

    domain: Domain1D
    law: CohesiveLaw
    g_left: Callable[[float], float]
    g_right: Callable[[float], float]
    horizon: float

    def __post_init__(self):
        if not 0.0 < self.horizon < math.inf:
            raise ValueError("horizon must be positive and finite")

    def program(self, delta: float) -> LoadProgram:
        return LoadProgram.sampled(self.g_left, self.g_right, self.horizon, delta)

    @staticmethod
    def tearing(domain: Domain1D, law: CohesiveLaw, horizon: float = 2.0) -> "BarProblem":
        return BarProblem(domain, law, lambda t: 0.0, lambda t: t, horizon)


@dataclass(frozen=True)
class RegimeRow:
    """One h of the sweep: the full trace plus its regime diagnostics."""

    h: float
    trace: EvolutionTrace
    gap_sup: float
    bulk_gap_sup: float
    initial_grad_l1: float
    rupture_bound: float
    max_total: float
    max_tv: float

    def __post_init__(self):
        for name in ("gap_sup", "bulk_gap_sup", "initial_grad_l1", "rupture_bound", "max_total", "max_tv"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")


@dataclass(frozen=True)
class ScalingReport:
    alpha: float
    rows: tuple[RegimeRow, ...]


class Regime(enum.Enum):
    BRITTLE_LIMIT = "brittle_limit"
    ELASTIC_LIMIT = "elastic_limit"
    RUPTURE = "rupture"
    INCONCLUSIVE = "inconclusive"


def _pc_interp(times: np.ndarray, values: np.ndarray, query: np.ndarray) -> np.ndarray:
    # right-continuous step interpolation, the in-time reading of a trace
    idx = np.clip(np.searchsorted(times, query, side="right") - 1, 0, values.size - 1)
    return values[idx]


def _total_variation(trace: EvolutionTrace) -> float:
    domain = trace.domain
    interior = [0 < s < domain.n_elements for s in domain.jump_sites()]
    tv = domain.length * np.abs(trace.slope) + np.abs(trace.jumps[:, interior]).sum(axis=1)
    return float(np.max(tv))


def trace_jump_counts(trace: EvolutionTrace) -> np.ndarray:
    """Jumps above ``JUMP_TOL`` per step."""
    return np.count_nonzero(np.abs(trace.jumps) > JUMP_TOL, axis=1)


def size_effect_sweep(
    base: BarProblem,
    alpha: float,
    h_list,
    delta_list=None,
) -> ScalingReport:
    """Run the rescaled evolutions over increasing h and collect diagnostics.

    ``delta_list`` pairs a time step with each h (default 1/h).  The
    brittle reference runs once on the base problem at the finest step;
    gaps are sups of step-interpolated energies over both time grids.
    """
    h_list = [float(h) for h in h_list]
    if any(b <= a for a, b in zip(h_list, h_list[1:])):
        raise ValueError("h_list must be increasing")
    if delta_list is None:
        delta_list = [1.0 / h for h in h_list]
    delta_list = [float(d) for d in delta_list]
    if len(delta_list) != len(h_list):
        raise ValueError("delta_list must match h_list")

    initial = base.domain.initial_crack_state()
    reference = evolve(
        base.domain,
        initial,
        base.program(min(delta_list)),
        plain_laws(base.law),
        "griffith",
    )
    ref_times = reference.times()
    ref_totals = reference.totals()
    ref_deltas = reference.program.deltas()

    # free openings on the saturated initial crack drain the elastic
    # limit completely; without one the datum stretches the whole bar
    cracked = bool(initial.sites)
    L = base.domain.length

    n_crack_sites = len(initial.sites)

    def one_row(pair) -> RegimeRow:
        h, delta = pair
        laws = rescale_laws(base.law, h, alpha)
        trace = evolve(base.domain, initial, base.program(delta), laws, "cohesive")
        times = trace.times()
        totals = trace.totals()

        both = np.concatenate((times, ref_times))
        gap_sup = float(
            np.max(np.abs(_pc_interp(times, totals, both) - _pc_interp(ref_times, ref_totals, both)))
        )
        elastic = 0.0 if cracked else np.concatenate((trace.program.deltas(), ref_deltas)) ** 2 / L
        bulk_gap_sup = float(np.max(np.abs(_pc_interp(times, trace.bulk, both) - elastic)))
        grad_l1 = L * abs(float(trace.slope[0]))
        # one piece per crack site, one per held end, plus one
        bound = (n_crack_sites + 3) / (base.law.a * h**alpha)
        return RegimeRow(
            h=h,
            trace=trace,
            gap_sup=gap_sup,
            bulk_gap_sup=bulk_gap_sup,
            initial_grad_l1=grad_l1,
            rupture_bound=bound,
            max_total=float(np.max(totals)),
            max_tv=_total_variation(trace),
        )

    rows = [one_row(p) for p in zip(h_list, delta_list)]
    return ScalingReport(float(alpha), tuple(rows))


def nonincreasing(values) -> bool:
    """Whether no value exceeds its predecessor by more than ``MONOTONE_TOL``."""
    return all(b <= a + MONOTONE_TOL for a, b in zip(values, values[1:]))


def classify_regime(report: ScalingReport) -> Regime:
    """Read the regime off the sweep diagnostics, within the module tolerances."""
    if not report.rows:
        return Regime.INCONCLUSIVE
    last = report.rows[-1]
    if report.alpha == 0.5:
        if last.gap_sup < GAP_TOL and nonincreasing([r.gap_sup for r in report.rows]):
            return Regime.BRITTLE_LIMIT
        return Regime.INCONCLUSIVE
    if report.alpha < 0.5:
        if last.bulk_gap_sup < BULK_TOL and nonincreasing([r.bulk_gap_sup for r in report.rows]):
            return Regime.ELASTIC_LIMIT
        return Regime.INCONCLUSIVE
    if all(r.initial_grad_l1 <= r.rupture_bound + BOUND_SLACK for r in report.rows):
        return Regime.RUPTURE
    return Regime.INCONCLUSIVE


def half_saturation_opening(law: CohesiveLaw) -> float:
    """Opening where the surface density crosses 1/2: 1/(2a) for Dugdale, ln 2/a otherwise."""
    if law.kind is LawKind.DUGDALE:
        return 0.5 / law.a
    return math.log(2.0) / law.a


def uniform_bound_constant(base: BarProblem) -> float:
    """Energy bound C' from the data: the evolutions stay below it at every h.

    C' = |grad g(0)|^2 + #initial sites + 2 max|grad g| TV(grad g) + 1,
    with the affine lifting of the boundary pair as the data gradient,
    sampled every ``BOUND_DELTA``.
    """
    program = base.program(BOUND_DELTA)
    grads = program.deltas() / base.domain.length
    tv = float(np.sum(np.abs(np.diff(grads))))
    gmax = float(np.max(np.abs(grads)))
    n_sites = len(base.domain.initial_crack_state().sites)
    return float(grads[0] ** 2) + n_sites + 2.0 * gmax * tv + 1.0


def total_variation_constant(base: BarProblem) -> float:
    """Total-variation bound C'' for the evolutions, from C' and the law.

    Splits |Dv| into gradient, small openings (below the half-saturation
    opening, each worth at most (s/phi(s)) phi <= 2 s-bar per unit of
    surface energy) and large openings (at most C' of them, each bounded
    through the sup norm by the data).
    """
    c_prime = uniform_bound_constant(base)
    s_bar = half_saturation_opening(base.law)
    a_bar = 2.0 * s_bar
    program = base.program(BOUND_DELTA)
    c_g = max(float(np.max(np.abs(program.left))), float(np.max(np.abs(program.right))))
    L = base.domain.length
    return (c_prime + L) + (a_bar + 4.0 * c_g) * c_prime + c_prime / base.law.a


def piecewise_constant_minimum(g) -> int:
    """Fewest jump sites over piecewise-constant states matching the data.

    0 when the data agree; otherwise one jump at any site of any bar
    absorbs the whole datum difference.
    """
    if float(g[1]) - float(g[0]) == 0.0:
        return 0
    return 1
