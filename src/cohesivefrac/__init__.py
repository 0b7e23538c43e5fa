"""Quasistatic cohesive fracture on bars and plates, with size-effect sweeps."""

from cohesivefrac.bar1d import CrackState, Domain1D
from cohesivefrac.config import ConfigError, load_config
from cohesivefrac.evolution import (
    LoadProgram,
    energy_balance_report,
    evolve,
    first_crack_time,
)
from cohesivefrac.laws import (
    CohesiveLaw,
    LawKind,
    plain_laws,
    relax_bulk_oracle,
    rescale_laws,
)
from cohesivefrac.planar2d import (
    Grid2D,
    PlanarNonconvergence,
    PlanarNumericError,
    alternate_minimize,
    evolve_tearing,
    prefix_crack_sweep,
    solve_elastic,
    tearing_gap_ladder,
)
from cohesivefrac.scaling import BarProblem, Regime, classify_regime, size_effect_sweep
from cohesivefrac.solver1d import brute_force_minimize

__version__ = "0.1.0"

__all__ = [
    "BarProblem",
    "CohesiveLaw",
    "ConfigError",
    "CrackState",
    "Domain1D",
    "Grid2D",
    "LawKind",
    "LoadProgram",
    "PlanarNonconvergence",
    "PlanarNumericError",
    "Regime",
    "alternate_minimize",
    "brute_force_minimize",
    "classify_regime",
    "energy_balance_report",
    "evolve",
    "evolve_tearing",
    "first_crack_time",
    "load_config",
    "plain_laws",
    "prefix_crack_sweep",
    "relax_bulk_oracle",
    "rescale_laws",
    "size_effect_sweep",
    "solve_elastic",
    "tearing_gap_ladder",
    "__version__",
]
