"""Quasistatic cohesive fracture on bars and plates, with size-effect sweeps."""

from cohesivefrac.bar1d import (
    CrackState,
    Displacement1D,
    Domain1D,
    EnergyBreakdown,
    total_energy,
)
from cohesivefrac.config import ConfigError, RunConfig, load_config
from cohesivefrac.evolution import (
    EvolutionTrace,
    LoadProgram,
    energy_balance_report,
    evolve,
    first_crack_time,
)
from cohesivefrac.laws import (
    BulkDensity,
    CohesiveLaw,
    LawKind,
    RescaledLaws,
    plain_laws,
    relax_bulk_oracle,
    rescale_laws,
)
from cohesivefrac.planar2d import (
    AMResult,
    Field2D,
    Grid2D,
    PlanarNonconvergence,
    PlanarNumericError,
    alternate_minimize,
    evolve_tearing,
    prefix_crack_sweep,
    solve_elastic,
    tearing_gap_ladder,
)
from cohesivefrac.scaling import (
    BarProblem,
    Regime,
    ScalingReport,
    classify_regime,
    size_effect_sweep,
)
from cohesivefrac.solver1d import (
    BudgetError,
    NonconvergenceError,
    brute_force_minimize,
    griffith_minimize,
    incremental_minimize,
)

__version__ = "0.1.0"

__all__ = [
    "AMResult",
    "BarProblem",
    "BudgetError",
    "BulkDensity",
    "CohesiveLaw",
    "ConfigError",
    "CrackState",
    "Displacement1D",
    "Domain1D",
    "EnergyBreakdown",
    "EvolutionTrace",
    "Field2D",
    "Grid2D",
    "LawKind",
    "LoadProgram",
    "NonconvergenceError",
    "PlanarNonconvergence",
    "PlanarNumericError",
    "Regime",
    "RescaledLaws",
    "RunConfig",
    "ScalingReport",
    "alternate_minimize",
    "brute_force_minimize",
    "classify_regime",
    "energy_balance_report",
    "evolve",
    "evolve_tearing",
    "first_crack_time",
    "griffith_minimize",
    "incremental_minimize",
    "load_config",
    "plain_laws",
    "prefix_crack_sweep",
    "relax_bulk_oracle",
    "rescale_laws",
    "size_effect_sweep",
    "solve_elastic",
    "tearing_gap_ladder",
    "total_energy",
    "__version__",
]
