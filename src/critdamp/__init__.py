"""critdamp: a numerical laboratory for compressible flow with time-decaying
damping -- exact lifespan classification for the damped 1-D Burgers problem, a
radially symmetric finite-volume solver, and the scalar blowup monitors that
expose the critical decay exponent."""

from .burgers import (
    BurgersProblem,
    LifespanError,
    Snapshot1D,
    classify_lifespan,
    eval_characteristic,
    max_negative_slope,
    simulate_fv,
)
from .damping import DampingLaw
from .euler import (
    InitialProfile,
    RadialGrid,
    RadialState,
    RunResult,
    init_state,
    run,
    step,
)
from .gas import GasModel
from .monitors import (
    CriterionReport,
    FunctionalSeries,
    blowup_criterion,
    cauchy_schwarz_weight,
    density_moment,
    double_time_integral,
    initial_density_moment,
    initial_momentum_moment,
    mass_excess,
    moment_band,
    pressure_excess_moment,
    weighted_momentum,
    weighted_potential_energy,
)
from .outcome import (
    BreakdownCause,
    FiniteLifespan,
    Global,
    NumericalBreakdown,
    Verdict,
    verdict_label,
)

__all__ = [
    "BreakdownCause",
    "BurgersProblem",
    "CriterionReport",
    "DampingLaw",
    "FiniteLifespan",
    "FunctionalSeries",
    "GasModel",
    "Global",
    "InitialProfile",
    "LifespanError",
    "NumericalBreakdown",
    "RadialGrid",
    "RadialState",
    "RunResult",
    "Snapshot1D",
    "Verdict",
    "blowup_criterion",
    "cauchy_schwarz_weight",
    "classify_lifespan",
    "density_moment",
    "double_time_integral",
    "eval_characteristic",
    "init_state",
    "initial_density_moment",
    "initial_momentum_moment",
    "mass_excess",
    "max_negative_slope",
    "moment_band",
    "pressure_excess_moment",
    "run",
    "simulate_fv",
    "step",
    "verdict_label",
    "weighted_momentum",
    "weighted_potential_energy",
]
