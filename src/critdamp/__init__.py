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
    init_state,
    run,
    step,
)
from .gas import GasModel
from .monitors import (
    CriterionReport,
    blowup_criterion,
    cauchy_schwarz_weight,
    mass_excess,
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
    "GasModel",
    "Global",
    "InitialProfile",
    "LifespanError",
    "NumericalBreakdown",
    "RadialGrid",
    "RadialState",
    "Snapshot1D",
    "Verdict",
    "blowup_criterion",
    "cauchy_schwarz_weight",
    "classify_lifespan",
    "eval_characteristic",
    "init_state",
    "mass_excess",
    "max_negative_slope",
    "run",
    "simulate_fv",
    "step",
    "verdict_label",
    "weighted_momentum",
    "weighted_potential_energy",
]
