"""Run outcomes: global solution, finite lifespan, or numerical breakdown,
and the explicit time-marching rule that both solvers share."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence, Union

DT_FLOOR = 1e-10
GRADIENT_BLOWUP_FACTOR = 1e3


class BreakdownCause(str, Enum):
    NEGATIVE_DENSITY = "NegativeDensity"
    CFL_COLLAPSE = "CflCollapse"
    GRADIENT_THRESHOLD = "GradientThreshold"
    NON_FINITE = "NonFinite"


@dataclass(frozen=True)
class Global:
    """Smooth solution for all computed times; ``horizon`` records how far a run got."""

    horizon: float | None = None


@dataclass(frozen=True)
class FiniteLifespan:
    """Smooth solution up to ``lifespan`` only.

    ``lifespan`` may be ``inf`` when the closed-form crossing time overflows
    float64 (finite but astronomically large, e.g. exp(1/(eps*m)) - 1).
    """

    lifespan: float

    def __post_init__(self) -> None:
        if not self.lifespan > 0:
            raise ValueError("lifespan must be positive")


@dataclass(frozen=True)
class NumericalBreakdown:
    """The discrete scheme stopped at ``time`` for the stated cause."""

    time: float
    cause: BreakdownCause

    def __post_init__(self) -> None:
        if not self.time >= 0:
            raise ValueError("breakdown time must be nonnegative")


Verdict = Union[Global, FiniteLifespan, NumericalBreakdown]


class BreakdownError(Exception):
    """Internal stepping signal; callers convert it into a NumericalBreakdown."""

    def __init__(self, time: float, cause: BreakdownCause):
        super().__init__(f"{cause.value} at t={time!r}")
        self.time = time
        self.cause = cause


def verdict_label(verdict: Verdict) -> str:
    """Wire format: Global | FiniteLifespan:<T> | NumericalBreakdown:<t>:<cause>."""
    if isinstance(verdict, Global):
        return "Global"
    if isinstance(verdict, FiniteLifespan):
        return f"FiniteLifespan:{float(verdict.lifespan)!r}"
    if isinstance(verdict, NumericalBreakdown):
        return f"NumericalBreakdown:{float(verdict.time)!r}:{verdict.cause.value}"
    raise TypeError(f"not a verdict: {verdict!r}")


def parse_verdict_label(label: str) -> Verdict:
    parts = label.split(":")
    if parts[0] == "Global":
        return Global()
    if parts[0] == "FiniteLifespan" and len(parts) == 2:
        return FiniteLifespan(float(parts[1]))
    if parts[0] == "NumericalBreakdown" and len(parts) == 3:
        return NumericalBreakdown(float(parts[1]), BreakdownCause(parts[2]))
    raise ValueError(f"unrecognized verdict label: {label!r}")


def sample_times(t_end: float, cadence: float) -> list[float]:
    """Sample times 0, cadence, 2*cadence, ... with the last one clamped to
    ``t_end``; sampling stops once a time is within 1e-14 * t_end of it."""
    times = [0.0]
    k = 1
    while times[-1] < t_end - 1e-14 * t_end:
        times.append(min(k * cadence, t_end))
        k += 1
    return times


def march(
    state, t_end: float, sample_times: Sequence[float], stable_dt: Callable, advance: Callable,
    gradient: Callable, sample: Callable, grad_limit: float | None = None,
) -> Verdict:
    """Advance ``state`` from t = 0 to ``t_end``; ``advance(state, t, dt)``
    returns the state at t + dt or raises :class:`BreakdownError`.

    Steps land exactly on each sorted sample time (then on ``t_end``), where
    ``sample(state, t)`` is called; a leading 0 samples the initial state.
    Breakdown: ``stable_dt(state)`` non-finite or <= DT_FLOOR, a raise from
    ``advance``, or ``gradient(state) >= grad_limit`` (default 1000x the
    initial gradient, never when that is 0).  Otherwise Global(t_end).
    """
    if grad_limit is None:
        grad0 = gradient(state)
        grad_limit = GRADIENT_BLOWUP_FACTOR * grad0 if grad0 > 0 else math.inf
    t, i = 0.0, 0
    if sample_times and sample_times[0] == 0.0:
        sample(state, t)
        i = 1
    while t < t_end - 1e-14 * t_end:
        dt = stable_dt(state)
        if not math.isfinite(dt) or dt <= DT_FLOOR:
            return NumericalBreakdown(t, BreakdownCause.CFL_COLLAPSE)
        target = sample_times[i] if i < len(sample_times) else t_end
        clamped = t + dt >= target
        dt = min(dt, target - t)
        try:
            state = advance(state, t, dt)
        except BreakdownError as exc:
            return NumericalBreakdown(exc.time, exc.cause)
        t = target if clamped else t + dt
        if gradient(state) >= grad_limit:
            return NumericalBreakdown(t, BreakdownCause.GRADIENT_THRESHOLD)
        if clamped and i < len(sample_times):
            sample(state, t)
            i += 1
    return Global(horizon=t_end)
