"""Run outcomes: global solution, finite lifespan, or numerical breakdown,
and the explicit time-marching rule that both solvers share."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence, Union

DT_FLOOR = 1e-10
GRADIENT_BLOWUP_FACTOR = 1e3
# a difference of two values is at most twice their largest size: see
# :func:`march`
GRADIENT_BOUND_FACTOR = 2.0 * (1.0 + 1e-15)


class BreakdownCause(str, Enum):
    NEGATIVE_DENSITY = "NegativeDensity"
    CFL_COLLAPSE = "CflCollapse"
    GRADIENT_THRESHOLD = "GradientThreshold"
    NON_FINITE = "NonFinite"


@dataclass(frozen=True)
class Global:
    """Smooth for all time (a lifespan verdict), or up to ``t_end`` (a run)."""


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


def sample_times(t_end: float, cadence: float) -> list[float]:
    """Sample times 0, cadence, 2*cadence, ... ending on ``t_end`` exactly: a
    time past ``t_end`` or within 1e-14 * t_end below it becomes ``t_end``."""
    times = [0.0]
    while times[-1] < t_end:
        t = len(times) * cadence
        times.append(t if t < t_end - 1e-14 * t_end else t_end)
    return times


def march(
    state, t_end: float, sample_times: Sequence[float] | None, stable_dt: Callable, step: Callable,
    gradient: Callable, bound: Callable, sample: Callable, limit: float | None = None,
) -> tuple[list, Verdict]:
    """Advance ``state``, a solver's workspace, from t = 0 to ``t_end`` (in
    (0, inf), else ValueError): ``step(state, t, dt)`` returns the state at
    t + dt (``state`` itself, if stepped in place) or raises
    :class:`BreakdownError`, and ``stable_dt``, ``gradient`` and ``bound``
    only read it.  Steps land exactly on each sample time (taken sorted,
    without repeats, and each in [0, t_end], else ValueError; None is
    ``t_end`` alone), then on ``t_end``, a step that would end within
    1e-14 * t_end short of one stretched onto it; there ``sample(state, t)``
    returns a copy of what to keep, and a time 0 samples the initial state.
    Returns the samples taken, in time order, and the verdict: a breakdown
    (``stable_dt(state)`` non-finite or <= DT_FLOOR, a raise from ``step``,
    or the gradient trigger) keeps the samples taken before it.  Otherwise
    Global().

    The trigger fires after a step where ``gradient(state) >= limit``;
    ``limit`` defaults to 1000x the gradient at t = 0, or inf where that is
    0 (nothing to steepen from).  ``gradient`` is taken only where
    ``bound(state)``, which must be at least it, does not lie below
    ``limit``: a nan or an overflowed bound takes it, so the trigger fires
    exactly where it would on ``gradient`` alone.  Each solver's gradient is
    max |diff(v)| / h and its bound GRADIENT_BOUND_FACTOR * A / h for some
    A >= max|v|.  That holds in floating point: rounding is monotone and
    2 max|v| is a float, so |fl(v[i+1] - v[i])| <= 2 max|v| <=
    fl(2 (1 + 1e-15) A), and so on through the division by h (the 1e-15 is
    margin only)."""
    if not 0 < t_end < math.inf:
        raise ValueError("t_end must be positive and finite")
    sample_times = sorted(set(float(s) for s in (sample_times if sample_times is not None else (t_end,))))
    if not all(0 <= s <= t_end for s in sample_times):
        raise ValueError("snapshot times must lie in [0, t_end]")
    if limit is None:
        grad0 = gradient(state)
        limit = GRADIENT_BLOWUP_FACTOR * grad0 if grad0 > 0 else math.inf
    t, tol, samples = 0.0, 1e-14 * t_end, []
    if sample_times and sample_times[0] == 0.0:
        samples.append(sample(state, t))
    while t < t_end - tol:
        dt = stable_dt(state)
        if not math.isfinite(dt) or dt <= DT_FLOOR:
            return samples, NumericalBreakdown(t, BreakdownCause.CFL_COLLAPSE)
        i = len(samples)
        target = sample_times[i] if i < len(sample_times) else t_end
        clamped = t + dt >= target - tol  # else the march could stop within tol short of t_end
        dt = target - t if clamped else dt
        try:
            state = step(state, t, dt)
        except BreakdownError as exc:
            return samples, NumericalBreakdown(exc.time, exc.cause)
        t = target if clamped else t + dt
        if not bound(state) < limit and gradient(state) >= limit:
            return samples, NumericalBreakdown(t, BreakdownCause.GRADIENT_THRESHOLD)
        if clamped and i < len(sample_times):
            samples.append(sample(state, t))
    return samples, Global()
