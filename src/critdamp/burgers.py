"""Damped 1-D Burgers flow: exact characteristics, lifespan classification,
and a conservative finite-volume cross-check solver.

Along characteristics the damped equation transports beta(t) * w unchanged, so
the solution is w(t, X) = eps*w0(x0)/beta(t) on X = x0 + eps*w0(x0)*I(t) with
I the reciprocal integral of the damping law.  Characteristics first cross
(gradient blowup) at the root of eps * m * I(T) = 1, m = max(-w0').
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .damping import DampingLaw
from .numerics import scan_maximum, solve_bracketed
from .outcome import (
    BreakdownCause,
    BreakdownError,
    FiniteLifespan,
    Global,
    Verdict,
    march,
)


class LifespanError(RuntimeError):
    """Characteristic evaluation requested at or beyond the classified lifespan."""


@dataclass(frozen=True)
class BurgersProblem:
    """Initial profile eps*w0 with compact support and a damping law.

    ``w0`` and ``w0_prime`` must be vectorized callables vanishing outside
    ``support``.  Immutable; safe to share between simulations.
    """

    w0: Callable
    w0_prime: Callable
    support: tuple[float, float]
    epsilon: float
    damping: DampingLaw

    def __post_init__(self) -> None:
        lo, hi = self.support
        if not -math.inf < lo < hi < math.inf:
            raise ValueError("support must be a finite nonempty interval (lo, hi)")
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and positive")


@dataclass(frozen=True, eq=False)
class Snapshot1D:
    """Cell-centered line snapshot at time ``t``; ``dt`` is the step size in force."""

    t: float
    x: np.ndarray
    w: np.ndarray
    dt: float


def max_negative_slope(problem: BurgersProblem) -> float:
    """m = max over the support of (-w0'); 0 when w0 is nondecreasing.

    Dense scan (100,000 points) localizes the maximum; golden-section
    refinement polishes it, so flat plateaus and interior peaks are both safe.
    """
    lo, hi = problem.support
    _, best = scan_maximum(lambda x: -np.asarray(problem.w0_prime(x)), lo, hi)
    return max(0.0, float(best))


def _least_doubling(integral_at: Callable[[float], float], target: float) -> float:
    """The least 2^k, 0 <= k <= 1023, with integral_at(2^k) >= target, or inf.

    Gallops over k (0, 1, 3, 7, ...) and then bisects, so a root near the
    end of the float range costs about 20 evaluations, not 1024.
    """
    below, k, step = -1, 0, 1  # integral_at(2^below) < target
    while integral_at(math.ldexp(1.0, k)) < target:
        if k == 1023:
            return math.inf
        below, k, step = k, min(k + step, 1023), 2 * step
    while k - below > 1:
        mid = (below + k) // 2
        if integral_at(math.ldexp(1.0, mid)) < target:
            below = mid
        else:
            k = mid
    return math.ldexp(1.0, k)


def classify_lifespan(problem: BurgersProblem, slope_max: float | None = None) -> Verdict:
    """Global when eps*m*I(inf) <= 1 (or m = 0); otherwise FiniteLifespan(T)
    with T the unique root of eps * m * I(T) = 1.

    Closed forms give T directly at mu = 0 and lam in {0, 1}.  Every other
    law root-finds I(T) = target on ``law.reciprocal_integral`` (incomplete
    gamma, Poisson series, or log-time quadrature in the lam -> 1 corners),
    bracketed by the least power of two past the root and closed to 1e-15
    relative."""
    m = max_negative_slope(problem) if slope_max is None else slope_max
    if m <= 0.0:
        return Global()
    eps_m = problem.epsilon * m
    target = 1.0 / eps_m
    law = problem.damping
    if eps_m * law.reciprocal_integral_limit() <= 1.0:
        # Border case eps*m*I(inf) == 1 stays global: the crossing equation
        # has no finite root, the gradient only diverges as t -> infinity.
        return Global()

    if law.mu == 0.0:
        return FiniteLifespan(target)
    if law.lam == 1.0:
        if law.mu == 1.0:
            with np.errstate(over="ignore"):
                return FiniteLifespan(float(np.expm1(target)))
        arg = 1.0 + (1.0 - law.mu) * target
        with np.errstate(over="ignore"):
            return FiniteLifespan(float(np.expm1(np.log(arg) / (1.0 - law.mu))))
    if law.lam == 0.0:
        return FiniteLifespan(float(-np.log1p(-law.mu * target) / law.mu))

    hi = _least_doubling(law.reciprocal_integral, target)
    if hi == math.inf:
        # the root lies beyond the float range, as at lam = 1 above
        return FiniteLifespan(math.inf)
    t_cross = solve_bracketed(
        lambda t: law.reciprocal_integral(t) - target,
        0.0,
        hi,
        x_tol=1e-15 * (1.0 + hi),
    )
    return FiniteLifespan(t_cross)


def _invert_characteristics(problem: BurgersProblem, i_t: float, x: np.ndarray) -> np.ndarray:
    """Solve x = x0 + eps*w0(x0)*I(t) for x0 on the support (monotone pre-crossing)."""
    lo_s, hi_s = problem.support
    eps = problem.epsilon

    lo = np.full_like(x, lo_s)
    hi = np.full_like(x, hi_s)
    # 60 bisections shrink the bracket below 1e-12 of any practical support.
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        g = mid + eps * np.asarray(problem.w0(mid)) * i_t - x
        left = g < 0.0
        lo = np.where(left, mid, lo)
        hi = np.where(left, hi, mid)
    x0 = 0.5 * (lo + hi)

    # One safeguarded secant polish; keeps the bisection answer where the
    # local secant is degenerate (flat w0 regions).
    g_lo = lo + eps * np.asarray(problem.w0(lo)) * i_t - x
    g_hi = hi + eps * np.asarray(problem.w0(hi)) * i_t - x
    denom = g_hi - g_lo
    with np.errstate(divide="ignore", invalid="ignore"):
        secant = lo - g_lo * (hi - lo) / denom
    good = np.isfinite(secant) & (secant >= lo) & (secant <= hi) & (denom != 0.0)
    return np.where(good, secant, x0)


def eval_characteristic(problem: BurgersProblem, t: float, x):
    """Exact solution value(s) at time ``t`` (strictly before the lifespan).

    Positions outside the image of the support return 0.  Raises
    :class:`LifespanError` where eps * m * I(t) >= 1, at or beyond the crossing.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    i_t = problem.damping.reciprocal_integral(t)
    if problem.epsilon * max_negative_slope(problem) * i_t >= 1.0:
        raise LifespanError(f"t={t!r} is at or beyond the lifespan: eps * m * I(t) >= 1")

    scalar = np.ndim(x) == 0
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    inv_beta = float(np.exp(-problem.damping.log_integrating_factor(t)))

    lo_s, hi_s = problem.support
    out = np.zeros_like(x_arr)
    # The characteristic map fixes the support endpoints (w0 vanishes there)
    # and is monotone before crossing, so its image is exactly the support.
    inside = (x_arr > lo_s) & (x_arr < hi_s)
    if np.any(inside):
        x0 = _invert_characteristics(problem, i_t, x_arr[inside])
        out[inside] = problem.epsilon * np.asarray(problem.w0(x0)) * inv_beta
    return float(out[0]) if scalar else out


def simulate_fv(
    problem: BurgersProblem,
    n_cells: int,
    t_end: float,
    cfl: float,
    *,
    snapshot_times: Sequence[float] | None = None,
    gradient_threshold: float | None = None,
    x_span: tuple[float, float] | None = None,
) -> tuple[list[Snapshot1D], Verdict]:
    """Conservative local-Lax-Friedrichs solver for the damped flux w^2/2.

    The damping source is applied exactly per step through the factor
    beta(t_n)/beta(t_{n+1}), so the decay law  int w dx * beta(t) = const
    holds to round-off.  Breakdown is reported (never silently continued)
    when the discrete gradient exceeds ``gradient_threshold`` (default: 1000x
    its initial value), when values go non-finite, or when dt collapses; the
    stepping and sampling rule is :func:`critdamp.outcome.march`.  The
    automatic ``x_span`` pads the support by eps * max|w0| * I(t_end), with
    I capped at the crossing value 1/(eps*m) when m > 0.
    """
    if n_cells < 16:
        raise ValueError("n_cells must be at least 16")
    if not 0.0 < cfl <= 0.9:
        raise ValueError("cfl must lie in (0, 0.9]")
    if not t_end > 0:
        raise ValueError("t_end must be positive")

    law = problem.damping
    if x_span is None:
        lo_s, hi_s = problem.support
        _, w_abs = scan_maximum(lambda x: np.abs(np.asarray(problem.w0(x))), lo_s, hi_s, n_scan=20_000)
        m = max_negative_slope(problem)
        i_cap = law.reciprocal_integral(t_end)
        if m > 0.0:
            i_cap = min(i_cap, 1.0 / (problem.epsilon * m))
        pad = problem.epsilon * w_abs * i_cap + 0.05 * (hi_s - lo_s)
        x_span = (lo_s - pad, hi_s + pad)

    x_lo, x_hi = x_span
    dx = (x_hi - x_lo) / n_cells
    x = x_lo + (np.arange(n_cells) + 0.5) * dx
    w = problem.epsilon * np.asarray(problem.w0(x), dtype=float)

    wanted = sorted(set(float(s) for s in (snapshot_times if snapshot_times is not None else (t_end,))))
    if any(s < 0 or s > t_end for s in wanted):
        raise ValueError("snapshot times must lie in [0, t_end]")

    snapshots: list[Snapshot1D] = []

    def stable_dt(values: np.ndarray) -> float:
        speed = float(np.max(np.abs(values)))
        return cfl * dx / speed if speed > 0 else t_end

    def advance(values: np.ndarray, t: float, dt: float) -> np.ndarray:
        # Local Lax-Friedrichs flux on faces, zero ghost states at both ends;
        # the support never reaches the boundary, so the total telescopes.
        e = np.zeros(len(values) + 2)
        e[1:-1] = values
        wl, wr = e[:-1], e[1:]
        a, sq = np.abs(e), e * e
        speed_face = np.maximum(a[:-1], a[1:])
        flux = 0.25 * (sq[:-1] + sq[1:]) - 0.5 * speed_face * (wr - wl)
        w_hyp = values - dt / dx * (flux[1:] - flux[:-1])
        out = w_hyp * law.damping_factor(t, t + dt)
        if not np.all(np.isfinite(out)):
            raise BreakdownError(t + dt, BreakdownCause.NON_FINITE)
        return out

    def sample(values: np.ndarray, t: float) -> None:
        snapshots.append(Snapshot1D(t, x.copy(), values.copy(), stable_dt(values)))

    verdict = march(w, t_end, wanted, stable_dt, advance,
                    lambda values: float(np.max(np.abs(np.diff(values)))) / dx, sample, gradient_threshold)
    return snapshots, verdict


def series(snapshots: Sequence[Snapshot1D]) -> dict[str, np.ndarray]:
    """Columns of the 1-D series, one value per snapshot: the total
    Q = int w dx, max |w|, max |dw/dx| and the CFL-stable ``dt``."""
    dx = snapshots[0].x[1] - snapshots[0].x[0] if snapshots else 0.0
    return {
        "Q": np.array([float(np.sum(s.w)) * dx for s in snapshots]),
        "max_w": np.array([float(np.max(np.abs(s.w))) for s in snapshots]),
        "max_dw_dx": np.array([float(np.max(np.abs(np.diff(s.w)))) / dx for s in snapshots]),
        "dt": np.array([s.dt for s in snapshots]),
    }
