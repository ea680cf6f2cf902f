"""Damped 1-D Burgers flow: exact characteristics, lifespan classification,
and a conservative finite-volume cross-check solver.

Along characteristics the damped equation transports beta(t) * w unchanged, so
the solution is w(t, X) = eps*w0(x0)/beta(t) on X = x0 + eps*w0(x0)*I(t) with
I the reciprocal integral of the damping law.  Characteristics first cross
(gradient blowup) at the root of eps * m * I(T) = 1, m = max(-w0').

Workspace: a step is bound by numpy call overhead, so :func:`simulate_fv`
marches one ``_Workspace`` (see :func:`critdamp.outcome.march`), a padded
buffer of n_cells + 2 cells whose +0.0 ghosts nothing writes: a step forms
every face flux, then updates the cells in place, allocating no array of
the grid's size.  |w|, its maximum and the face jumps are formed once per
state: the interior jumps as diff(w), the boundary ones as w[0] - 0.0 and
0.0 - w[-1], as e[1:] - e[:-1] forms them, so a -0.0 keeps its bits.  One
maximum per state, as in the radial solver: stable_dt is cfl * dx / max|w|;
a step raises NonFinite where max|w| is not finite, which is exactly where
some w is not, before it forms the jumps; and max|w| bounds max |diff(w)|
for the screen of :func:`critdamp.outcome.march`'s gradient trigger.
Every pass keeps the operation and operand order of the allocating
expression it replaces, up to swapping the operands of * (exact in IEEE
754); nothing is reassociated or fused, so states, dt values and artifacts
stay bit-identical to it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .damping import DampingLaw, StepFactor
from .numerics import scan_maximum, solve_bracketed
from .outcome import (
    GRADIENT_BOUND_FACTOR,
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
    ``support``; ``m`` = max(-w0') is scanned by :func:`max_negative_slope`
    when left None; the CLI passes the exact one, a builtin's in closed form.
    Immutable; safe to share between simulations.
    """

    w0: Callable
    w0_prime: Callable
    support: tuple[float, float]
    epsilon: float
    damping: DampingLaw
    m: float | None = None

    def __post_init__(self) -> None:
        lo, hi = self.support
        if not -math.inf < lo < hi < math.inf:
            raise ValueError("support must be a finite nonempty interval (lo, hi)")
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and positive")
        if self.m is None:
            object.__setattr__(self, "m", max_negative_slope(self))
        if not 0.0 <= self.m < math.inf:
            raise ValueError("m must be finite and nonnegative")


@dataclass(frozen=True, eq=False)
class Snapshot1D:
    """Line snapshot at ``t``: ``x`` the run's shared, read-only cell centers; ``dt`` the step in force."""

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


def _least_doubling(excess: Callable[[float], float], target: float) -> float:
    """The least 2^k, -1074 <= k <= 1023, with excess(2^k) >= 0, or inf:
    for an increasing ``excess``, its root lies in (2^(k-1), 2^k].

    Gallops over k from the exponent of ``target`` (about the root of
    I(T) = target where I(t) is near t), by steps of 1, 2, 4, ..., away from
    the side already found, and then bisects.  A root near ``target`` costs
    two evaluations; one anywhere in the float range about 20.
    """
    below, above = -1075, 1024  # excess(2^below) < 0 <= excess(2^above); 2^-1075 rounds to 0
    k, step = min(max(math.frexp(target)[1], -1074), 1023), 1
    while above - below > 1:
        if excess(math.ldexp(1.0, k)) < 0.0:
            below = k
        else:
            above = k
        if below == -1075 or above == 1024:
            k = max(above - step, -1074) if below == -1075 else min(below + step, 1023)
            step *= 2
        else:
            k = (below + above) // 2
    return math.inf if above == 1024 else math.ldexp(1.0, above)


def classify_lifespan(problem: BurgersProblem) -> Verdict:
    """Global when eps*m*I(inf) <= 1 (or m = 0), m = ``problem.m``; otherwise
    FiniteLifespan(T) with T the unique root of eps * m * I(T) = 1.

    Closed forms give T directly at mu = 0 and lam in {0, 1}.  Every other
    law root-finds I(T) = target on ``law.reciprocal_integral`` (incomplete
    gamma, Poisson series, or log-time quadrature in the lam -> 1 corners),
    on the bracket (2^(k-1), 2^k] of :func:`_least_doubling`, closed to
    1e-15 * 2^k: relative 1e-15 on every root, from 2^-1074 to the float
    range.  Each I(t) is evaluated once per classification.  Where eps * m
    overflows, see :func:`_lifespan_past_overflow`."""
    m = problem.m
    if m <= 0.0:
        return Global()
    eps_m = problem.epsilon * m
    law = problem.damping
    if eps_m == math.inf:
        return FiniteLifespan(_lifespan_past_overflow(problem.epsilon, m, law.mu))
    target = 1.0 / eps_m
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

    excess = functools.cache(lambda t: law.reciprocal_integral(t) - target)
    hi = _least_doubling(excess, target)
    if hi == math.inf:
        # the root lies beyond the float range, as at lam = 1 above
        return FiniteLifespan(math.inf)
    t_cross = solve_bracketed(excess, 0.5 * hi, hi, x_tol=1e-15 * hi)
    return FiniteLifespan(t_cross)


def _lifespan_past_overflow(eps: float, m: float, mu: float) -> float:
    """The lifespan where eps * m overflows: 1/(eps m), formed as (1/eps)/m.

    It lies below 2^-1022, and 1/beta(tau) lies in [e^(-mu tau), 1], so
    I(t) = t (1 - theta mu t / 2) with theta in [0, 1]: where mu/(eps m) <
    2^-53 the root of eps * m * I(T) = 1 is 1/(eps m) to within its
    rounding, and eps * m * I(inf) > 1.  Raises OverflowError where
    1/(eps m) is below 2^-1074, or where mu is too large for that.
    """
    target = 1.0 / eps / m
    if target == 0.0:
        raise OverflowError(f"epsilon * m = {eps!r} * {m!r} puts the lifespan 1/(epsilon m) below the smallest float")
    if mu * target >= 2.0**-53:
        raise OverflowError(f"epsilon * m = {eps!r} * {m!r} overflows, and beside it mu = {mu!r} is too large "
                            "for the lifespan to be 1/(epsilon m)")
    return target


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
    if problem.epsilon * problem.m * i_t >= 1.0:
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
    stepping, sampling and stop rule, with the finite ``t_end`` it needs, is
    :func:`critdamp.outcome.march`.  The automatic ``x_span`` pads the
    support by eps * max|w0| * I(t_end), with I capped at the crossing value
    1/(eps*m) when m > 0; an explicit one must contain the support, on which
    the exact solution stays before the lifespan.
    """
    if n_cells < 16:
        raise ValueError("n_cells must be at least 16")
    if not 0.0 < cfl <= 0.9:
        raise ValueError("cfl must lie in (0, 0.9]")
    if not 0 < t_end < math.inf:  # before the automatic span reads I(t_end)
        raise ValueError("t_end must be positive and finite")

    law = problem.damping
    if x_span is None:
        lo_s, hi_s = problem.support
        _, w_abs = scan_maximum(lambda x: np.abs(np.asarray(problem.w0(x))), lo_s, hi_s, n_scan=20_000)
        i_cap = law.reciprocal_integral(t_end)
        if problem.m > 0.0:
            i_cap = min(i_cap, 1.0 / (problem.epsilon * problem.m))
        pad = problem.epsilon * w_abs * i_cap + 0.05 * (hi_s - lo_s)
        x_span = (lo_s - pad, hi_s + pad)

    x_lo, x_hi = x_span
    if not x_lo <= problem.support[0] < problem.support[1] <= x_hi:
        raise ValueError(f"x_span {x_span!r} must contain the support {problem.support!r}")
    dx = (x_hi - x_lo) / n_cells
    x = x_lo + (np.arange(n_cells) + 0.5) * dx
    w = problem.epsilon * np.asarray(problem.w0(x), dtype=float)

    x.flags.writeable = False
    return march(_Workspace(w, law, dx, cfl, t_end), t_end, snapshot_times, _Workspace.stable_dt,
                 _Workspace.step, _Workspace.gradient, _Workspace.gradient_bound,
                 lambda ws, t: Snapshot1D(t, x, ws.cells.copy(), ws.stable_dt()), gradient_threshold)


class _Workspace:
    """The arrays one :func:`simulate_fv` march steps in (see module notes).

    ``pad`` holds the state in its interior ``cells``; ``abs`` holds |e|,
    ``max_abs`` its maximum, and ``jump`` the face jumps e[i+1] - e[i] of the
    padded state e = ``pad``.
    """

    def __init__(self, w: np.ndarray, law: DampingLaw, dx: float, cfl: float, t_end: float) -> None:
        n = w.size
        self.law, self.dx, self.cfl, self.t_end = law, dx, cfl, t_end
        self.factor = StepFactor()
        self.pad = np.zeros(n + 2)
        self.cells = self.pad[1:-1]
        self.cells[:] = w
        self.abs, self.sq = np.zeros(n + 2), np.empty(n + 2)
        self.abs_c, self.abs_l, self.abs_r = self.abs[1:-1], self.abs[:-1], self.abs[1:]
        self.sq_l, self.sq_r = self.sq[:-1], self.sq[1:]
        self.jump, self.flux = np.empty(n + 1), np.empty(n + 1)
        self.jump_c, self.flux_c = self.jump[1:-1], self.flux[1:-1]
        self.flux_l, self.flux_r = self.flux[:-1], self.flux[1:]
        self.dflux = np.empty(n)
        self._form_abs()
        self._form_jumps()

    def _form_abs(self) -> None:
        self.max_abs = float(np.maximum.reduce(np.abs(self.cells, out=self.abs_c)))

    def _form_jumps(self) -> None:
        w = self.cells
        np.subtract(w[1:], w[:-1], out=self.jump_c)
        self.jump[0] = w[0] - 0.0
        self.jump[-1] = 0.0 - w[-1]

    def stable_dt(self) -> float:
        return self.cfl * self.dx / self.max_abs if self.max_abs > 0 else self.t_end

    def gradient(self) -> float:
        """max |diff(w)| / dx."""
        return float(np.maximum.reduce(np.abs(self.jump_c, out=self.flux_c))) / self.dx

    def gradient_bound(self) -> float:
        return GRADIENT_BOUND_FACTOR * self.max_abs / self.dx

    def step(self, t: float, dt: float) -> _Workspace:
        # Local Lax-Friedrichs flux on faces, zero ghost states at both ends;
        # the support never reaches the boundary, so the total telescopes.
        np.multiply(self.pad, self.pad, out=self.sq)
        flux = np.add(self.sq_l, self.sq_r, out=self.flux)
        flux *= 0.25
        # the face speed max(|w_l|, |w_r|) takes the spent e*e buffer
        speed = np.maximum(self.abs_l, self.abs_r, out=self.sq_l)
        speed *= 0.5
        speed *= self.jump
        flux -= speed
        d = np.subtract(self.flux_r, self.flux_l, out=self.dflux)
        d *= dt / self.dx
        # every face flux is formed, so the cells take their new values
        out = np.subtract(self.cells, d, out=self.cells)
        t_new = t + dt
        out *= self.factor(self.law, t, t_new)
        # max |w| is not finite exactly where some w is not
        self._form_abs()
        if not math.isfinite(self.max_abs):
            raise BreakdownError(t_new, BreakdownCause.NON_FINITE)
        self._form_jumps()
        return self


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
