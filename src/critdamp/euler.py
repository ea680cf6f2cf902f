"""Radially symmetric finite-volume solver for compressible flow with
time-decaying momentum damping.

State (rho, rho*u) on a uniform radial grid; the density is carried as the
perturbation rho - rho_bar so that cells the wave has not reached stay at the
background bit-for-bit and conservation is not polluted by rounding against
the O(1) background.  The hyperbolic part uses a Rusanov flux in area-weighted
conservative form,

    d(rho)_i/dt = -(r_{i+1/2}^2 F_{i+1/2} - r_{i-1/2}^2 F_{i-1/2}) / (r_i^2 dr),

which telescopes exactly: the discrete mass  sum_i r_i^2 (rho_i - rho_bar) dr
is conserved to round-off (the damping touches only momentum).  The momentum
equation groups its geometric source 2p/r with the pressure flux through the
per-cell identity (1/r^2) d(r^2 p)/dr - 2p_c/r = (1/r^2) d(r^2 (p - p_c))/dr,
so the constant state (rho_bar, 0) is an exact fixed point of the update.
Damping is applied after the hyperbolic update through the exact integrating
factor beta(t_n)/beta(t_{n+1}), unconditionally stable for any (mu, lam).

Window invariant: a step updates only the cells before and one past the last
live cell (live: rho_pert or mom not +0.0).  A face between two +0.0 cells
carries exactly zero flux at either order (a zero difference has minmod slope
0, and p_face - p_c is 0), so every cell beyond the window stays +0.0 and the
update equals the full-grid one bit for bit.  The window ends on a background
cell (speed |u| + c exactly 1) unless it is the whole grid, so stable_dt and
max_velocity_gradient over it equal their full-grid values too.  The cells
from w on leave a step as the +0.0 they were copied as, so the next window's
last live cell lies in [w-3, w) (the front moves at most one cell a step) or
else a scan of the cells before finds it: the next window is exactly the one
a full scan gives.  Its rho is rho_bar + q_new over the updated cells, which
is where the density floor is tested, so it needs no second rho > 0 check.

In-place rule: a step is bound by numpy call overhead on small windows, so
step, its helpers and max_velocity_gradient update the temporaries they
allocate (wave speeds, slopes, fluxes, face differences) in place.  They never write to the
input state's arrays or to its cached window, whose arrays the first-order
branch slices.  Each in-place pass keeps the operation and operand order of
the expression it replaces, up to swapping the operands of * or + (exact in
IEEE 754), and nothing is reassociated or fused, so states, dt values and
artifacts stay bit-identical to the out-of-place formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import monitors as mon
from .damping import DampingLaw
from .gas import GasModel
from .outcome import DT_FLOOR, BreakdownCause, BreakdownError, Verdict, march, sample_times

DENSITY_FLOOR_FACTOR = 1e-6

# Gauss-Legendre nodes/weights on [-1, 1] for per-cell profile averages.
_GAUSS_X = np.array([
    -0.9061798459386640, -0.5384693101056831, 0.0,
    0.5384693101056831, 0.9061798459386640,
])
_GAUSS_W = np.array([
    0.2369268850561891, 0.4786286704993665, 0.5688888888888889,
    0.4786286704993665, 0.2369268850561891,
])


@dataclass(frozen=True)
class RadialGrid:
    """Uniform cell-centered radial grid on [0, r_max]."""

    r_max: float
    n_cells: int

    def __post_init__(self) -> None:
        if not 0 < self.r_max < np.inf:
            raise ValueError("r_max must be finite and positive")
        if self.n_cells < 32:
            raise ValueError("n_cells must be at least 32")

    @property
    def dr(self) -> float:
        return self.r_max / self.n_cells

    @property
    def centers(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) * self.dr

    @property
    def faces(self) -> np.ndarray:
        return np.arange(self.n_cells + 1) * self.dr

    @cached_property
    def _area(self) -> np.ndarray:
        return self.faces**2

    @cached_property
    def _inv_vol(self) -> np.ndarray:
        return 1.0 / (self.centers**2 * self.dr)


@dataclass(frozen=True)
class InitialProfile:
    """Perturbation profiles rho0, u0 (vectorized, supported in r < M) with
    amplitude ``epsilon``; ``M0 < M`` is the inner radius of a shell profile,
    supported in M0 < r < M (0 for a bump)."""

    rho0: Callable
    u0: Callable
    epsilon: float
    M: float
    M0: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.epsilon < np.inf:
            raise ValueError("epsilon must be finite and nonnegative")
        if not 0 < self.M < np.inf:
            raise ValueError("M must be finite and positive")
        if not 0 <= self.M0 < self.M:
            raise ValueError("M0 must satisfy 0 <= M0 < M")


@dataclass(eq=False)
class RadialState:
    """Cell values of (rho, rho*u) at time ``t``.

    The density is stored as ``rho_pert = rho - rho_bar`` (see module notes);
    ``rho`` reconstructs the absolute density.  The arrays are read-only by
    convention: a state made by :func:`step` caches values derived from them.
    """

    t: float
    rho_pert: np.ndarray
    mom: np.ndarray
    grid: RadialGrid
    rho_bar: float
    # Set by ``step`` on the state it returns; other states build one per call.
    _window: _Window | None = field(default=None, init=False, repr=False)

    @property
    def rho(self) -> np.ndarray:
        return self.rho_bar + self.rho_pert

    def copy(self) -> "RadialState":
        return RadialState(self.t, self.rho_pert.copy(), self.mom.copy(), self.grid, self.rho_bar)


class _Window:
    """Cells [0, w) (see module notes; w >= 2) plus two ghost cells per side:
    mirrored at r = 0, the next cells or the background beyond.  rho and u
    are computed once, pressure and wave speed |u| + c once per gas model,
    checking rho > 0 unless ``step`` has set ``positive``."""

    def __init__(self, state: RadialState, span: int) -> None:
        n = state.grid.n_cells
        self.w = w = min(max(span + 1, 2), n)
        pad = np.zeros(max(w + 2 - n, 0))
        self.q = np.concatenate([state.rho_pert[1::-1], state.rho_pert[:w + 2], pad])
        self.mom = np.concatenate([-state.mom[1::-1], state.mom[:w + 2], pad])
        self.rho = state.rho_bar + self.q
        self.positive = False
        self._gas = None

    @cached_property
    def u(self) -> np.ndarray:
        return self.mom / self.rho

    def kernels(self, gas: GasModel, t: float) -> tuple[np.ndarray, np.ndarray]:
        if gas is not self._gas:
            if not (self.positive or (self.rho > 0).all()):
                raise BreakdownError(t, BreakdownCause.NEGATIVE_DENSITY)
            self._p, self._speed = _kernels(gas, self.rho, self.u)
            self._gas = gas
        return self._p, self._speed


def _span(q: np.ndarray, mom: np.ndarray, lo: int = 0) -> int:
    """1 + the index of the last live cell (0 if none); cells from ``lo`` on are scanned first."""
    bits = q[lo:].view(np.int64) | mom[lo:].view(np.int64)
    # the probe after a step is at most 3 cells: a Python scan beats flatnonzero there
    live = [i for i, b in enumerate(bits.tolist()) if b] if bits.size <= 3 else np.flatnonzero(bits)
    if len(live):
        return lo + int(live[-1]) + 1
    return _span(q[:lo], mom[:lo]) if lo else 0


def _window(state: RadialState) -> _Window:
    return state._window if state._window is not None else _Window(state, _span(state.rho_pert, state.mom))


def _kernels(gas: GasModel, rho: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pressure and wave speed |u| + c, for rho > 0."""
    speed = np.sqrt(gas.sound_speed_sq_unchecked(rho))
    speed += np.abs(u)
    return gas.pressure_unchecked(rho), speed


@dataclass(eq=False)
class RunResult:
    times: np.ndarray
    columns: dict[str, np.ndarray]
    snapshots: list[RadialState]
    verdict: Verdict


def _cell_weighted_average(f: Callable, grid: RadialGrid) -> np.ndarray:
    """Per-cell averages of f weighted by r^2, normalized by r_i^2 dr.

    With this weighting the midpoint-rule mass  sum r_i^2 rho_i dr  of the
    initialized state reproduces the exact integral of f r^2 to quadrature
    accuracy (5-point Gauss per cell).
    """
    half = 0.5 * grid.dr
    mids = grid.centers
    nodes = mids[:, None] + half * _GAUSS_X[None, :]
    vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    integrals = half * np.sum(_GAUSS_W[None, :] * vals * nodes**2, axis=1)
    return integrals / (mids**2 * grid.dr)


def init_state(gas: GasModel, profile: InitialProfile, grid: RadialGrid) -> RadialState:
    """Cell-averaged initial state (rho_bar + eps*rho0, (rho_bar + eps*rho0) * eps*u0)."""
    if profile.epsilon == 0.0:
        return RadialState(0.0, np.zeros(grid.n_cells), np.zeros(grid.n_cells), grid, gas.rho_bar)

    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        pert = profile.epsilon * _cell_weighted_average(profile.rho0, grid)
        mom = _cell_weighted_average(
            lambda r: (gas.rho_bar + profile.epsilon * np.asarray(profile.rho0(r)))
            * profile.epsilon * np.asarray(profile.u0(r)),
            grid,
        )
    if not (np.isfinite(pert).all() and np.isfinite(mom).all()):
        raise ValueError("initial cell averages are not finite")
    if np.any(gas.rho_bar + pert <= 0):
        raise ValueError("initial density is not positive everywhere on the grid")
    return RadialState(0.0, pert, mom, grid, gas.rho_bar)


def _max_speed(gas: GasModel, state: RadialState) -> float:
    """max(|u| + c) over the grid, read off the window."""
    win = _window(state)
    return float(np.maximum.reduce(win.kernels(gas, state.t)[1][2:win.w + 2]))


def stable_dt(gas: GasModel, state: RadialState, cfl: float) -> float:
    """CFL step cfl * dr / max(|u| + c) for the current state."""
    return cfl * state.grid.dr / _max_speed(gas, state)


def _reconstruct(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """MUSCL values left and right of faces 0..w from extended cell values,
    with minmod-limited slopes."""
    d = np.diff(a)
    lo, hi = d[:-1], d[1:]
    mag = np.abs(d)
    half_slope = np.where(lo * hi > 0, np.where(mag[:-1] < mag[1:], lo, hi), 0.0)
    half_slope *= 0.5
    return a[1:-2] + half_slope[:-1], a[2:-1] - half_slope[1:]


def step(gas: GasModel, damping: DampingLaw, state: RadialState, cfl: float, *,
         dt: float | None = None, muscl: bool = False) -> RadialState:
    """One explicit update; raises :class:`BreakdownError` on CFL collapse,
    loss of positivity, or non-finite values.

    Boundary conditions: mirrored ghost cells at r = 0 (regularity u(0) = 0;
    the inner face has zero area so no flux crosses the center) and the fixed
    constant state (rho_bar, 0) outside, where waves must never arrive.  An
    explicit ``dt`` (used for sample-time clamping and step-halving tests)
    bypasses the CFL floor check, which only guards internally computed steps.
    Only the window's cells are updated (see module notes).
    """
    grid = state.grid
    internal_dt = dt is None
    if internal_dt:
        dt = stable_dt(gas, state, cfl)
    if not 0 < dt < np.inf or (internal_dt and dt <= DT_FLOOR):
        raise BreakdownError(state.t, BreakdownCause.CFL_COLLAPSE)

    win = _window(state)
    w = win.w
    p_cell, speed_cell = win.kernels(gas, state.t)
    # Face j (0 <= j <= w) sits between extended cells j+1 and j+2.
    if muscl:
        q_l, q_r = _reconstruct(win.q)
        mom_l, mom_r = _reconstruct(win.mom)
        rho_l, rho_r = gas.rho_bar + q_l, gas.rho_bar + q_r
        if not ((rho_l > 0).all() and (rho_r > 0).all()):
            raise BreakdownError(state.t, BreakdownCause.NEGATIVE_DENSITY)
        u_l, u_r = mom_l / rho_l, mom_r / rho_r
        p_l, speed_l = _kernels(gas, rho_l, u_l)
        p_r, speed_r = _kernels(gas, rho_r, u_r)
        adv_l, adv_r = mom_l * u_l, mom_r * u_r
    else:
        q_l, q_r = win.q[1:-2], win.q[2:-1]
        mom_l, mom_r = win.mom[1:-2], win.mom[2:-1]
        adv = win.mom * win.u
        adv_l, adv_r = adv[1:-2], adv[2:-1]
        p_l, p_r = p_cell[1:-2], p_cell[2:-1]
        speed_l, speed_r = speed_cell[1:-2], speed_cell[2:-1]
    half_s = np.maximum(speed_l, speed_r)
    half_s *= 0.5

    # Rusanov fluxes 0.5 (l + r) - half_s (r - l), formed in place.
    f_rho = mom_l + mom_r
    f_rho *= 0.5
    jump = q_r - q_l
    jump *= half_s
    f_rho -= jump
    f_adv = adv_l + adv_r
    f_adv *= 0.5
    np.subtract(mom_r, mom_l, out=jump)
    jump *= half_s
    f_adv -= jump
    p_face = p_l + p_r
    p_face *= 0.5

    area = grid._area[:w + 1]
    inv_vol = grid._inv_vol[:w]
    q_new = state.rho_pert.copy()
    f_rho *= area
    d = f_rho[1:] - f_rho[:-1]
    d *= dt
    d *= inv_vol
    q_new[:w] -= d

    # Pressure flux relative to the cell's own pressure: this grouping is the
    # area-weighted pressure gradient plus the geometric 2p/r source, and it
    # vanishes identically on any state with uniform pressure.
    p_c = p_cell[2:w + 2]
    dp_l = p_face[:-1] - p_c
    dp_r = p_face[1:] - p_c
    t_new = state.t + dt
    factor = damping.damping_factor(state.t, t_new)
    mom_new = state.mom.copy()
    f_adv *= area
    np.subtract(f_adv[1:], f_adv[:-1], out=d)
    d *= inv_vol
    dp_r *= area[1:]
    dp_l *= area[:-1]
    dp_r -= dp_l
    dp_r *= inv_vol
    d += dp_r
    d *= dt
    mom_new[:w] -= d
    mom_new[:w] *= factor

    new = RadialState(t_new, q_new, mom_new, grid, gas.rho_bar)
    new._window = win = _Window(new, _span(q_new[:w], mom_new[:w], max(w - 3, 0)))
    # fmin skips a nan, as a cell-by-cell rho <= floor does; min would return it
    if np.fmin.reduce(win.rho) <= DENSITY_FLOOR_FACTOR * gas.rho_bar:
        raise BreakdownError(t_new, BreakdownCause.NEGATIVE_DENSITY)
    if not (np.isfinite(q_new[:w]).all() and np.isfinite(mom_new[:w]).all()):
        raise BreakdownError(t_new, BreakdownCause.NON_FINITE)
    win.positive = True
    return new


def max_velocity_gradient(state: RadialState) -> float:
    win = _window(state)
    u = win.u[2:win.w + 2]
    d = u[1:] - u[:-1]
    return float(np.maximum.reduce(np.abs(d, out=d))) / state.grid.dr


def validate_horizon(gas: GasModel, state: RadialState, M: float, t_end: float) -> None:
    """Reject an initial state whose waves could reach the outer boundary.

    Uses the finite-propagation bound: support M plus t_end times a wave-speed
    guess (1.2x the initial max of |u| + c) must stay inside r_max.
    """
    guess = 1.2 * _max_speed(gas, state)
    if M + t_end * guess >= state.grid.r_max:
        raise ValueError(
            f"grid.r_max={state.grid.r_max!r} too small: support {M!r} plus "
            f"t_end*{guess!r} reaches the boundary before t_end={t_end!r}"
        )


# The radial series columns f(state, gas, damping), in output order.
_SERIES_COLUMNS: dict[str, Callable] = {
    "L": lambda s, g, d: mon.mass_excess(s, g),
    "H": lambda s, g, d: mon.weighted_momentum(s),
    "E0": lambda s, g, d: mon.weighted_potential_energy(s, g, d),
    "min_rho": lambda s, g, d: float(np.min(s.rho)),
    "max_u": lambda s, g, d: float(np.max(np.abs(s.mom / s.rho))),
    "max_du_dr": lambda s, g, d: max_velocity_gradient(s),
}


def series(states: Sequence[RadialState], gas: GasModel, damping: DampingLaw,
           cfl: float) -> dict[str, np.ndarray]:
    """Radial series columns, one value per state: L, H, E0, min_rho, max_u,
    max_du_dr, then the CFL-stable ``dt`` of each state."""
    columns = {
        name: np.asarray([float(fn(s, gas, damping)) for s in states])
        for name, fn in _SERIES_COLUMNS.items()
    }
    columns["dt"] = np.asarray([stable_dt(gas, s, cfl) for s in states])
    return columns


def run(gas: GasModel, damping: DampingLaw, state: RadialState, t_end: float, cfl: float = 0.4, *,
        monitor_cadence: float = 0.5, muscl: bool = False) -> RunResult:
    """Advance the initial ``state`` (t = 0, built by :func:`init_state` and
    guarded by :func:`validate_horizon`) to ``t_end`` or breakdown, sampling
    snapshots and the :func:`series` columns on a fixed cadence.  The verdict follows
    :func:`critdamp.outcome.march` with max |du/dr| as the gradient (its
    trigger is off for velocity-free data, which starts trivially smooth).
    """
    if state.t != 0:
        raise ValueError("the initial state must be at t = 0")
    if not t_end > 0:
        raise ValueError("t_end must be positive")
    if not 0.0 < cfl <= 0.9:
        raise ValueError("cfl must lie in (0, 0.9]")
    if not monitor_cadence > 0:
        raise ValueError("monitor_cadence must be positive")

    snapshots: list[RadialState] = []

    def sample(s: RadialState, t: float) -> None:
        s.t = t  # march lands exactly on t; the next step starts from there
        snapshots.append(s.copy())

    verdict = march(state, t_end, sample_times(t_end, monitor_cadence), lambda s: stable_dt(gas, s, cfl),
                    lambda s, t, dt: step(gas, damping, s, cfl, dt=dt, muscl=muscl),
                    max_velocity_gradient, sample)
    columns = series(snapshots, gas, damping, cfl)
    return RunResult(np.asarray([s.t for s in snapshots]), columns, snapshots, verdict)
