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

Window: a step, stable_dt and max_velocity_gradient run over cells [0, end),
past which every cell is +0.0 (live: rho_pert or mom not +0.0 by its bits),
as is cell end - 1 unless the window is the grid.  A face between two +0.0
cells carries exactly zero flux at either order (a zero difference has
minmod slope 0, and p_face - p_c is 0), so every cell from end on stays
+0.0 and the update equals the full-grid one bit for bit.  There u is 0 and
the wave speed |u| + c exactly 1, so max |du/dr| and max(|u| + c) over the
full grid equal their window values bit for bit (series takes them over
full rows).  The front moves at most one cell a step, so a step probes only
cell end - 1: where it turned live, end grows by _VIEW_BLOCK cells (at most
to the grid) and the window's views are made anew; end never falls.  The
first end is the last live cell + 2 rounded up to a multiple of _VIEW_BLOCK.
The new rho is rho_bar + q_new over the window, which is where the density
floor is tested, so it needs no second rho > 0 check.

One maximum per state: the kernels of a state take M = max(|u| + c) over
its window once, and it decides three things.  stable_dt is cfl * dr / M
(validate_horizon's guess is 1.2 M, the same maximum).  A step tests the
new state's finiteness by max rho, before it forms u = mom / rho, and by M
after: rho = rho_bar + rho_pert is nan or +-inf wherever rho_pert is (a -inf
fails the density floor first), and with every rho finite and above the
floor, u and so |u| + c are nan or inf wherever mom is.  Only where one of
the two maxima is not finite (a nan or an inf, or a finite state whose rho
or wave speed overflows) are the cells tested one by one, so every verdict
and cause is the cell-by-cell test's; a state whose mom is not finite has
had its kernels formed by then, which only a step that overflowed, and so
already warned, makes.  And :func:`run`'s march takes max |du/dr| only where
the bound 2 (1 + 1e-15) M / dr does not already lie below the gradient
trigger's limit (:func:`critdamp.outcome.screened_gradient`): rounding is
monotone and c >= 0, so |u| <= fl(|u| + c) <= M, and no difference of two u
exceeds 2 M.

Workspace rule: a step is bound by numpy call overhead on small windows, so
it copies and concatenates nothing, and its scalars (the 0.5 factors, dt,
the damping factor and rho_bar) are 0-d arrays, which numpy takes without
converting a Python float on every pass.  :func:`run` gives its march one
workspace: one padded (rho_pert, mom) pair of n_cells + 4 cells (two ghost
cells mirrored at r = 0, two background cells past r_max), the current
window's rho, u, wave speed and pressure, the flux and update scratch, and
the views of these that a step, stable_dt and max_velocity_gradient take
over cells [0, end) (``_Window``).  A first-order step forms its fluxes, its
update and the new window's kernels in those buffers, so it allocates no
array data; a MUSCL step allocates its face values and their kernels.
A step forms every flux from the current cells before it writes any cell,
so it updates the window in place, and then the new window's kernels.  Only
run's march carries a workspace on its state, whose arrays are views of the
pair, and step advances that state in place, new cells and new t, so
``sample`` copies it.  Any other state (from init_state, a copy, a snapshot
or a bare step) is copied into a fresh workspace by each call of step,
stable_dt, validate_horizon or max_velocity_gradient, and a step runs in it
as in a run and returns the result without it: a new state, whose arrays no
later step writes.  _in_workspace makes that copy for a gas, and it alone
checks the state against the gas's rho_bar.  Each in-place pass keeps the
operation and operand order of the expression it replaces, up to swapping
the operands of * or + (exact in IEEE 754); nothing is reassociated or
fused, and the only passes left out are identities (x = rho/rho_bar at
rho_bar = 1, and c^2 *= gamma - 1 at gamma = 2), so states, dt values and
artifacts stay bit-identical to the out-of-place formulas.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import monitors as mon
from .damping import DampingLaw, StepFactor
from .gas import GasModel
from .outcome import (
    DT_FLOOR,
    BreakdownCause,
    BreakdownError,
    Verdict,
    gradient_limit,
    march,
    sample_times,
    screened_gradient,
)

DENSITY_FLOOR_FACTOR = 1e-6
_VIEW_BLOCK = 8  # cells: the window grows by a block once the front reaches its last cell
# a 0-d operand spares numpy the conversion of a Python float on every pass
_HALF = np.array(0.5)
_HALF.flags.writeable = False

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

    @cached_property
    def centers(self) -> np.ndarray:
        centers = (np.arange(self.n_cells) + 0.5) * self.dr
        centers.flags.writeable = False  # shared by every state on the grid
        return centers

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
    ``rho`` reconstructs the absolute density.
    """

    t: float
    rho_pert: np.ndarray
    mom: np.ndarray
    grid: RadialGrid
    rho_bar: float
    # The workspace of the run that marches this state; None elsewhere.
    _work: _Workspace | None = field(default=None, init=False, repr=False)

    @property
    def rho(self) -> np.ndarray:
        return self.rho_bar + self.rho_pert

    def copy(self) -> "RadialState":
        return RadialState(self.t, self.rho_pert.copy(), self.mom.copy(), self.grid, self.rho_bar)


class _Workspace:
    """The arrays a state steps in (see module notes).

    The pair holds grid cell i of the state at ``q[i + 2]`` and
    ``mom[i + 2]``, with mirrored ghosts before and background after.  ``win``
    holds the views of its window, cells [0, end), and rho, u, ``speed`` and
    ``p`` hold their extended cells [0, end + 4) once :meth:`kernels` has
    run.  Built from ``state``, which it copies, after checking rho > 0 over
    the window.
    """

    def __init__(self, state: RadialState) -> None:
        grid = state.grid
        n = self.n = grid.n_cells
        self.dr = grid.dr
        self.area, self.inv_vol = grid._area, grid._inv_vol
        self.q, self.mom = np.zeros(n + 4), np.zeros(n + 4)
        self.cells = (self.q[2:n + 2], self.mom[2:n + 2])
        self.bits = tuple(a.view(np.int64) for a in self.cells)
        self.rho, self.u, self.speed, self.adv, self.p = (np.empty(n + 4) for _ in range(5))
        self.half_s, self.f_rho, self.f_adv, self.jump, self.p_face = (np.empty(n + 1) for _ in range(5))
        self.d = np.empty(n)
        self.factor = StepFactor()
        # a step's scalars as 0-d operands (see _HALF), and its density floor
        self.rho_bar, self.dt, self.decay = np.array(state.rho_bar), np.empty(()), np.empty(())
        self.floor = DENSITY_FLOOR_FACTOR * state.rho_bar
        self.max_speed = math.nan  # max(|u| + c) over the window, once kernels has run
        self.cells[0][:] = state.rho_pert
        self.cells[1][:] = state.mom
        _mirror(self.q, self.mom)
        live = np.flatnonzero(self.bits[0] | self.bits[1])
        reach = int(live[-1]) + 2 if live.size else 1
        win = self.win = _Window(self, min(-(-reach // _VIEW_BLOCK) * _VIEW_BLOCK, n))
        rho = np.add(win.q, state.rho_bar, out=win.rho)
        if not np.logical_and.reduce(rho > 0):
            raise BreakdownError(state.t, BreakdownCause.NEGATIVE_DENSITY)
        np.divide(win.mom, rho, out=win.u)

    def kernels(self, gas: GasModel) -> None:
        """The wave speed |u| + c and the pressure over the views' cells,
        and the wave speed's maximum over the window."""
        win = self.win
        # x = rho/rho_bar is rho itself at rho_bar = 1; else it goes where a
        # first-order step forms mom * u later.  |u| goes in p.
        x = win.rho if gas.rho_bar == 1.0 else np.divide(win.rho, gas.rho_bar, out=win.adv)
        _wave_speed(gas, x, win.u, out=win.speed, scratch=win.p)
        gas.pressure_of_ratio(x, out=win.p)
        self.max_speed = float(np.maximum.reduce(win.speed_c))


class _Window:
    """The views of a workspace that a step, stable_dt and
    max_velocity_gradient take over the window, cells [0, end): extended
    cells [0, end + 4) under the buffers' names, the cells left (``_l``) and
    right (``_r``) of faces 0..end (face j sits between extended cells j+1
    and j+2), the face buffers and the differences across their cells, and
    the cells themselves (``_c``)."""

    __slots__ = (
        "end", "q", "mom", "rho", "u", "adv", "speed", "p",
        "q_l", "q_r", "mom_l", "mom_r", "adv_l", "adv_r", "p_l", "p_r", "speed_l", "speed_r",
        "half_s", "f_rho", "f_adv", "jump", "p_face", "area",
        "f_rho_l", "f_rho_r", "f_adv_l", "f_adv_r", "p_face_l", "p_face_r", "area_l", "area_r",
        "q_c", "mom_c", "p_c", "speed_c", "jump_c", "d", "inv_vol", "u_l", "u_r", "du",
    )

    def __init__(self, ws: _Workspace, end: int) -> None:
        self.end = end
        m, f = end + 4, end + 1
        self.q, self.mom, self.rho, self.u = ws.q[:m], ws.mom[:m], ws.rho[:m], ws.u[:m]
        self.adv, self.speed, self.p = ws.adv[:m], ws.speed[:m], ws.p[:m]
        self.q_l, self.q_r = ws.q[1:end + 2], ws.q[2:end + 3]
        self.mom_l, self.mom_r = ws.mom[1:end + 2], ws.mom[2:end + 3]
        self.adv_l, self.adv_r = ws.adv[1:end + 2], ws.adv[2:end + 3]
        self.p_l, self.p_r = ws.p[1:end + 2], ws.p[2:end + 3]
        self.speed_l, self.speed_r = ws.speed[1:end + 2], ws.speed[2:end + 3]
        self.half_s, self.f_rho, self.f_adv = ws.half_s[:f], ws.f_rho[:f], ws.f_adv[:f]
        self.jump, self.p_face, self.area = ws.jump[:f], ws.p_face[:f], ws.area[:f]
        self.f_rho_l, self.f_rho_r = ws.f_rho[:end], ws.f_rho[1:f]
        self.f_adv_l, self.f_adv_r = ws.f_adv[:end], ws.f_adv[1:f]
        self.p_face_l, self.p_face_r = ws.p_face[:end], ws.p_face[1:f]
        self.area_l, self.area_r = ws.area[:end], ws.area[1:f]
        self.q_c, self.mom_c, self.p_c = ws.q[2:end + 2], ws.mom[2:end + 2], ws.p[2:end + 2]
        self.speed_c, self.jump_c = ws.speed[2:end + 2], ws.jump[:end]
        self.d, self.inv_vol = ws.d[:end], ws.inv_vol[:end]
        self.u_l, self.u_r, self.du = ws.u[2:end + 1], ws.u[3:end + 2], ws.half_s[:end - 1]


def _mirror(q: np.ndarray, mom: np.ndarray) -> None:
    """Fill the ghost cells at r = 0: rho_pert even, mom odd."""
    q[0], q[1] = q[3], q[2]
    mom[0], mom[1] = -mom[3], -mom[2]


def _all_finite(win: _Window) -> bool:
    """Whether every rho_pert and mom cell of the window is finite, tested
    cell by cell."""
    return bool(np.isfinite(win.q_c).all() and np.isfinite(win.mom_c).all())


def _in_workspace(gas: GasModel, state: RadialState) -> RadialState:
    """A copy of ``state``, which must lie on the background density of
    ``gas``, in a new workspace with its kernels for ``gas`` (see module notes)."""
    if state.rho_bar != gas.rho_bar:
        raise ValueError("the state must lie on the background density of gas")
    ws = _Workspace(state)
    ws.kernels(gas)
    start = RadialState(state.t, *ws.cells, state.grid, state.rho_bar)
    start._work = ws
    return start


def _wave_speed(gas: GasModel, x: np.ndarray, u: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """|u| + c at the density ratios x = rho/rho_bar > 0 into ``out``, |u| into ``scratch``."""
    speed = np.sqrt(gas.sound_speed_sq_of_ratio(x, out=out), out=out)
    speed += np.abs(u, out=scratch)
    return speed


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


def stable_dt(gas: GasModel, state: RadialState, cfl: float) -> float:
    """CFL step cfl * dr / max(|u| + c) for the current state, with the
    maximum over the grid the one its workspace holds."""
    ws = state._work or _in_workspace(gas, state)._work
    return cfl * ws.dr / ws.max_speed


def _reconstruct(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """MUSCL values left and right of faces 0..end from extended cell values,
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
    Only the window's cells are updated (see module notes); a state in a
    run's workspace is advanced in place and returned, any other gives a new
    one.  ``state`` must lie on the background density of ``gas``.
    """
    explicit_dt = dt is not None
    if explicit_dt and not 0 < dt < np.inf:
        raise BreakdownError(state.t, BreakdownCause.CFL_COLLAPSE)
    bare = state._work is None
    if bare:  # a bare step steps a copy, in a workspace that ends with it
        state = _in_workspace(gas, state)
    if not explicit_dt:
        dt = stable_dt(gas, state, cfl)
        if not DT_FLOOR < dt < np.inf:
            raise BreakdownError(state.t, BreakdownCause.CFL_COLLAPSE)

    ws = state._work
    win = ws.win
    ws.dt[()] = dt
    if muscl:
        q_l, q_r = _reconstruct(win.q)
        mom_l, mom_r = _reconstruct(win.mom)
        rho_l, rho_r = gas.rho_bar + q_l, gas.rho_bar + q_r
        if not (np.logical_and.reduce(rho_l > 0) and np.logical_and.reduce(rho_r > 0)):
            raise BreakdownError(state.t, BreakdownCause.NEGATIVE_DENSITY)
        u_l, u_r = mom_l / rho_l, mom_r / rho_r
        x_l, x_r = rho_l / gas.rho_bar, rho_r / gas.rho_bar
        p_l, p_r = gas.pressure_of_ratio(x_l), gas.pressure_of_ratio(x_r)
        speed_l, speed_r = _wave_speed(gas, x_l, u_l), _wave_speed(gas, x_r, u_r)
        adv_l, adv_r = mom_l * u_l, mom_r * u_r
    else:
        q_l, q_r, mom_l, mom_r = win.q_l, win.q_r, win.mom_l, win.mom_r
        np.multiply(win.mom, win.u, out=win.adv)
        adv_l, adv_r, p_l, p_r = win.adv_l, win.adv_r, win.p_l, win.p_r
        speed_l, speed_r = win.speed_l, win.speed_r
    half_s = np.maximum(speed_l, speed_r, out=win.half_s)
    half_s *= _HALF

    # Rusanov fluxes 0.5 (l + r) - half_s (r - l), formed in place.
    f_rho = np.add(mom_l, mom_r, out=win.f_rho)
    f_rho *= _HALF
    jump = np.subtract(q_r, q_l, out=win.jump)
    jump *= half_s
    f_rho -= jump
    f_adv = np.add(adv_l, adv_r, out=win.f_adv)
    f_adv *= _HALF
    np.subtract(mom_r, mom_l, out=jump)
    jump *= half_s
    f_adv -= jump
    p_face = np.add(p_l, p_r, out=win.p_face)
    p_face *= _HALF

    # Every flux is formed, so the window's cells take their new values.
    f_rho *= win.area
    d = np.subtract(win.f_rho_r, win.f_rho_l, out=win.d)
    d *= ws.dt
    d *= win.inv_vol
    np.subtract(win.q_c, d, out=win.q_c)

    # Pressure flux relative to the cell's own pressure: this grouping is the
    # area-weighted pressure gradient plus the geometric 2p/r source, and it
    # vanishes identically on any state with uniform pressure.  The mass
    # flux and its jump are spent, so their buffers take the differences.
    dp_l = np.subtract(win.p_face_l, win.p_c, out=win.f_rho_l)
    dp_r = np.subtract(win.p_face_r, win.p_c, out=win.jump_c)
    t_new = state.t + dt
    ws.decay[()] = ws.factor(damping, state.t, t_new)
    f_adv *= win.area
    np.subtract(win.f_adv_r, win.f_adv_l, out=d)
    d *= win.inv_vol
    dp_r *= win.area_r
    dp_l *= win.area_l
    dp_r -= dp_l
    dp_r *= win.inv_vol
    d += dp_r
    d *= ws.dt
    mom_cells = np.subtract(win.mom_c, d, out=win.mom_c)
    mom_cells *= ws.decay
    _mirror(ws.q, ws.mom)

    end = win.end  # only cell end - 1 can have turned live (see module notes)
    grow = end < ws.n and (ws.bits[0][end - 1] or ws.bits[1][end - 1])
    nxt = _Window(ws, min(end + _VIEW_BLOCK, ws.n)) if grow else win
    rho = np.add(nxt.q, ws.rho_bar, out=nxt.rho)
    # fmin skips a nan, as a cell-by-cell rho <= floor does; min would return it
    if np.fmin.reduce(rho) <= ws.floor:
        raise BreakdownError(t_new, BreakdownCause.NEGATIVE_DENSITY)
    # a finite max rho proves every rho_pert finite, and a finite max wave
    # speed every mom; only where one is not are the cells tested one by one
    if not math.isfinite(np.maximum.reduce(rho)) and not _all_finite(nxt):
        raise BreakdownError(t_new, BreakdownCause.NON_FINITE)
    ws.win = nxt
    np.divide(nxt.mom, rho, out=nxt.u)
    ws.kernels(gas)
    if not math.isfinite(ws.max_speed) and not _all_finite(nxt):
        raise BreakdownError(t_new, BreakdownCause.NON_FINITE)
    state.t = t_new
    if bare:
        state._work = None
    return state


def max_velocity_gradient(state: RadialState) -> float:
    ws = state._work or _Workspace(state)
    win = ws.win
    d = np.subtract(win.u_r, win.u_l, out=win.du)
    return float(np.maximum.reduce(np.abs(d, out=d))) / ws.dr


def validate_horizon(gas: GasModel, state: RadialState, M: float, t_end: float) -> None:
    """Reject an initial state whose waves could reach the outer boundary.

    Uses the finite-propagation bound: support M plus t_end times a wave-speed
    guess (1.2x the initial max of |u| + c, its workspace's; see module notes)
    must stay inside r_max.  A density <= 0 or nan raises :class:`BreakdownError`.
    """
    # the pressure (rho/rho_bar)**gamma overflows on data whose wave speed
    # this must still see, to reject them as too fast; a wave speed that
    # overflows (a huge gamma) is inf, which rejects them too
    with np.errstate(over="ignore"):
        guess = 1.2 * _in_workspace(gas, state)._work.max_speed
    if M + t_end * guess >= state.grid.r_max:
        raise ValueError(
            f"grid.r_max={state.grid.r_max!r} too small: support {M!r} plus "
            f"t_end*{guess!r} reaches the boundary before t_end={t_end!r}"
        )


_STACK_CELLS = 16384  # cells in one stack of series: _STACK_CELLS // n_cells states, at least one


def series(states: Sequence[RadialState], gas: GasModel, damping: DampingLaw,
           cfl: float) -> dict[str, np.ndarray]:
    """Radial series columns, one value per state: L, H, E0, min_rho, max_u,
    max_du_dr, then the CFL-stable ``dt``.  Consecutive states on one grid go
    as one C-order (k, n_cells) stack, max_du_dr and dt over full rows (see
    module notes); a density <= 0 or nan raises :class:`BreakdownError` at its ``t``."""
    if any(s.rho_bar != gas.rho_bar for s in states):
        raise ValueError("the states must lie on the background density of gas")
    table, i = np.empty((7, len(states))), 0
    while i < len(states):
        grid = states[i].grid
        k = max(1, _STACK_CELLS // grid.n_cells)
        stack = list(itertools.takewhile(lambda s: s.grid == grid, states[i:i + k]))
        times = [s.t for s in stack]
        rho = gas.rho_bar + np.array([s.rho_pert for s in stack])
        bad = np.flatnonzero(~np.logical_and.reduce(rho > 0, axis=1))
        if bad.size:
            raise BreakdownError(times[bad[0]], BreakdownCause.NEGATIVE_DENSITY)
        mom = np.array([s.mom for s in stack])
        h = mon.weighted_momentum_rows(grid, mom)
        u = np.divide(mom, rho, out=mom)  # mom is spent once H is taken
        table[:, i:i + len(stack)] = (
            mon.mass_excess_rows(grid, rho, gas), h,
            mon.weighted_potential_energy_rows(grid, times, rho, u, gas, damping),
            rho.min(axis=1), np.abs(u).max(axis=1), np.abs(np.diff(u, axis=1)).max(axis=1) / grid.dr,
            cfl * grid.dr / _wave_speed(gas, rho / gas.rho_bar, u).max(axis=1))
        i += len(stack)
    return dict(zip(["L", "H", "E0", "min_rho", "max_u", "max_du_dr", "dt"], table))


def run(gas: GasModel, damping: DampingLaw, state: RadialState, t_end: float, cfl: float = 0.4, *,
        monitor_cadence: float = 0.5, muscl: bool = False) -> RunResult:
    """Advance the initial ``state`` (t = 0, built by :func:`init_state` and
    guarded by :func:`validate_horizon`) to ``t_end`` or breakdown, sampling
    snapshots and the :func:`series` columns on a fixed cadence.  The verdict follows
    :func:`critdamp.outcome.march` with max |du/dr| as the gradient (its
    trigger is off for velocity-free data, which starts trivially smooth),
    taken only where the wave speed does not already bound it below the
    trigger (see module notes).
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

    start = _in_workspace(gas, state)
    limit = gradient_limit(max_velocity_gradient(start))
    # |u| <= |u| + c, so max(|u| + c) bounds the velocity the gradient is taken of
    gradient = screened_gradient(max_velocity_gradient, lambda s: s._work.max_speed, state.grid.dr, limit)
    verdict = march(start, t_end, sample_times(t_end, monitor_cadence), lambda s: stable_dt(gas, s, cfl),
                    lambda s, t, dt: step(gas, damping, s, cfl, dt=dt, muscl=muscl), gradient, sample, limit)
    columns = series(snapshots, gas, damping, cfl)
    return RunResult(np.asarray([s.t for s in snapshots]), columns, snapshots, verdict)
