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
from w on leave a step as the +0.0 they were, so the next window's last live
cell lies in [w-3, w) (the front moves at most one cell a step) or else a
scan of the cells before finds it: the next window is exactly the one a full
scan gives.  Its rho is rho_bar + q_new over the updated cells, which is
where the density floor is tested, so it needs no second rho > 0 check.

Workspace rule: a step is bound by numpy call overhead on small windows, so
it copies and concatenates nothing, and allocates only what the gas kernels
return (and, for MUSCL, the face values).  :func:`run` gives its march one
workspace: two pairs of padded (rho_pert, mom) buffers of n_cells + 4 cells
(two ghost cells mirrored at r = 0, two background cells past r_max), the
current window's rho, u, wave speed and pressure, and the flux and update
scratch.  Each step writes the next state into the other pair, zeroes the
cells there that a shrunken window leaves stale, and computes the new
window's kernels once its density and finiteness checks pass.  The states of
a run are views of the pairs that carry the workspace to step, stable_dt and
max_velocity_gradient; they hold until the next step but one, so ``sample``
copies them.  Only run steps such a workspace (series moves each state into
one, so that its max_du_dr and dt share a window).  A state without one
(from init_state, a copy, a snapshot or a bare step) gets a fresh workspace
per call, so a bare step returns arrays that no later step writes, and the
arithmetic is the same for both.  Each in-place pass keeps the operation
and operand order of the expression it replaces, up to swapping the operands
of * or + (exact in IEEE 754), and nothing is reassociated or fused, so
states, dt values and artifacts stay bit-identical to the out-of-place
formulas.
"""

from __future__ import annotations

import math
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

    Pair k holds grid cell i at ``q[k][i + 2]`` and ``mom[k][i + 2]``, with
    mirrored ghosts before and background after; its cells from ``dirty[k]``
    on are +0.0.  Pair ``cur`` holds the current state, whose window is cells
    [0, w) (w >= 2); rho, u, ``speed`` and ``p`` hold its extended cells
    [0, w + 4) once :meth:`kernels` has run.  Built from ``state``, which it
    copies, after checking rho > 0 over the window.
    """

    def __init__(self, state: RadialState) -> None:
        grid = state.grid
        n = self.n = grid.n_cells
        self.dr = grid.dr
        self.q = (np.zeros(n + 4), np.zeros(n + 4))
        self.mom = (np.zeros(n + 4), np.zeros(n + 4))
        self.cells = [(q[2:n + 2], mom[2:n + 2]) for q, mom in zip(self.q, self.mom)]
        self.bits = [(q.view(np.int64), mom.view(np.int64)) for q, mom in self.cells]
        self.rho, self.u, self.speed, self.adv = (np.empty(n + 4) for _ in range(4))
        self.half_s, self.f_rho, self.f_adv, self.jump, self.p_face = (np.empty(n + 1) for _ in range(5))
        self.d, self.finite = np.empty(n), np.empty(n, dtype=bool)
        self.p = None
        self.t_beta = self.log_beta = math.nan  # log beta at the last step's t_new
        q, mom = self.cells[0]
        q[:] = state.rho_pert
        mom[:] = state.mom
        _mirror(self.q[0], self.mom[0])
        self.w = _window_end(_span(*self.bits[0], n, n), n)
        self.cur, self.dirty = 0, [self.w, 0]
        m = self.w + 4
        rho = np.add(self.q[0][:m], state.rho_bar, out=self.rho[:m])
        if not np.logical_and.reduce(rho > 0):
            raise BreakdownError(state.t, BreakdownCause.NEGATIVE_DENSITY)
        np.divide(self.mom[0][:m], rho, out=self.u[:m])

    def kernels(self, gas: GasModel, pressure: bool = True) -> None:
        """The wave speed |u| + c (and the pressure) over the current window."""
        m = self.w + 4
        # x = rho/rho_bar goes where a first-order step forms mom * u later
        x = np.divide(self.rho[:m], gas.rho_bar, out=self.adv[:m])
        _wave_speed(gas, x, self.u[:m], out=self.speed[:m])
        if pressure:
            self.p = gas.pressure_of_ratio(x)


def _mirror(q: np.ndarray, mom: np.ndarray) -> None:
    """Fill the ghost cells at r = 0: rho_pert even, mom odd."""
    q[0], q[1] = q[3], q[2]
    mom[0], mom[1] = -mom[3], -mom[2]


def _span(q_bits: np.ndarray, mom_bits: np.ndarray, lo: int, hi: int) -> int:
    """1 + the index of the last live cell before ``hi`` (0 if none), from the
    int64 views of rho_pert and mom.  Cells [lo, hi) are probed one at a time
    (at most 3 after a step), then the cells before them are scanned."""
    for i in range(hi - 1, lo - 1, -1):
        if q_bits[i] or mom_bits[i]:
            return i + 1
    live = np.flatnonzero(q_bits[:lo] | mom_bits[:lo])
    return int(live[-1]) + 1 if live.size else 0


def _window_end(span: int, n: int) -> int:
    return min(max(span + 1, 2), n)


def _in_workspace(gas: GasModel, state: RadialState) -> RadialState:
    """A copy of ``state`` in a new workspace, with its kernels for ``gas``:
    the state :func:`run` marches from (see module notes)."""
    ws = _Workspace(state)
    ws.kernels(gas)
    start = RadialState(state.t, *ws.cells[0], state.grid, state.rho_bar)
    start._work = ws
    return start


def _wave_speed(gas: GasModel, x: np.ndarray, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """|u| + c at the density ratios x = rho/rho_bar > 0."""
    speed = np.sqrt(gas.sound_speed_sq_of_ratio(x), out=out)
    speed += np.abs(u)
    return speed


def _kernels(gas: GasModel, rho: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pressure and wave speed |u| + c, for rho > 0."""
    x = rho / gas.rho_bar
    return gas.pressure_of_ratio(x), _wave_speed(gas, x, u)


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
    ws = state._work
    if ws is None:
        ws = _Workspace(state)
        # no pressure: (rho/rho_bar)**gamma overflows on data whose wave
        # speed validate_horizon must still see, to reject them as too fast
        ws.kernels(gas, pressure=False)
    return float(np.maximum.reduce(ws.speed[2:ws.w + 2]))


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
    internal_dt = dt is None
    if internal_dt:
        dt = stable_dt(gas, state, cfl)
    if not 0 < dt < np.inf or (internal_dt and dt <= DT_FLOOR):
        raise BreakdownError(state.t, BreakdownCause.CFL_COLLAPSE)

    ws = state._work
    if ws is None:
        ws = _Workspace(state)
        ws.kernels(gas)
    w, cur = ws.w, ws.cur
    q, mom = ws.q[cur], ws.mom[cur]
    # Face j (0 <= j <= w) sits between extended cells j+1 and j+2.
    if muscl:
        q_l, q_r = _reconstruct(q[:w + 4])
        mom_l, mom_r = _reconstruct(mom[:w + 4])
        rho_l, rho_r = gas.rho_bar + q_l, gas.rho_bar + q_r
        if not (np.logical_and.reduce(rho_l > 0) and np.logical_and.reduce(rho_r > 0)):
            raise BreakdownError(state.t, BreakdownCause.NEGATIVE_DENSITY)
        u_l, u_r = mom_l / rho_l, mom_r / rho_r
        p_l, speed_l = _kernels(gas, rho_l, u_l)
        p_r, speed_r = _kernels(gas, rho_r, u_r)
        adv_l, adv_r = mom_l * u_l, mom_r * u_r
    else:
        q_l, q_r = q[1:w + 2], q[2:w + 3]
        mom_l, mom_r = mom[1:w + 2], mom[2:w + 3]
        adv = np.multiply(mom[:w + 4], ws.u[:w + 4], out=ws.adv[:w + 4])
        adv_l, adv_r = adv[1:-2], adv[2:-1]
        p_l, p_r = ws.p[1:-2], ws.p[2:-1]
        speed_l, speed_r = ws.speed[1:w + 2], ws.speed[2:w + 3]
    half_s = np.maximum(speed_l, speed_r, out=ws.half_s[:w + 1])
    half_s *= 0.5

    # Rusanov fluxes 0.5 (l + r) - half_s (r - l), formed in place.
    f_rho = np.add(mom_l, mom_r, out=ws.f_rho[:w + 1])
    f_rho *= 0.5
    jump = np.subtract(q_r, q_l, out=ws.jump[:w + 1])
    jump *= half_s
    f_rho -= jump
    f_adv = np.add(adv_l, adv_r, out=ws.f_adv[:w + 1])
    f_adv *= 0.5
    np.subtract(mom_r, mom_l, out=jump)
    jump *= half_s
    f_adv -= jump
    p_face = np.add(p_l, p_r, out=ws.p_face[:w + 1])
    p_face *= 0.5

    area = state.grid._area[:w + 1]
    inv_vol = state.grid._inv_vol[:w]
    nxt = 1 - cur
    q_new, mom_new = ws.q[nxt], ws.mom[nxt]
    f_rho *= area
    d = np.subtract(f_rho[1:], f_rho[:-1], out=ws.d[:w])
    d *= dt
    d *= inv_vol
    q_cells = np.subtract(q[2:w + 2], d, out=q_new[2:w + 2])

    # Pressure flux relative to the cell's own pressure: this grouping is the
    # area-weighted pressure gradient plus the geometric 2p/r source, and it
    # vanishes identically on any state with uniform pressure.  The mass
    # flux and its jump are spent, so their buffers take the differences.
    p_c = ws.p[2:w + 2]
    dp_l = np.subtract(p_face[:-1], p_c, out=f_rho[:w])
    dp_r = np.subtract(p_face[1:], p_c, out=jump[:w])
    t_new = state.t + dt
    # log beta(t) as damping_factor forms it; the last step's t_new is this
    # step's t unless a sample time clamped it
    log_beta = ws.log_beta if state.t == ws.t_beta else damping._log_beta(state.t)
    ws.t_beta, ws.log_beta = t_new, damping._log_beta(t_new)
    factor = float(np.exp(log_beta - ws.log_beta))
    f_adv *= area
    np.subtract(f_adv[1:], f_adv[:-1], out=d)
    d *= inv_vol
    dp_r *= area[1:]
    dp_l *= area[:-1]
    dp_r -= dp_l
    dp_r *= inv_vol
    d += dp_r
    d *= dt
    mom_cells = np.subtract(mom[2:w + 2], d, out=mom_new[2:w + 2])
    mom_cells *= factor

    # Cells from w on are +0.0 in the state stepped from; zero what an
    # earlier, wider window left there in this pair.
    if ws.dirty[nxt] > w:
        q_new[w + 2:ws.dirty[nxt] + 2] = 0.0
        mom_new[w + 2:ws.dirty[nxt] + 2] = 0.0
    ws.dirty[nxt] = w
    _mirror(q_new, mom_new)

    w_next = _window_end(_span(*ws.bits[nxt], max(w - 3, 0), w), ws.n)
    rho = np.add(q_new[:w_next + 4], gas.rho_bar, out=ws.rho[:w_next + 4])
    # fmin skips a nan, as a cell-by-cell rho <= floor does; min would return it
    if np.fmin.reduce(rho) <= DENSITY_FLOOR_FACTOR * gas.rho_bar:
        raise BreakdownError(t_new, BreakdownCause.NEGATIVE_DENSITY)
    finite = ws.finite[:w]
    if not (np.logical_and.reduce(np.isfinite(q_cells, out=finite))
            and np.logical_and.reduce(np.isfinite(mom_cells, out=finite))):
        raise BreakdownError(t_new, BreakdownCause.NON_FINITE)
    ws.cur, ws.w = nxt, w_next
    new = RadialState(t_new, *ws.cells[nxt], state.grid, gas.rho_bar)
    if state._work is not None:  # a bare step's workspace ends with it
        np.divide(mom_new[:w_next + 4], rho, out=ws.u[:w_next + 4])
        ws.kernels(gas)
        new._work = ws
    return new


def max_velocity_gradient(state: RadialState) -> float:
    ws = state._work or _Workspace(state)
    u = ws.u[2:ws.w + 2]
    d = np.subtract(u[1:], u[:-1], out=ws.half_s[:ws.w - 1])
    return float(np.maximum.reduce(np.abs(d, out=d))) / ws.dr


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
    names = [*_SERIES_COLUMNS, "dt"]
    table = np.empty((len(names), len(states)))
    for j, state in enumerate(states):
        state = _in_workspace(gas, state)  # one window for max_du_dr and dt
        table[:-1, j] = [fn(state, gas, damping) for fn in _SERIES_COLUMNS.values()]
        table[-1, j] = stable_dt(gas, state, cfl)
    return dict(zip(names, table))


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

    verdict = march(_in_workspace(gas, state), t_end, sample_times(t_end, monitor_cadence),
                    lambda s: stable_dt(gas, s, cfl),
                    lambda s, t, dt: step(gas, damping, s, cfl, dt=dt, muscl=muscl),
                    max_velocity_gradient, sample)
    columns = series(snapshots, gas, damping, cfl)
    return RunResult(np.asarray([s.t for s in snapshots]), columns, snapshots, verdict)
