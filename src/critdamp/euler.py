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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

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
        if not self.r_max > 0:
            raise ValueError("r_max must be positive")
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


@dataclass(frozen=True)
class InitialProfile:
    """Perturbation profiles rho0, u0 (vectorized, supported in r < M) with
    amplitude ``epsilon``; ``M0 < M`` marks the inner radius used by the
    moment functionals."""

    rho0: Callable
    u0: Callable
    epsilon: float
    M: float
    M0: float = 0.0

    def __post_init__(self) -> None:
        if not self.epsilon >= 0:
            raise ValueError("epsilon must be nonnegative")
        if not self.M > 0:
            raise ValueError("M must be positive")
        if not 0 <= self.M0 < self.M:
            raise ValueError("M0 must satisfy 0 <= M0 < M")


@dataclass(eq=False)
class RadialState:
    """Cell values of (rho, rho*u) at time ``t``.

    The density is stored as ``rho_pert = rho - rho_bar`` (see module notes);
    ``rho`` reconstructs the absolute density.  ``support_radius`` bounds the
    region where the state can differ from the background.
    """

    t: float
    rho_pert: np.ndarray
    mom: np.ndarray
    support_radius: float
    grid: RadialGrid
    rho_bar: float

    @property
    def rho(self) -> np.ndarray:
        return self.rho_bar + self.rho_pert

    @classmethod
    def from_absolute(
        cls, t: float, rho: np.ndarray, mom: np.ndarray,
        support_radius: float, grid: RadialGrid, rho_bar: float,
    ) -> "RadialState":
        return cls(t, np.asarray(rho, dtype=float) - rho_bar, np.asarray(mom, dtype=float),
                   support_radius, grid, rho_bar)

    def copy(self) -> "RadialState":
        return RadialState(self.t, self.rho_pert.copy(), self.mom.copy(),
                           self.support_radius, self.grid, self.rho_bar)


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
    """Cell-averaged initial state (rho_bar + eps*rho0, (rho_bar + eps*rho0) * eps*u0).

    The support radius starts at the outer face of the cell containing M, so
    the zero-momentum invariant beyond it is exact for cell-averaged data.
    """
    support = min(math.ceil(profile.M / grid.dr) * grid.dr, grid.r_max)
    if profile.epsilon == 0.0:
        return RadialState(0.0, np.zeros(grid.n_cells), np.zeros(grid.n_cells),
                           support, grid, gas.rho_bar)

    pert = profile.epsilon * _cell_weighted_average(profile.rho0, grid)
    mom = _cell_weighted_average(
        lambda r: (gas.rho_bar + profile.epsilon * np.asarray(profile.rho0(r)))
        * profile.epsilon * np.asarray(profile.u0(r)),
        grid,
    )
    if np.any(gas.rho_bar + pert <= 0):
        raise ValueError("initial density is not positive everywhere on the grid")
    return RadialState(0.0, pert, mom, support, grid, gas.rho_bar)


def stable_dt(gas: GasModel, state: RadialState, cfl: float) -> float:
    """CFL step cfl * dr / max(|u| + c) for the current state."""
    rho = state.rho
    u = state.mom / rho
    c = np.sqrt(gas.sound_speed_sq(rho))
    return cfl * state.grid.dr / float(np.max(np.abs(u) + c))


def _minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.where(a * b > 0, np.where(np.abs(a) < np.abs(b), a, b), 0.0)


def step(
    gas: GasModel,
    damping: DampingLaw,
    state: RadialState,
    cfl: float,
    *,
    dt: float | None = None,
    muscl: bool = False,
) -> RadialState:
    """One explicit update; raises :class:`BreakdownError` on CFL collapse,
    loss of positivity, or non-finite values.

    Boundary conditions: mirrored ghost cells at r = 0 (regularity u(0) = 0;
    the inner face has zero area so no flux crosses the center) and the fixed
    constant state (rho_bar, 0) outside, where waves must never arrive.  An
    explicit ``dt`` (used for sample-time clamping and step-halving tests)
    bypasses the CFL floor check, which only guards internally computed steps.
    """
    grid = state.grid
    dr = grid.dr
    r = grid.centers

    internal_dt = dt is None
    if internal_dt:
        dt = stable_dt(gas, state, cfl)
    if not np.isfinite(dt) or dt <= 0 or (internal_dt and dt <= DT_FLOOR):
        raise BreakdownError(state.t, BreakdownCause.CFL_COLLAPSE)

    # Ghost cells: two per side to feed the optional MUSCL stencil.
    q_e = np.concatenate([state.rho_pert[1::-1], state.rho_pert, [0.0, 0.0]])
    mom_e = np.concatenate([-state.mom[1::-1], state.mom, [0.0, 0.0]])

    if muscl:
        d_q = np.diff(q_e)
        d_mom = np.diff(mom_e)
        s_q = _minmod(d_q[:-1], d_q[1:])
        s_mom = _minmod(d_mom[:-1], d_mom[1:])
        # Face j sits between extended cells j+1 and j+2.
        q_l = q_e[1:-2] + 0.5 * s_q[:-1]
        mom_l = mom_e[1:-2] + 0.5 * s_mom[:-1]
        q_r = q_e[2:-1] - 0.5 * s_q[1:]
        mom_r = mom_e[2:-1] - 0.5 * s_mom[1:]
    else:
        q_l, q_r = q_e[1:-2], q_e[2:-1]
        mom_l, mom_r = mom_e[1:-2], mom_e[2:-1]

    rho_l = gas.rho_bar + q_l
    rho_r = gas.rho_bar + q_r
    if np.any(rho_l <= 0) or np.any(rho_r <= 0):
        raise BreakdownError(state.t, BreakdownCause.NEGATIVE_DENSITY)

    u_l = mom_l / rho_l
    u_r = mom_r / rho_r
    p_l = gas.pressure(rho_l)
    p_r = gas.pressure(rho_r)
    c_l = np.sqrt(gas.sound_speed_sq(rho_l))
    c_r = np.sqrt(gas.sound_speed_sq(rho_r))
    s_max = np.maximum(np.abs(u_l) + c_l, np.abs(u_r) + c_r)

    f_rho = 0.5 * (mom_l + mom_r) - 0.5 * s_max * (q_r - q_l)
    f_adv = 0.5 * (mom_l * u_l + mom_r * u_r) - 0.5 * s_max * (mom_r - mom_l)
    p_face = 0.5 * (p_l + p_r)

    area = grid.faces**2
    inv_vol = 1.0 / (r**2 * dr)
    q_new = state.rho_pert - dt * (area[1:] * f_rho[1:] - area[:-1] * f_rho[:-1]) * inv_vol

    # Pressure flux relative to the cell's own pressure: this grouping is the
    # area-weighted pressure gradient plus the geometric 2p/r source, and it
    # vanishes identically on any state with uniform pressure.
    p_c = gas.pressure(state.rho)
    dp_l = p_face[:-1] - p_c
    dp_r = p_face[1:] - p_c
    mom_star = state.mom - dt * (
        (area[1:] * f_adv[1:] - area[:-1] * f_adv[:-1]) * inv_vol
        + (area[1:] * dp_r - area[:-1] * dp_l) * inv_vol
    )
    t_new = state.t + dt
    factor = float(np.exp(damping.log_integrating_factor(state.t) - damping.log_integrating_factor(t_new)))
    mom_new = mom_star * factor

    if np.any(gas.rho_bar + q_new <= DENSITY_FLOOR_FACTOR * gas.rho_bar):
        raise BreakdownError(t_new, BreakdownCause.NEGATIVE_DENSITY)
    if not (np.all(np.isfinite(q_new)) and np.all(np.isfinite(mom_new))):
        raise BreakdownError(t_new, BreakdownCause.NON_FINITE)

    spread = 2 * dr if muscl else dr
    support = min(state.support_radius + spread, grid.r_max)
    return RadialState(t_new, q_new, mom_new, support, grid, gas.rho_bar)


def max_velocity_gradient(state: RadialState) -> float:
    u = state.mom / state.rho
    return float(np.max(np.abs(np.diff(u)))) / state.grid.dr


def validate_horizon(
    gas: GasModel,
    profile: InitialProfile,
    grid: RadialGrid,
    t_end: float,
    state: RadialState | None = None,
) -> None:
    """Reject configurations whose waves could reach the outer boundary.

    Uses the finite-propagation bound: support M plus t_end times a wave-speed
    guess (1.2x the initial max of |u| + c) must stay inside r_max.
    """
    if state is None:
        state = init_state(gas, profile, grid)
    rho = state.rho
    u = state.mom / rho
    c = np.sqrt(gas.sound_speed_sq(rho))
    guess = 1.2 * float(np.max(np.abs(u) + c))
    if profile.M + t_end * guess >= grid.r_max:
        raise ValueError(
            f"grid.r_max={grid.r_max!r} too small: support {profile.M!r} plus "
            f"t_end*{guess!r} reaches the boundary before t_end={t_end!r}"
        )


def _series_monitors(extra: Mapping[str, Callable] | None) -> dict[str, Callable]:
    """The standard columns f(state, gas, damping), then ``extra``."""
    columns: dict[str, Callable] = {
        "L": lambda s, g, d: mon.mass_excess(s, g),
        "H": lambda s, g, d: mon.weighted_momentum(s),
        "E0": lambda s, g, d: mon.weighted_potential_energy(s, g, d),
        "min_rho": lambda s, g, d: float(np.min(s.rho)),
        "max_u": lambda s, g, d: float(np.max(np.abs(s.mom / s.rho))),
        "max_du_dr": lambda s, g, d: max_velocity_gradient(s),
    }
    for name, fn in (extra or {}).items():
        if name in columns or name in ("t", "dt"):
            raise ValueError(f"monitor name {name!r} collides with a standard column")
        columns[name] = fn
    return columns


def series(states: Sequence[RadialState], gas: GasModel, damping: DampingLaw, cfl: float,
           extra: Mapping[str, Callable] | None = None) -> dict[str, np.ndarray]:
    """Radial series columns, one value per state: L, H, E0, min_rho, max_u,
    max_du_dr, then ``extra``, then the CFL-stable ``dt`` of each state."""
    columns = {
        name: np.asarray([float(fn(s, gas, damping)) for s in states])
        for name, fn in _series_monitors(extra).items()
    }
    columns["dt"] = np.asarray([stable_dt(gas, s, cfl) for s in states])
    return columns


def run(
    gas: GasModel,
    damping: DampingLaw,
    profile: InitialProfile,
    grid: RadialGrid,
    t_end: float,
    cfl: float = 0.4,
    *,
    monitor_cadence: float = 0.5,
    monitors: Mapping[str, Callable] | None = None,
    muscl: bool = False,
    check_horizon: bool = True,
) -> RunResult:
    """Advance to ``t_end`` (or breakdown), sampling monitors on a fixed cadence.

    ``monitors`` maps column names to callables ``f(state, gas, damping)``;
    they are appended after the standard set (see :func:`series`).
    Snapshots are stored at the same cadence.  The verdict follows
    :func:`critdamp.outcome.march` with max |du/dr| as the gradient (its
    trigger is off for velocity-free data, which starts trivially smooth).
    """
    if not t_end > 0:
        raise ValueError("t_end must be positive")
    if not 0.0 < cfl <= 0.9:
        raise ValueError("cfl must lie in (0, 0.9]")
    if not monitor_cadence > 0:
        raise ValueError("monitor_cadence must be positive")
    _series_monitors(monitors)  # reject colliding names before stepping

    state = init_state(gas, profile, grid)
    if check_horizon:
        validate_horizon(gas, profile, grid, t_end, state)

    snapshots: list[RadialState] = []

    def sample(s: RadialState, t: float) -> None:
        s.t = t  # march lands exactly on t; the next step starts from there
        snapshots.append(s.copy())

    verdict = march(state, t_end, sample_times(t_end, monitor_cadence), lambda s: stable_dt(gas, s, cfl),
                    lambda s, t, dt: step(gas, damping, s, cfl, dt=dt, muscl=muscl),
                    max_velocity_gradient, sample)
    columns = series(snapshots, gas, damping, cfl, monitors)
    return RunResult(np.asarray([s.t for s in snapshots]), columns, snapshots, verdict)
