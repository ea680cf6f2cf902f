"""Scalar functionals of radial states: weighted moments of the density and
momentum, the large-data blowup criterion, and the time-weighted potential
energy.  All are pure functions of immutable snapshots and trivially parallel.

Radial reductions used throughout (state quantities depend on r = |x| only):

    density moment      P(t, l) = 4 pi   int_l^inf r (r-l)^2 (rho - rho_bar) dr
    pressure moment     G(t, l) = 8 pi   int_l^inf r (p - p_bar - (rho - rho_bar)) dr
    weighted momentum   H(t)    = 4 pi   int_0^inf r^3 (rho u) dr
    mass excess         L(t)    = 4 pi   int_0^inf r^2 (rho - rho_bar) dr

Discrete integrals use the midpoint rule on the solver grid with an exact
split of the cell containing r = l, which keeps the moments C^1 in l.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .damping import DampingLaw
from .gas import GasModel
from .numerics import adaptive_quad, time_integral

FOUR_PI = 4.0 * np.pi


@dataclass(frozen=True, eq=False)
class FunctionalSeries:
    """Named time series of a scalar functional."""

    name: str
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")


@dataclass(frozen=True)
class CriterionReport:
    """Large-data blowup criterion: satisfied iff H0 * integral_value > 1."""

    h0: float
    l0: float
    t_star: float
    integral_value: float
    satisfied: bool

    def __post_init__(self) -> None:
        if self.satisfied != (self.h0 * self.integral_value > 1.0):
            raise ValueError("satisfied flag inconsistent with H0 * integral > 1")

    def text_block(self) -> str:
        return (
            f"H0 = {float(self.h0)!r}\n"
            f"L0 = {float(self.l0)!r}\n"
            f"T_star = {float(self.t_star)!r}\n"
            f"integral_value = {float(self.integral_value)!r}\n"
            f"satisfied = {'true' if self.satisfied else 'false'}\n"
        )


def _split_cells(state, l: float) -> tuple[np.ndarray, np.ndarray]:
    """Midpoints and widths of the integration segments of [l, r_max].

    Whole cells above l keep their centers/width; the cell containing l is
    split at l and represented by the midpoint of its surviving part.
    """
    if l < 0:
        raise ValueError("l must be nonnegative")
    grid = state.grid
    dr = grid.dr
    faces = grid.faces
    if l >= grid.r_max:
        return np.empty(0), np.empty(0)
    i0 = min(int(l / dr), grid.n_cells - 1)
    mids = grid.centers[i0:].copy()
    widths = np.full(mids.shape, dr)
    cut = max(l, faces[i0])
    widths[0] = max(faces[i0 + 1] - cut, 0.0)
    mids[0] = 0.5 * (cut + faces[i0 + 1])
    return mids, widths


def density_moment(state, gas: GasModel, l: float) -> float:
    """P(t, l) = 4 pi int_l^inf r (r-l)^2 (rho - rho_bar) dr on the discrete state."""
    mids, widths = _split_cells(state, l)
    i0 = state.grid.n_cells - mids.size
    excess = state.rho[i0:] - gas.rho_bar
    return FOUR_PI * float(np.sum(mids * (mids - l) ** 2 * excess * widths))


def pressure_excess_moment(state, gas: GasModel, l: float) -> float:
    """G(t, l) = 8 pi int_l^inf r (p - p_bar - (rho - rho_bar)) dr; nonnegative."""
    mids, widths = _split_cells(state, l)
    i0 = state.grid.n_cells - mids.size
    excess = gas.pressure_excess(state.rho[i0:])
    return 2.0 * FOUR_PI * float(np.sum(mids * excess * widths))


def initial_density_moment(profile, gas: GasModel, l: float) -> float:
    """Same moment as :func:`density_moment` evaluated on the smooth initial
    profile by adaptive quadrature over [l, M]."""
    if l < 0:
        raise ValueError("l must be nonnegative")
    if l >= profile.M:
        return 0.0
    eps = profile.epsilon

    def integrand(r):
        return r * (r - l) ** 2 * eps * np.asarray(profile.rho0(r))

    return FOUR_PI * adaptive_quad(integrand, l, profile.M)


def initial_momentum_moment(profile, gas: GasModel, l: float) -> float:
    """4 pi int_l^M (r^2 - l^2) (rho u)(0, r) dr from the smooth initial profile."""
    if l < 0:
        raise ValueError("l must be nonnegative")
    if l >= profile.M:
        return 0.0
    eps = profile.epsilon

    def integrand(r):
        rho = gas.rho_bar + eps * np.asarray(profile.rho0(r))
        return (r * r - l * l) * rho * eps * np.asarray(profile.u0(r))

    return FOUR_PI * adaptive_quad(integrand, l, profile.M)


def moment_band(state, gas: GasModel, m0: float, m: float, n_l: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Sample P(t, l) for l uniform on [t + m0, t + m] (one slice per state)."""
    ls = np.linspace(state.t + m0, state.t + m, n_l)
    vals = np.array([density_moment(state, gas, l) for l in ls])
    return ls, vals


def double_time_integral(
    slices: Sequence[tuple[float, np.ndarray, np.ndarray]],
    m0: float,
    m: float,
) -> tuple[FunctionalSeries, FunctionalSeries]:
    """F(t) = int_0^t (t - tau) B(tau) dtau with B the band integral
    int_{tau+m0}^{tau+m} P(tau, l) dl/l.

    ``slices`` holds (t, l-grid, P values) samples; the band integral uses the
    trapezoid rule in l, and F the trapezoid rule in tau.  Returns (F, B):
    with this quadrature the second difference of F reproduces B exactly on a
    uniform time grid, so B doubles as the F'' reference series.
    """
    if len(slices) < 3:
        raise ValueError("at least 3 time samples are required")
    times = np.array([s[0] for s in slices], dtype=float)
    if np.any(np.diff(times) <= 0):
        raise ValueError("slice times must be strictly increasing")
    band = np.empty(len(slices))
    for i, (t_i, ls, vals) in enumerate(slices):
        ls = np.asarray(ls, dtype=float)
        vals = np.asarray(vals, dtype=float)
        if abs(ls[0] - (t_i + m0)) > 1e-9 * (1 + abs(ls[0])) or abs(ls[-1] - (t_i + m)) > 1e-9 * (1 + abs(ls[-1])):
            raise ValueError("slice l-grid must span [t + M0, t + M]")
        band[i] = float(np.trapezoid(vals / ls, ls))

    f_vals = np.empty(len(times))
    for k, t_k in enumerate(times):
        f_vals[k] = float(np.trapezoid((t_k - times[: k + 1]) * band[: k + 1], times[: k + 1])) if k else 0.0
    return (
        FunctionalSeries("F", times, f_vals),
        FunctionalSeries("F_band", times, band),
    )


def weighted_momentum(state) -> float:
    """H(t) = 4 pi int r^3 (rho u) dr (midpoint rule)."""
    r = state.grid.centers
    return FOUR_PI * float(np.sum(r**3 * state.mom) * state.grid.dr)


def mass_excess(state, gas: GasModel) -> float:
    """L(t) = 4 pi int r^2 (rho - rho_bar) dr (midpoint rule); conserved along runs."""
    r = state.grid.centers
    return FOUR_PI * float(np.sum(r**2 * (state.rho - gas.rho_bar)) * state.grid.dr)


def cauchy_schwarz_weight(t: float, m: float, l0: float, gas: GasModel) -> float:
    """alpha(t) = (t+M)^2 (L0 + (4 pi^2 rho_bar / 3)(t+M)^3).

    This is the weight the Cauchy-Schwarz bound on H(t) produces from the
    support ball |x| <= t + M.
    """
    tm = t + m
    return tm * tm * (l0 + (4.0 * np.pi**2 * gas.rho_bar / 3.0) * tm**3)


def blowup_criterion(
    h0: float,
    l0: float,
    m: float,
    damping: DampingLaw,
    gas: GasModel,
    t_star: float,
) -> CriterionReport:
    """Evaluate H0 * int_0^T* dtau / (alpha(tau) beta(tau)) > 1.

    The integral is taken in log time (``numerics.time_integral``), which
    resolves every decade of a large T* alike.

    When satisfied, no smooth solution with these initial functionals can
    reach t = T*.  Requires L0 >= 0; the integrand is positive, so a satisfied
    report stays satisfied for every larger T*.
    """
    if l0 < 0:
        raise ValueError("the criterion requires L0 >= 0")
    if not t_star > 0:
        raise ValueError("T_star must be positive")

    def integrand(tau):
        tau = np.asarray(tau, dtype=float)
        return np.exp(-damping.log_integrating_factor(tau)) / cauchy_schwarz_weight(tau, m, l0, gas)

    integral = time_integral(integrand, t_star)
    return CriterionReport(h0, l0, t_star, integral, h0 * integral > 1.0)


def weighted_potential_energy(state, gas: GasModel, damping: DampingLaw) -> float:
    """Lowest time-weighted energy of the rescaled flow potential.

    The potential is phi(t, r) = -int_r^inf u ds (so phi' = u and phi vanishes
    outside the support); its time derivative comes from the Bernoulli
    relation  d_t phi = -(u^2/2 + h(rho) + mu (1+t)^-lam phi)  rather than
    from numerical time differencing, which keeps the monitor free of
    cadence-coupled noise.  With psi = phi / (1+t)^lam,

        E0 = 4 pi int r^2 ( (1+t)^(2 lam) ((d_t psi)^2 + (d_r psi)^2) + psi^2 ) dr.
    """
    grid = state.grid
    r = grid.centers
    dr = grid.dr
    t = state.t
    u = state.mom / state.rho

    tail = np.cumsum(u[::-1])[::-1] * dr
    phi = -(tail - 0.5 * u * dr)
    coeff = damping.mu * (1.0 + t) ** (-damping.lam)
    dphi_dt = -(0.5 * u * u + gas.enthalpy(state.rho) + coeff * phi)

    scale = (1.0 + t) ** (-damping.lam)
    psi = phi * scale
    dpsi_dt = dphi_dt * scale - damping.lam * phi * scale / (1.0 + t)
    dpsi_dr = u * scale
    weight = (1.0 + t) ** (2.0 * damping.lam)
    density = weight * (dpsi_dt**2 + dpsi_dr**2) + psi**2
    return FOUR_PI * float(np.sum(r**2 * density) * dr)
