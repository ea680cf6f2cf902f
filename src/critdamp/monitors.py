"""Scalar functionals of radial states: the weighted momentum, the mass
excess, the Cauchy-Schwarz weight and large-data blowup criterion, and the
time-weighted potential energy.  All are pure functions of immutable
snapshots.

Radial reductions used throughout (state quantities depend on r = |x| only):

    weighted momentum   H(t)    = 4 pi   int_0^inf r^3 (rho u) dr
    mass excess         L(t)    = 4 pi   int_0^inf r^2 (rho - rho_bar) dr

Discrete integrals use the midpoint rule on the solver grid.  H, L and E0
are written once, over the rows of C-order (k, n_cells) stacks on one grid
(``*_rows``, each row summed as one state's array); a state is one row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .damping import DampingLaw
from .gas import GasModel
from .numerics import time_integral

FOUR_PI = 4.0 * np.pi


@dataclass(frozen=True)
class CriterionReport:
    """Large-data blowup criterion at T* = ``t_star``; satisfied iff H0 * integral_value > 1."""

    h0: float
    l0: float
    t_star: float
    integral_value: float

    @property
    def satisfied(self) -> bool:
        return self.h0 * self.integral_value > 1.0

    def text_block(self) -> str:
        return (
            f"H0 = {float(self.h0)!r}\n"
            f"L0 = {float(self.l0)!r}\n"
            f"T_star = {float(self.t_star)!r}\n"
            f"integral_value = {float(self.integral_value)!r}\n"
            f"satisfied = {'true' if self.satisfied else 'false'}\n"
        )


def weighted_momentum_rows(grid, mom: np.ndarray) -> np.ndarray:
    """H of each row of a C-order (k, n_cells) stack of momenta on ``grid``."""
    return FOUR_PI * (np.sum(grid.centers**3 * mom, axis=1) * grid.dr)


def weighted_momentum(state) -> float:
    """H(t) = 4 pi int r^3 (rho u) dr (midpoint rule)."""
    return float(weighted_momentum_rows(state.grid, state.mom[None])[0])


def mass_excess_rows(grid, rho: np.ndarray, gas: GasModel) -> np.ndarray:
    """L of each row of a C-order (k, n_cells) stack of densities on ``grid``."""
    return FOUR_PI * (np.sum(grid.centers**2 * (rho - gas.rho_bar), axis=1) * grid.dr)


def mass_excess(state, gas: GasModel) -> float:
    """L(t) = 4 pi int r^2 (rho - rho_bar) dr (midpoint rule); conserved along runs."""
    return float(mass_excess_rows(state.grid, state.rho[None], gas)[0])


def cauchy_schwarz_weight(t: float, m: float, l0: float, gas: GasModel) -> float:
    """alpha(t) = (t+M)^2 (L0 + (4 pi^2 rho_bar / 3)(t+M)^3).

    This is the weight the Cauchy-Schwarz bound on H(t) produces from the
    support ball |x| <= t + M.
    """
    tm = t + m
    with np.errstate(over="ignore"):  # inf is the limit: the criterion integrand tends to 0
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
    return CriterionReport(h0, l0, t_star, integral)


def weighted_potential_energy(state, gas: GasModel, damping: DampingLaw) -> float:
    """Lowest time-weighted energy of the rescaled flow potential.

    The potential is phi(t, r) = -int_r^inf u ds (so phi' = u and phi vanishes
    outside the support); its time derivative comes from the Bernoulli
    relation  d_t phi = -(u^2/2 + h(rho) + mu (1+t)^-lam phi)  rather than
    from numerical time differencing, which keeps the monitor free of
    cadence-coupled noise.  With psi = phi / (1+t)^lam,

        E0 = 4 pi int r^2 ( (1+t)^(2 lam) ((d_t psi)^2 + (d_r psi)^2) + psi^2 ) dr.
    """
    rho = state.rho[None]
    return float(weighted_potential_energy_rows(state.grid, [state.t], rho, state.mom / rho, gas, damping)[0])


def weighted_potential_energy_rows(grid, times, rho, u, gas: GasModel, damping: DampingLaw) -> np.ndarray:
    """E0 of each row of C-order (k, n_cells) stacks of ``rho`` > 0 and ``u``,
    row j at ``times[j]``; its powers of 1 + t are Python floats, as for one state."""
    dr = grid.dr
    powers = [(1.0 + t, (1.0 + t) ** (-damping.lam), (1.0 + t) ** (2.0 * damping.lam)) for t in times]
    one_t, scale, weight = (np.array(column)[:, None] for column in zip(*powers))

    tail = np.cumsum(u[:, ::-1], axis=1)[:, ::-1] * dr
    phi = -(tail - 0.5 * u * dr)
    dphi_dt = -(0.5 * u * u + gas.enthalpy(rho) + damping.mu * scale * phi)

    psi = phi * scale
    dpsi_dt = dphi_dt * scale - damping.lam * phi * scale / one_t
    dpsi_dr = u * scale
    density = weight * (dpsi_dt**2 + dpsi_dr**2) + psi**2
    return FOUR_PI * (np.sum(grid.centers**2 * density, axis=1) * dr)
