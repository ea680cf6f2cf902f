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

import math
import sys
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

    The integral is taken in log(1 + tau/s) (``numerics.time_integral`` in
    units of s), s = min(M, 1) the shorter of the integrand's length scales:
    the support M in alpha and the damping's 1 + tau.  So every decade of
    tau/s is resolved alike, however small M or large T*; for M >= 1 the
    scaling is exact.  Past tau = s * float max the integrand (at most
    1/alpha ~ tau^-5) adds nothing.

    When satisfied, no smooth solution with these initial functionals can
    reach t = T*.  Requires L0 >= 0, and alpha(0) with a finite reciprocal (a
    ValueError otherwise); the integrand is positive, so a satisfied report
    stays satisfied for every larger T*.
    """
    if l0 < 0:
        raise ValueError("the criterion requires L0 >= 0")
    if not t_star > 0:
        raise ValueError("T_star must be positive")
    weight = cauchy_schwarz_weight(0.0, m, l0, gas)
    if not weight > 1.0 / sys.float_info.max:
        raise ValueError(f"the criterion weight alpha(0) = {weight!r} has no finite reciprocal")

    # the integrand peaks at 1/alpha(0); past 1, 2^k is factored out of it so
    # that the quadrature's weighted sums of values stay finite
    k = max(0, math.frexp(1.0 / weight)[1])

    def integrand(tau):
        tau = np.asarray(tau, dtype=float)
        return np.ldexp(np.exp(-damping.log_integrating_factor(tau)) / cauchy_schwarz_weight(tau, m, l0, gas), -k)

    s = min(m, 1.0)
    integral = math.ldexp(s * time_integral(lambda x: integrand(s * x), min(t_star / s, sys.float_info.max)), k)
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
    row j at ``times[j]``; its powers of 1 + t are Python floats, as for one
    state.  An OverflowError names the first time whose weight passes the
    float range."""
    dr = grid.dr
    powers = [_powers_of_one_plus_t(t, damping.lam) for t in times]
    one_t, scale, weight = (np.array(column)[:, None] for column in zip(*powers))

    # the one-state formulas in the operand order written there, in place where
    # a temporary the size of a stack (up to about 16,384 cells) would be kept
    phi = np.cumsum(u[:, ::-1], axis=1)[:, ::-1] * dr
    phi -= 0.5 * u * dr
    np.negative(phi, out=phi)
    dpsi_dt = 0.5 * u * u
    dpsi_dt += gas.enthalpy(rho)
    dpsi_dt += damping.mu * scale * phi
    np.negative(dpsi_dt, out=dpsi_dt)  # d_t phi
    dpsi_dt *= scale
    dpsi_dt -= damping.lam * phi * scale / one_t
    psi = phi
    psi *= scale
    density = u * scale  # d_r psi
    density **= 2
    dpsi_dt **= 2
    density += dpsi_dt
    del dpsi_dt
    density *= weight
    psi **= 2
    density += psi
    density *= grid.centers**2
    return FOUR_PI * (np.sum(density, axis=1) * dr)


def _powers_of_one_plus_t(t: float, lam: float) -> tuple[float, float, float]:
    """1 + t, (1 + t)**-lam and the weight (1 + t)**(2 lam) of E0 at time t >= 0."""
    try:
        return 1.0 + t, (1.0 + t) ** (-lam), (1.0 + t) ** (2.0 * lam)
    except OverflowError:  # 2 lam log(1 + t) > log(float max)
        raise OverflowError(f"the E0 weight (1 + t)**(2 lambda) overflows at t={t!r}") from None
