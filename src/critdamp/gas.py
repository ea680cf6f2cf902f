"""Polytropic gas law and the enthalpy algebra shared by solvers and monitors.

The pressure constant is always derived from (gamma, rho_bar) so that the
background sound speed is exactly 1; every downstream formula relies on that
normalization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _check_density(rho) -> None:
    if np.any(~(np.asarray(rho) > 0)):
        raise ValueError("density must be positive")


@dataclass(frozen=True)
class GasModel:
    """Polytropic gas p = A * rho**gamma with c(rho_bar) = 1.

    ``A`` is computed as 1/(gamma * rho_bar**(gamma-1)) and cannot be supplied:
    user-chosen values would silently break the unit-sound-speed normalization.
    Instances are immutable.
    """

    gamma: float
    rho_bar: float
    A: float = field(init=False)

    def __post_init__(self) -> None:
        if not 1 < self.gamma < np.inf:
            raise ValueError("gamma must be finite and exceed 1")
        if not 0 < self.rho_bar < np.inf:
            raise ValueError("rho_bar must be finite and positive")
        object.__setattr__(self, "A", 1.0 / (self.gamma * self.rho_bar ** (self.gamma - 1.0)))

    def pressure(self, rho):
        """Pressure A * rho**gamma; rho may be a scalar or ndarray."""
        _check_density(rho)
        return self.pressure_of_ratio(self._ratio(rho))

    def sound_speed_sq(self, rho):
        """Squared sound speed p'(rho) = (rho/rho_bar)**(gamma-1); equals 1 at rho_bar."""
        _check_density(rho)
        return self.sound_speed_sq_of_ratio(self._ratio(rho))

    def _ratio(self, rho):
        return (np.asarray(rho) if np.ndim(rho) else rho) / self.rho_bar

    def pressure_of_ratio(self, x):
        """Pressure at the density ratio x = rho/rho_bar > 0 (unchecked), as
        (rho_bar/gamma) * x**gamma: A * rho**gamma overflows in rho**gamma
        once rho_bar passes about 1e154 (gamma = 2), where p stays finite."""
        return (self.rho_bar / self.gamma) * x**self.gamma

    def sound_speed_sq_of_ratio(self, x):
        """Squared sound speed at the density ratio x = rho/rho_bar > 0 (unchecked)."""
        return np.exp((self.gamma - 1.0) * np.log(x))

    def enthalpy(self, rho):
        """Specific enthalpy: primitive of c^2(rho)/rho vanishing at rho_bar.

        Evaluated as expm1((gamma-1) log(rho/rho_bar))/(gamma-1), which is the
        closed form (c^2 - 1)/(gamma-1) written to stay accurate near rho_bar.
        """
        _check_density(rho)
        return np.expm1((self.gamma - 1.0) * np.log(np.asarray(rho) / self.rho_bar)) / (self.gamma - 1.0)

    def pressure_excess(self, rho):
        """p(rho) - p(rho_bar) - (rho - rho_bar); nonnegative for all rho > 0.

        For relative deviations below 1/4 the value is the tail of the binomial
        series of (1+d)**gamma, which avoids the catastrophic cancellation of
        the literal three-term difference (the quantity is O(d^2) while each
        term is O(d)).  For gamma = 2 this reduces exactly to A*(rho-rho_bar)**2.
        """
        _check_density(rho)
        scalar = np.ndim(rho) == 0
        rho_arr = np.atleast_1d(np.asarray(rho, dtype=float))
        d = (rho_arr - self.rho_bar) / self.rho_bar
        out = np.empty_like(d)

        small = np.abs(d) <= 0.25
        if np.any(small):
            ds = d[small]
            # Sum_{k>=2} binom(gamma, k) d^k via the coefficient recurrence.
            coef = self.gamma * (self.gamma - 1.0) / 2.0
            term = coef * ds * ds
            acc = term.copy()
            dk = ds * ds
            for k in range(2, 80):
                coef *= (self.gamma - k) / (k + 1.0)
                dk = dk * ds
                term = coef * dk
                acc += term
                if np.all(np.abs(term) <= 1e-30 * (1.0 + np.abs(acc))):
                    break
            out[small] = acc
        big = ~small
        if np.any(big):
            db = d[big]
            out[big] = (1.0 + db) ** self.gamma - 1.0 - self.gamma * db
        out *= self.rho_bar / self.gamma  # = A * rho_bar**gamma, which overflows
        return float(out[0]) if scalar else out
