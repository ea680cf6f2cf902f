"""The nonlinear damped radial solver against manufactured solutions (Roache,
"Code verification by the method of manufactured solutions", J. Fluids Eng.
124 (2002); Salari and Knupp, SAND2000-1444 (2000)).

    rho = 1 + a r^2 e^(-r^2) (2 + cos 2t) / 3,    u = a r e^(-r^2) sin 2t

solve the damped radial equations with p = rho^gamma / gamma (rho_bar = 1)
once their residual is added as a source:

    S_rho = rho_t + (r^2 rho u)_r / r^2
    S_mom = (rho u)_t + (r^2 rho u^2)_r / r^2 + p_r + mu (1+t)^(-lambda) rho u

The family is nonzero on every cell (about 5e-22 at r = 7), so the window
is the grid from the start.  The error is the relative L1 norm in r^2 dr
against exact cell averages, taken as ``init_state`` takes them.
"""

import math

import numpy as np
import pytest

from critdamp import DampingLaw, GasModel, Global, RadialGrid, RadialState
from critdamp.damping import StepFactor
from critdamp.euler import _cell_weighted_average
from helpers import source_run

A, R_MAX, CFL, T_END = 0.3, 7.0, 0.4, 1.5


def exact(t, r):
    """(rho - 1, rho u) of the family."""
    g = np.exp(-r * r)
    pert = A * r * r * g * (2.0 + math.cos(2.0 * t)) / 3.0
    return pert, (1.0 + pert) * A * r * g * math.sin(2.0 * t)


def manufactured_source(gamma, law):
    """(S_rho, S_mom) of the family, written out: with m = rho u,
    (r^2 m)_r / r^2 = m_r + 2 m / r and (r^2 m u)_r / r^2 = m_r u + m u_r + 2 m u / r,
    where u / r = a e^(-r^2) sin 2t."""
    def source(t, r):
        g = np.exp(-r * r)
        amp, amp_t = (2.0 + math.cos(2.0 * t)) / 3.0, -2.0 * math.sin(2.0 * t) / 3.0
        vel, vel_t = math.sin(2.0 * t), 2.0 * math.cos(2.0 * t)
        rho = 1.0 + A * r * r * g * amp
        rho_t = A * r * r * g * amp_t
        rho_r = 2.0 * A * r * g * (1.0 - r * r) * amp
        u_over_r = A * g * vel
        u, u_t, u_r = r * u_over_r, A * r * g * vel_t, A * g * (1.0 - 2.0 * r * r) * vel
        m = rho * u
        m_t, m_r = rho_t * u + rho * u_t, rho_r * u + rho * u_r
        s_rho = rho_t + m_r + 2.0 * m / r
        s_mom = (m_t + m_r * u + m * u_r + 2.0 * m * u_over_r + rho ** (gamma - 1.0) * rho_r
                 + law.mu * (1.0 + t) ** -law.lam * m)
        return s_rho, s_mom

    return source


def errors(gamma, mu, lam, n_cells):
    """Relative L1 errors in r^2 dr of (rho - 1, mom) at T_END on n_cells."""
    gas, law, grid = GasModel(gamma, 1.0), DampingLaw(mu, lam), RadialGrid(R_MAX, n_cells)
    pert0, mom0 = (_cell_weighted_average(lambda r, k=k: exact(0.0, r)[k], grid) for k in (0, 1))
    snapshots, verdict = source_run(gas, law, RadialState(0.0, pert0, mom0, grid, 1.0), T_END, CFL,
                                    manufactured_source(gamma, law))
    assert verdict == Global() and snapshots[-1].t == T_END
    weight = grid.centers**2
    out = []
    for k, got in enumerate((snapshots[-1].rho_pert, snapshots[-1].mom)):
        want = _cell_weighted_average(lambda r: exact(T_END, r)[k], grid)
        out.append(np.sum(np.abs(got - want) * weight) / np.sum(np.abs(want) * weight))
    return out


def observed_orders(gamma, mu, lam):
    """log2 of the error ratio of (rho - 1, mom) from 512 to 1,024 cells."""
    return [math.log2(c / f) for c, f in zip(errors(gamma, mu, lam, 512), errors(gamma, mu, lam, 1024))]


@pytest.mark.parametrize("gamma, mu, lam", [(2.0, 1.0, 0.0), (2.0, 2.0, 1.0), (1.4, 1.0, 1.5), (2.0, 5.0, 3.0)])
def test_damped_radial_solver_converges_to_a_manufactured_solution(gamma, mu, lam):
    # first order in space and time, for damping that decays slower than,
    # at and faster than the critical lambda = 1, and at a gamma off 2
    rho_order, mom_order = observed_orders(gamma, mu, lam)
    assert rho_order >= 0.95 and mom_order >= 0.95


def test_manufactured_solution_fails_a_solver_without_damping(monkeypatch):
    # the same study fails a solver that leaves the momentum undamped: its
    # momentum error does not fall with the grid
    monkeypatch.setattr(StepFactor, "__call__", lambda self, law, t0, t1: 1.0)
    _, mom_order = observed_orders(2.0, 2.0, 1.0)
    assert mom_order < 0.1
