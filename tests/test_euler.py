import dataclasses
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from critdamp import (
    BurgersProblem,
    DampingLaw,
    GasModel,
    Global,
    InitialProfile,
    NumericalBreakdown,
    RadialGrid,
    euler,
    init_state,
    run,
    step,
)
from critdamp.csvio import read_radial_snapshots, write_radial_snapshots
from critdamp.euler import (
    _STACK_CELLS,
    RadialState,
    _wave_speed,
    _Window,
    _Workspace,
    max_velocity_gradient,
    series,
    stable_dt,
    validate_horizon,
)
from critdamp.monitors import FOUR_PI, mass_excess, weighted_momentum, weighted_potential_energy
from critdamp.outcome import BreakdownCause, BreakdownError, sample_times
from critdamp.profiles import _smooth_step, line_bump, mollifier, radial_bump, radial_outgoing_shell, radial_shell
from helpers import (
    composite_simpson,
    full_grid_max_speed,
    full_grid_max_velocity_gradient,
    full_grid_run,
    full_grid_stable_dt,
    full_grid_step,
    momentum_ode_residual,
    one_state_series,
    SERIES_NAMES,
)

GAS = GasModel(gamma=2.0, rho_bar=1.0)
LAW = DampingLaw(mu=1.0, lam=0.5)
# a RadialState is plain data: what it holds, and nothing of a workspace
STATE_FIELDS = {"t", "rho_pert", "mom", "grid", "rho_bar"}


def bump_profile(epsilon):
    rho0, u0 = radial_bump(1.0)
    return InitialProfile(rho0, u0, epsilon=epsilon, M=1.0)


def shell_profile(epsilon):
    rho0, u0 = radial_outgoing_shell(0.3, 1.0)
    return InitialProfile(rho0, u0, epsilon=epsilon, M=1.0, M0=0.3)


# ---------------------------------------------------------------- init

def test_init_zero_perturbation_is_constant():
    grid = RadialGrid(10.0, 64)
    s = init_state(GAS, bump_profile(0.0), grid)
    assert np.all(s.rho == GAS.rho_bar)
    assert np.all(s.mom == 0.0)


def test_init_mass_matches_quadrature():
    # discrete mass of the initialized state vs exact integral 4 pi eps int r^2 rho0
    rho0, _ = radial_bump(1.0)
    grid = RadialGrid(8.0, 512)
    s = init_state(GAS, bump_profile(0.1), grid)
    disc = 4 * np.pi * float(np.sum(grid.centers**2 * s.rho_pert) * grid.dr)
    exact = 4 * np.pi * 0.1 * composite_simpson(lambda r: r**2 * rho0(r), 0.0, 1.0, 400_000)
    assert disc == pytest.approx(exact, abs=1e-8)


def test_init_rejects_vacuum_data():
    rho0, u0 = radial_bump(1.0)
    deep = InitialProfile(lambda r: -10.0 * np.asarray(rho0(r)), u0, epsilon=1.0, M=1.0)
    with pytest.raises(ValueError):
        init_state(GAS, deep, RadialGrid(8.0, 128))


@pytest.mark.parametrize("epsilon", [1e200, 1e300])
def test_init_rejects_overflowing_data(epsilon):
    # eps**2 * rho0 overflows to inf, and inf * (u0 = 0) leaves NaN cell averages
    for profile in (bump_profile(epsilon), shell_profile(epsilon)):
        with pytest.raises(ValueError, match="not finite"):
            init_state(GAS, profile, RadialGrid(8.0, 128))


# ---------------------------------------------------------------- stepping

FLOAT_MAX = np.finfo(float).max


@settings(max_examples=60, deadline=None)
@given(gamma=st.floats(1.0, 3.0, exclude_min=True), rho_bar=st.floats(-300.0, 308.25).map(lambda e: 10.0**e),
       law=st.sampled_from([LAW, DampingLaw(0.0, 0.0), DampingLaw(3.0, 2.0)]) | st.builds(
           DampingLaw, st.floats(0.0, 10.0), st.floats(0.0, 3.0)),
       n_cells=st.integers(32, 128), cfl=st.floats(0.1, 0.9), muscl=st.booleans())
@example(gamma=2.0, rho_bar=FLOAT_MAX, law=LAW, n_cells=64, cfl=0.4, muscl=False)
@example(gamma=1.1, rho_bar=1.7e308, law=LAW, n_cells=64, cfl=0.4, muscl=False)
def test_constant_state_is_exact_fixed_point(gamma, rho_bar, law, n_cells, cfl, muscl):
    # a bare step, and every step of a run, leaves the constant state
    # (rho_bar, 0) at +0.0 by its bits, as p_face - p_c is exactly 0 there,
    # whatever the gas, law, grid, cfl or order; a run rejects a background
    # pressure rho_bar / gamma past half the float range, where 0.5 (p_l + p_r) overflows
    gas = GasModel(gamma, rho_bar)
    s = init_state(gas, bump_profile(0.0), RadialGrid(10.0, n_cells))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if rho_bar / gamma > FLOAT_MAX / 2:
            with pytest.raises(ValueError, match="rho_bar"):
                run(gas, law, s, 1.0, cfl, muscl=muscl)
            return
        snapshots, verdict = run(gas, law, s, 1.0, cfl, snapshot_times=sample_times(1.0, 0.25), muscl=muscl)
        bare = step(gas, law, s, cfl, muscl=muscl)
    assert verdict == Global()
    assert len(snapshots) == 5
    for snap in [bare, *snapshots]:
        assert snap.rho_pert.tobytes() == snap.mom.tobytes() == bytes(8 * n_cells)


def test_step_second_order_self_consistency():
    # one dt step vs two dt/2 steps differ at O(dt^2): halving dt quarters the gap
    grid = RadialGrid(12.0, 256)
    s = init_state(GAS, shell_profile(0.1), grid)

    def gap(dt):
        a = step(GAS, LAW, s, 0.4, dt=dt)
        b = step(GAS, LAW, step(GAS, LAW, s, 0.4, dt=dt / 2), 0.4, dt=dt / 2)
        return np.max(np.abs(a.rho_pert - b.rho_pert)) + np.max(np.abs(a.mom - b.mom))

    ratio = gap(0.01) / gap(0.005)
    assert 3.3 <= ratio <= 4.7


def test_momentum_zero_beyond_support():
    # the initial support ends on the outer face of the cell holding M, and a
    # first-order step moves it by at most one cell
    grid = RadialGrid(20.0, 256)
    s = init_state(GAS, shell_profile(0.1), grid)
    for _ in range(30):
        s = step(GAS, LAW, s, 0.4)
    bound = math.ceil(1.0 / grid.dr) * grid.dr + 30 * grid.dr
    outside = grid.centers > bound
    assert outside.any()
    assert np.all(s.mom[outside] == 0.0)
    assert np.all(s.rho_pert[outside] == 0.0)


def test_mass_conserved_along_run():
    grid = RadialGrid(30.0, 512)
    snapshots, verdict = run(GAS, LAW, init_state(GAS, bump_profile(0.1), grid), t_end=20.0, cfl=0.4,
                             snapshot_times=sample_times(20.0, 2.0))
    L = series(snapshots, GAS, LAW, 0.4)["L"]
    assert isinstance(verdict, Global)
    assert np.max(np.abs(L - L[0])) <= 1e-10 * abs(L[0])


# A bump of drawn sign, centre and width inside r < 1.
BUMPS = st.tuples(st.floats(-1.0, 1.0), st.floats(0.1, 0.9), st.floats(0.05, 0.3))


def bump(amplitude, centre, width):
    width = min(width, 1.0 - centre)
    return lambda r: amplitude * mollifier((r - centre) / width)


@settings(max_examples=25, deadline=None)
@given(rho_bump=BUMPS, u_bump=BUMPS, eps=st.floats(0.01, 0.5), mu=st.floats(0.0, 2.0),
       lam=st.floats(0.0, 3.0), r_max=st.floats(3.0, 8.0), n_cells=st.integers(64, 256))
def test_mass_conserved_for_random_smooth_data(rho_bump, u_bump, eps, mu, lam, r_max, n_cells):
    # 30 steps move the wave at most 30 cells past r = 1, short of r_max
    s = init_state(GAS, InitialProfile(bump(*rho_bump), bump(*u_bump), epsilon=eps, M=1.0),
                   RadialGrid(r_max, n_cells))
    law = DampingLaw(mu, lam)
    masses = [mass_excess(s, GAS)]
    for _ in range(30):
        s = step(GAS, law, s, 0.4)
        masses.append(mass_excess(s, GAS))
    # round-off: mass_excess rounds each rho to an ulp before subtracting
    # rho_bar, so the bound scales with the mass of the cells the wave touched
    r = s.grid.centers
    touched = (s.rho_pert != 0.0) | (s.mom != 0.0)
    mass = FOUR_PI * s.grid.dr * float(np.sum(r**2 * s.rho * touched))
    assert not touched[-1]
    assert max(abs(m - masses[0]) for m in masses) <= 8 * np.finfo(float).eps * mass


def test_run_zero_perturbation_constant_series():
    grid = RadialGrid(16.0, 64)
    snapshots, verdict = run(GAS, LAW, init_state(GAS, bump_profile(0.0), grid), t_end=10.0, cfl=0.4,
                             snapshot_times=sample_times(10.0, 2.0))
    columns = series(snapshots, GAS, LAW, 0.4)
    assert isinstance(verdict, Global)
    for name in ("L", "H", "E0", "max_u", "max_du_dr"):
        assert np.all(columns[name] == 0.0)
    assert np.all(columns["min_rho"] == GAS.rho_bar)


def test_small_data_velocity_decays():
    grid = RadialGrid(70.0, 512)
    snapshots, verdict = run(GAS, LAW, init_state(GAS, bump_profile(0.01), grid), t_end=50.0, cfl=0.4,
                             snapshot_times=sample_times(50.0, 1.0))
    assert isinstance(verdict, Global)
    mu = series(snapshots, GAS, LAW, 0.4)["max_u"]
    i5 = np.searchsorted([s.t for s in snapshots], 5.0)
    assert mu[-1] < mu[i5]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cfl_safety_random_smooth_data(seed):
    # randomized smooth positive data at cfl 0.5: finite values up to any verdict
    rng = np.random.default_rng(seed)
    coef = rng.uniform(-1.0, 1.0, size=4)
    amp = rng.uniform(0.05, 0.3)

    def rho0(r):
        r = np.asarray(r, dtype=float)
        base = mollifier(r / 1.0)
        wig = sum(c * np.cos((k + 1) * np.pi * r) for k, c in enumerate(coef))
        return base * (1.0 + 0.5 * wig)

    def u0(r):
        return amp * mollifier(np.asarray(r, dtype=float) / 1.0)

    prof = InitialProfile(rho0, u0, epsilon=amp, M=1.0)
    grid = RadialGrid(12.0, 128)
    snapshots, _ = run(GAS, LAW, init_state(GAS, prof, grid), t_end=6.0, cfl=0.5,
                       snapshot_times=sample_times(6.0, 1.0))
    for s in snapshots:
        assert np.all(np.isfinite(s.rho)) and np.all(np.isfinite(s.mom))
        assert np.all(s.rho > 0)


def test_violent_data_reports_breakdown_cause():
    # strong inward/outward shear at second order loses positivity: the verdict
    # carries the cause instead of propagating garbage
    rho0, u0 = radial_outgoing_shell(0.2, 1.0)
    prof = InitialProfile(rho0, lambda r: 50.0 * np.asarray(u0(r)), epsilon=1.0, M=1.0, M0=0.2)
    grid = RadialGrid(15.0, 512)
    snapshots, verdict = run(GAS, DampingLaw(1.0, 1.0), init_state(GAS, prof, grid), t_end=0.2, cfl=0.85,
                             snapshot_times=sample_times(0.2, 0.05), muscl=True)
    assert isinstance(verdict, NumericalBreakdown)
    assert verdict.time < 0.2
    for s in snapshots:
        assert np.all(np.isfinite(s.rho))


def test_discrete_momentum_ode_residual_shrinks():
    # residual of H' + mu (1+t)^-lam H = int (rho u^2 + 3 (p - p_bar)) halves
    # when (dr, dt) halve together at fixed cfl
    def residual(n):
        state = init_state(GAS, shell_profile(0.05), RadialGrid(12.0, n))
        snapshots, _ = run(GAS, LAW, state, t_end=4.0, cfl=0.4, snapshot_times=sample_times(4.0, 0.2))
        return momentum_ode_residual(snapshots, GAS, LAW)

    assert residual(192) / residual(384) >= 1.8


def test_horizon_validation():
    grid = RadialGrid(5.0, 64)
    with pytest.raises(ValueError):
        validate_horizon(GAS, init_state(GAS, bump_profile(0.1), grid), 1.0, t_end=10.0)


@settings(max_examples=100, deadline=None)
@given(log_eps=st.none() | st.floats(-4.0, 160.0), gamma=st.sampled_from([2.0, 5.0 / 3.0, 1.4]),
       shell=st.booleans(), rarefied=st.booleans(), inward=st.booleans(), u_amp=st.floats(0.0, 2.0),
       n_cells=st.integers(32, 256), fill=st.booleans(), reach=st.floats(0.5, 1.5),
       bad=st.sampled_from([None, -1.0, -2.0, math.nan]), bad_cell=st.integers(0, 31))
@example(log_eps=160.0, gamma=2.0, shell=False, rarefied=False, inward=False, u_amp=1.0, n_cells=64,
         fill=True, reach=1.0, bad=None, bad_cell=0)
def test_validate_horizon_takes_the_full_grid_wave_speed(log_eps, gamma, shell, rarefied, inward, u_amp,
                                                          n_cells, fill, reach, bad, bad_cell):
    # the horizon check raises exactly when M + t_end * 1.2 * max(|u| + c)
    # over the grid reaches r_max.  It forms the pressure under errstate, as
    # (rho/rho_bar)**gamma overflows past eps = 1e154 at gamma = 2, and a
    # density <= 0 or nan anywhere raises NegativeDensity
    gas = GasModel(gamma, 1.0)
    eps = 0.0 if log_eps is None else 10.0**log_eps
    rho0, _ = radial_outgoing_shell(0.3, 1.0) if shell else radial_bump(1.0)
    grid = RadialGrid(12.0, n_cells)
    shape = rho0(grid.centers)
    rho_pert = (-1.0 if rarefied else 1.0) * eps * shape
    u = (-1.0 if inward else 1.0) * u_amp * shape
    if fill:  # a live last cell (-0.0 at least): the window is the whole grid
        rho_pert[-1], u[-1] = 0.5 * eps, -u_amp
    if bad is not None:
        rho_pert[bad_cell] = bad
    s = RadialState(0.0, rho_pert, (gas.rho_bar + rho_pert) * u, grid, gas.rho_bar)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if not np.logical_and.reduce(s.rho > 0):
            with pytest.raises(BreakdownError) as raised:
                validate_horizon(gas, s, 1.0, t_end=1.0)
            assert (raised.value.time, raised.value.cause) == (0.0, BreakdownCause.NEGATIVE_DENSITY)
            return
        speed = full_grid_max_speed(gas, s)
        t_end = reach * (grid.r_max - 1.0) / (1.2 * speed)
        try:
            validate_horizon(gas, s, 1.0, t_end)
            rejected = False
        except ValueError:
            rejected = True
    assert rejected == (1.0 + t_end * (1.2 * speed) >= grid.r_max)


def test_run_starts_at_time_zero():
    state = init_state(GAS, bump_profile(0.1), RadialGrid(30.0, 64))
    later = step(GAS, LAW, state, 0.4)
    with pytest.raises(ValueError, match="t = 0"):
        run(GAS, LAW, later, t_end=1.0)


@pytest.mark.parametrize("kwargs, key", [
    ({"t_end": 0.0}, "t_end"), ({"t_end": math.nan}, "t_end"),
    ({"cfl": 0.0}, "cfl"), ({"cfl": 0.95}, "cfl"),
    ({"snapshot_times": [-0.5]}, "snapshot times"), ({"snapshot_times": [0.5, math.nan]}, "snapshot times"),
])
def test_run_rejects_arguments_out_of_range(kwargs, key):
    state = init_state(GAS, bump_profile(0.1), RadialGrid(30.0, 64))
    with pytest.raises(ValueError, match=f"^{key} must"):
        run(GAS, LAW, state, **{"t_end": 1.0, **kwargs})


def test_grid_and_profile_validation():
    with pytest.raises(ValueError):
        RadialGrid(0.0, 64)
    with pytest.raises(ValueError):
        RadialGrid(10.0, 16)
    # r^3, the monitors' weight, or 1/(r^2 dr), the step's, leaves the float
    # range: the CLI's 64-cell edge, its auto-sized 2e160, and r^2 dr underflowing
    for r_max, n_cells in [(5.7e102, 64), (1e150, 64), (1e200, 512), (2e160, 512), (1e-300, 512)]:
        with pytest.raises(ValueError, match="float range"):
            RadialGrid(r_max, n_cells)
    grid = RadialGrid(5e102, 64)
    assert np.isfinite(grid.centers**3).all()
    assert grid._inv_vol.tobytes() == (1.0 / (grid.centers**2 * grid.dr)).tobytes()
    rho0, u0 = radial_bump(1.0)
    with pytest.raises(ValueError):
        InitialProfile(rho0, u0, epsilon=-0.1, M=1.0)
    with pytest.raises(ValueError):
        InitialProfile(rho0, u0, epsilon=0.1, M=1.0, M0=1.5)
    for m0, m in [(1.0, 1.0), (0.5, 0.3), (-0.1, 1.0)]:
        with pytest.raises(ValueError, match="shell radii"):
            radial_shell(m0, m)


_RHO0, _U0 = radial_bump(1.0)
_W0, _W0P, _SUPPORT = line_bump(1.0)


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("field, build", [
    ("gamma", lambda v: GasModel(gamma=v, rho_bar=1.0)),
    ("rho_bar", lambda v: GasModel(gamma=2.0, rho_bar=v)),
    ("r_max", lambda v: RadialGrid(r_max=v, n_cells=64)),
    ("epsilon", lambda v: InitialProfile(_RHO0, _U0, epsilon=v, M=1.0)),
    ("M", lambda v: InitialProfile(_RHO0, _U0, epsilon=0.1, M=v)),
    ("epsilon", lambda v: BurgersProblem(_W0, _W0P, _SUPPORT, v, LAW)),
    ("support", lambda v: BurgersProblem(_W0, _W0P, (-1.0, v), 0.1, LAW)),
], ids=["GasModel.gamma", "GasModel.rho_bar", "RadialGrid.r_max", "InitialProfile.epsilon",
        "InitialProfile.M", "BurgersProblem.epsilon", "BurgersProblem.support"])
def test_constructors_reject_nonfinite_values(field, build, value):
    with pytest.raises(ValueError, match=f"^{field} must be (a )?finite"):
        build(value)


def test_stable_dt_positive_and_sane():
    grid = RadialGrid(10.0, 64)
    s = init_state(GAS, bump_profile(0.1), grid)
    dt = stable_dt(GAS, s, 0.4)
    assert 0 < dt < grid.dr  # wave speed exceeds c(rho_bar) = 1
    assert max_velocity_gradient(s) >= 0.0


# ---------------------------------------------------------------- windowed step

def outcome_of(fn):
    """The state ``fn`` returns, or the (time, cause) of its breakdown."""
    try:
        return fn()
    except BreakdownError as exc:
        return (exc.time, exc.cause)


def workspace_step(ws, law, t, cfl, *, dt=None, muscl=False):
    """Step the workspace ``ws`` in place from ``t``, as ``run``'s march
    does, by ``dt`` or else its CFL step, and return a copy of its state."""
    dt = ws.stable_dt(cfl) if dt is None else dt
    return ws.step(law, t, dt, muscl).state_at(t + dt)


def assert_windowed_matches_full_grid(law, s, n_steps, muscl, dt_fraction=None):
    """Step ``s`` in a workspace, as ``run`` does, with a bare ``step`` and
    with the full-grid oracle; every state, stable_dt and
    max_velocity_gradient must agree bit for bit, and the workspace's window
    must hold the new state's live cells (see assert_window_holds)."""
    ws = _Workspace(s, GAS)
    for _ in range(n_steps):
        assert ws.stable_dt(0.4) == stable_dt(GAS, s, 0.4) == full_grid_stable_dt(GAS, s, 0.4)
        assert ws.max_velocity_gradient() == max_velocity_gradient(s) == full_grid_max_velocity_gradient(s)
        dt = None if dt_fraction is None else dt_fraction * full_grid_stable_dt(GAS, s, 0.4)
        full = outcome_of(lambda: full_grid_step(GAS, law, s, 0.4, dt=dt, muscl=muscl))
        bare = outcome_of(lambda: step(GAS, law, s, 0.4, dt=dt, muscl=muscl))
        end = ws.win.end
        windowed = outcome_of(lambda: workspace_step(ws, law, s.t, 0.4, dt=dt, muscl=muscl))
        if isinstance(full, tuple):
            assert windowed == full
            assert bare == full
            return
        # stricter than np.array_equal: bytes also tell -0.0 from 0.0, which
        # the snapshot CSV writes apart
        for new in (windowed, bare):
            assert new.rho_pert.tobytes() == full.rho_pert.tobytes()
            assert new.mom.tobytes() == full.mom.tobytes()
            assert new.t == full.t
        assert_window_holds(ws, end)
        s = windowed


def assert_window_holds(ws, before):
    """The window of a run's workspace ``ws`` never shrinks: it ends where
    the one before the step did, at ``before``, or where a full scan opens
    it, if that lies further.  Every cell from its end on is +0.0, and so is
    cell end - 1 unless the window is the grid; its views are those made
    fresh."""
    q, mom = ws.cells
    end, n = ws.win.end, ws.n
    assert end == max(before, _Workspace(ws.state_at(0.0)).win.end)
    assert q[end:].tobytes() == mom[end:].tobytes() == bytes(8 * (n - end))
    assert end == n or q[end - 1:end].tobytes() == mom[end - 1:end].tobytes() == bytes(8)
    assert window_views(ws.win) == window_views(_Window(ws, end))


def block_end(reach, n):
    """``reach`` rounded up to a whole number of 8-cell blocks, at most ``n``."""
    return min(8 * math.ceil(reach / 8), n)


@settings(max_examples=60, deadline=None)
@given(
    eps=st.floats(0.0, 0.6),
    lam=st.floats(0.0, 3.0),
    mu=st.floats(0.0, 2.0),
    n_cells=st.integers(32, 512),
    muscl=st.booleans(),
    dt_fraction=st.none() | st.floats(0.05, 1.0),
    rarefied=st.booleans(),
    inward=st.booleans(),
    edge=st.booleans(),
)
@example(eps=0.0, lam=1.0, mu=1.0, n_cells=64, muscl=True, dt_fraction=None,
         rarefied=False, inward=False, edge=False)
@example(eps=0.3, lam=2.0, mu=1.0, n_cells=32, muscl=False, dt_fraction=None,
         rarefied=False, inward=False, edge=True)
@example(eps=0.3, lam=2.0, mu=1.0, n_cells=100, muscl=True, dt_fraction=0.5,
         rarefied=True, inward=True, edge=False)
def test_windowed_step_matches_full_grid(eps, lam, mu, n_cells, muscl, dt_fraction,
                                         rarefied, inward, edge):
    # ``rarefied`` and ``inward`` flip the signs of the shell (its cell
    # averages are +0.0 outside the support, never -0.0; the hand-built
    # states below cover -0.0); with ``edge`` the support reaches the last
    # cell, so the window is the grid
    rho0, u0 = radial_outgoing_shell(0.3, 1.0)
    rho_sign = -1.0 if rarefied else 1.0
    u_sign = -1.0 if inward else 1.0
    prof = InitialProfile(lambda r: rho_sign * rho0(r), lambda r: u_sign * u0(r),
                          epsilon=eps, M=1.0, M0=0.3)
    grid = RadialGrid(1.0 if edge else 12.0, n_cells)
    s = init_state(GAS, prof, grid)
    assert_windowed_matches_full_grid(DampingLaw(mu, lam), s, 25, muscl, dt_fraction)


@pytest.mark.parametrize("muscl", [False, True])
def test_windowed_step_matches_full_grid_on_read_back_state(tmp_path, muscl):
    grid = RadialGrid(12.0, 256)
    s = init_state(GAS, shell_profile(0.3), grid)
    for _ in range(40):
        s = step(GAS, LAW, s, 0.4, muscl=muscl)
    path = str(tmp_path / "snapshots.csv")
    write_radial_snapshots(path, [s])
    (back,) = read_radial_snapshots(path, GAS.rho_bar)
    assert back.grid == grid
    assert_windowed_matches_full_grid(LAW, back, 25, muscl)


def shell_state(n_cells=128):
    """The eps = 0.3 shell on [0, 12] and the index of its last live cell."""
    s = init_state(GAS, shell_profile(0.3), RadialGrid(12.0, n_cells))
    return s, int(np.flatnonzero(s.rho_pert.view(np.int64) | s.mom.view(np.int64))[-1])


@pytest.mark.parametrize("muscl", [False, True])
@pytest.mark.parametrize("field", ["rho_pert", "mom"])
@pytest.mark.parametrize("offset", [1, 2, 3, 40, "last"])
def test_windowed_step_matches_full_grid_with_negative_zero(field, offset, muscl):
    # a -0.0 is live: the first window ends a cell past it, in blocks, one
    # to three cells past the support, well past the front (40), or at the
    # last cell, where the window is the grid
    s, last = shell_state()
    cell = s.grid.n_cells - 1 if offset == "last" else last + offset
    getattr(s, field)[cell] = -0.0
    assert _Workspace(s).win.end == block_end(cell + 2, s.grid.n_cells)
    assert_windowed_matches_full_grid(LAW, s, 25, muscl)


@pytest.mark.parametrize("muscl", [False, True])
@pytest.mark.parametrize("shell", [True, False])
def test_window_keeps_its_end_when_the_front_vanishes(shell, muscl):
    # a subnormal momentum past the support opens the first window, sees zero
    # flux and is damped to +0.0 (factor < 1/2); the window keeps its end,
    # past the shell's front or with no live cell left at all
    s, last = shell_state()
    if not shell:
        s = RadialState(0.0, np.zeros_like(s.rho_pert), np.zeros_like(s.mom), s.grid, GAS.rho_bar)
    cell = last + 20
    s.mom[cell] = 5e-324
    law = DampingLaw(mu=100.0, lam=0.0)
    ws = _Workspace(s, GAS)
    end = ws.win.end
    assert end == block_end(cell + 2, s.grid.n_cells)
    new = workspace_step(ws, law, s.t, 0.4, muscl=muscl)
    assert new.mom[cell] == 0.0 and ws.win.end == end
    assert_windowed_matches_full_grid(law, s, 3, muscl)


# bit patterns of -0.0, nan, the smallest subnormal and a negative subnormal
SPECIAL_BITS = [int(np.array(x).view(np.int64)) for x in (-0.0, math.nan, 5e-324, -2.2250738585072e-308)]
CELL_BITS = st.one_of(st.just(0), st.sampled_from(SPECIAL_BITS), st.integers(-2**63, 2**63 - 1))


@settings(max_examples=100, deadline=None)
@given(q_bits=st.lists(CELL_BITS, max_size=9), mom_bits=st.lists(CELL_BITS, max_size=9),
       n_cells=st.integers(32, 41), at=st.integers(0, 41))
@example(q_bits=[0, 0, 0, 0, 0], mom_bits=[0, 0, 0, 0, 0], n_cells=32, at=2)
@example(q_bits=[1, 0, 0, 0, 0], mom_bits=[0, 0, 0, 0, 0], n_cells=32, at=2)
@example(q_bits=[0, 0, 0, 0, 0], mom_bits=[0, 0, 0, SPECIAL_BITS[0], 0], n_cells=32, at=2)
@example(q_bits=[0, 0, 0], mom_bits=[0, SPECIAL_BITS[1], 0], n_cells=32, at=5)
@example(q_bits=[0, 0, 0], mom_bits=[0, 0, SPECIAL_BITS[2]], n_cells=33, at=30)
def test_span_matches_full_scan(q_bits, mom_bits, n_cells, at):
    # the first window of a workspace ends a cell past the last live cell (by
    # its bits, so -0.0, nan, inf and subnormals are live) that a full scan
    # finds, in blocks; the workspace checks rho > 0 over that window, then
    # that its cells are finite.  With that last check set aside, a
    # workspace of non-finite cells shows the window it opens
    n = min(len(q_bits), len(mom_bits))
    at = min(at, n_cells - n)
    q, mom = np.zeros(n_cells), np.zeros(n_cells)
    q[at:at + n] = np.array(q_bits[:n], dtype=np.int64).view(np.float64)
    mom[at:at + n] = np.array(mom_bits[:n], dtype=np.int64).view(np.float64)
    live = np.flatnonzero(q.view(np.int64) | mom.view(np.int64))
    end = block_end(int(live[-1]) + 2 if live.size else 1, n_cells)
    s = RadialState(0.0, q, mom, RadialGrid(1.0, n_cells), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # u = mom / rho of any finite bits
        if not np.all(1.0 + q[:end] > 0):
            with pytest.raises(BreakdownError) as raised:
                _Workspace(s)
            assert raised.value.cause == BreakdownCause.NEGATIVE_DENSITY
            return
        if not (np.isfinite(q).all() and np.isfinite(mom).all()):
            with pytest.raises(BreakdownError) as raised:
                _Workspace(s)
            assert raised.value.cause == BreakdownCause.NON_FINITE
            with mock.patch.object(euler, "_all_finite", lambda win: True):
                assert _Workspace(s).win.end == end
            return
        assert _Workspace(s).win.end == end


@settings(max_examples=20, deadline=None)
@given(eps=st.floats(0.0, 0.6), rarefied=st.booleans(), inward=st.booleans(),
       n_cells=st.integers(32, 160), stepped=st.booleans(), dt_fraction=st.none() | st.floats(0.05, 1.0))
def test_step_and_monitors_leave_their_input_unchanged(eps, rarefied, inward, n_cells, stepped, dt_fraction):
    # step, stable_dt and max_velocity_gradient update workspace buffers in
    # place; none may write through to their input state.  A run's state is
    # the pair of its workspace, beside its window's kernels: the
    # workspace's stable_dt and max_velocity_gradient only read them (a step
    # writes them, see test_run_steps_its_window_in_place)
    rho0, u0 = radial_outgoing_shell(0.3, 1.0)
    rho_sign = -1.0 if rarefied else 1.0
    u_sign = -1.0 if inward else 1.0
    prof = InitialProfile(lambda r: rho_sign * rho0(r), lambda r: u_sign * u0(r),
                          epsilon=eps, M=1.0, M0=0.3)
    s = init_state(GAS, prof, RadialGrid(12.0, n_cells))
    if stepped:
        s = step(GAS, LAW, s, 0.4)
    assert vars(s).keys() == STATE_FIELDS
    before = [s.rho_pert.tobytes(), s.mom.tobytes()]
    dt = None if dt_fraction is None else dt_fraction * stable_dt(GAS, s, 0.4)
    for muscl in (False, True):
        outcome_of(lambda: step(GAS, LAW, s, 0.4, dt=dt, muscl=muscl))
        ws = _Workspace(s, GAS)
        m = ws.win.end + 4
        arrays = [*ws.cells, ws.q[:m], ws.mom[:m], ws.rho[:m], ws.u[:m], ws.speed[:m], ws.p]
        owned_before = [a.tobytes() for a in arrays]
        ws.stable_dt(0.4)
        ws.max_velocity_gradient()
        assert [a.tobytes() for a in arrays] == owned_before
        new = outcome_of(lambda: workspace_step(ws, LAW, s.t, 0.4, dt=dt, muscl=muscl))
        assert isinstance(new, tuple) or [new.rho_pert.tobytes(), new.mom.tobytes()] == [
            a.tobytes() for a in ws.cells]
    stable_dt(GAS, s, 0.4)
    max_velocity_gradient(s)
    assert [s.rho_pert.tobytes(), s.mom.tobytes()] == before


@pytest.mark.parametrize("muscl", [False, True])
def test_breakdown_negative_density_matches_full_grid(muscl):
    # an oversized explicit step empties the rarefied shell's trough
    rho0, u0 = radial_outgoing_shell(0.3, 1.0)
    prof = InitialProfile(lambda r: -rho0(r), u0, epsilon=0.9, M=1.0, M0=0.3)
    s = init_state(GAS, prof, RadialGrid(12.0, 128))
    dt = 16.0 * stable_dt(GAS, s, 0.4)
    full = outcome_of(lambda: full_grid_step(GAS, LAW, s, 0.4, dt=dt, muscl=muscl))
    assert full == (s.t + dt, BreakdownCause.NEGATIVE_DENSITY)
    assert outcome_of(lambda: step(GAS, LAW, s, 0.4, dt=dt, muscl=muscl)) == full


@pytest.mark.parametrize("muscl", [False, True])
@pytest.mark.parametrize("band", [1, 3])
def test_breakdown_non_finite_matches_full_grid(band, muscl):
    # huge momenta overflow the fluxes.  One cell of them overflows only
    # mom * u, and the step is too small to move any density; three in a row
    # overflow the mass flux too, which leaves -inf, nan and +inf densities,
    # and the floor test must see the -inf past the nan, in a run's
    # workspace (which tests max rho and max(|u| + c)) and bare
    s, last = shell_state()
    k = last // 2
    s.mom[k:k + band] = 1e200 if band == 1 else 1e308
    dt = 1e-205
    with np.errstate(over="ignore", invalid="ignore"):
        full = outcome_of(lambda: full_grid_step(GAS, LAW, s, 0.4, dt=dt, muscl=muscl))
        windowed = outcome_of(lambda: step(GAS, LAW, s, 0.4, dt=dt, muscl=muscl))
        in_run = outcome_of(lambda: workspace_step(_Workspace(s, GAS), LAW, s.t, 0.4, dt=dt, muscl=muscl))
    cause = BreakdownCause.NON_FINITE if band == 1 else BreakdownCause.NEGATIVE_DENSITY
    assert full == (s.t + dt, cause)
    assert windowed == in_run == full


def nan_rho_pert_state(s, last):
    # u = 2e308 overflows at cell 0, whose wave speed is then inf: the mass
    # flux at r = 0 is inf * 0 (its jump), and at the next face +inf, which
    # leaves a nan and a +inf density and no -inf
    s.rho_pert[0], s.mom[0], s.rho_pert[1], s.mom[1] = -0.5, 1e308, -0.6, 0.0
    return 1e-3


def inward_momentum_state(s, last):
    # mom * u overflows at one cell, as in the test above, but mom < 0 puts
    # the inf - inf on its right face and -inf into the cell on its left
    s.mom[last // 2] = -1e200
    return 1e-205


def non_finite_kinds(a):
    """The kinds of non-finite value ``a`` holds."""
    return {name for name, test in (("nan", np.isnan), ("+inf", np.isposinf), ("-inf", np.isneginf))
            if test(a).any()}


def warnings_of(fn):
    """``outcome_of(fn)`` and the set of RuntimeWarning messages it emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outcome = outcome_of(fn)
    return outcome, {str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)}


@pytest.mark.parametrize("muscl", [False, True])
@pytest.mark.parametrize("build, rho_kinds, mom_kinds", [
    (nan_rho_pert_state, {"nan", "+inf"}, {"nan", "+inf"}),
    (inward_momentum_state, set(), {"nan", "-inf"}),
], ids=["nan-and-inf-rho_pert", "nan-and-minus-inf-mom"])
def test_step_to_non_finite_values_matches_full_grid(build, rho_kinds, mom_kinds, muscl):
    # a step in a workspace tests the new rho_pert by max rho and the new mom
    # by the max wave speed; where either is not finite it tests the cells,
    # and it must end as the full-grid step does, in a run's workspace or
    # bare, and warn of nothing that the full-grid step does not
    s, last = shell_state()
    dt = build(s, last)
    full, full_warnings = warnings_of(lambda: full_grid_step(GAS, LAW, s, 0.4, dt=dt, muscl=muscl))
    assert full == (s.t + dt, BreakdownCause.NON_FINITE)
    owned = []

    def in_workspace():
        owned.append(_Workspace(s, GAS))
        return workspace_step(owned[0], LAW, s.t, 0.4, dt=dt, muscl=muscl)

    windowed, windowed_warnings = warnings_of(in_workspace)
    assert windowed == full
    assert windowed_warnings <= full_warnings
    assert tuple(non_finite_kinds(a) for a in owned[0].cells) == (rho_kinds, mom_kinds)
    assert warnings_of(lambda: step(GAS, LAW, s, 0.4, dt=dt, muscl=muscl))[0] == full


def test_step_to_a_finite_state_whose_wave_speed_overflows_is_not_non_finite():
    # at gamma = 1e6, c^2 = x^999999 overflows past x = 1.00071; twice the
    # CFL step carries cell 1, between two cells of x = 1.000693, past it.
    # The new state is finite, so the step returns it, as the full-grid step
    # does, and its stable dt is 0: a march stops it as a CFL collapse
    gas = GasModel(1e6, 1.0)
    grid = RadialGrid(1.0, 64)
    q = np.zeros(grid.n_cells)
    q[:4:2] = 0.99 * 7e-4
    s = RadialState(0.0, q, np.zeros(grid.n_cells), grid, gas.rho_bar)
    dt = 2.0 * grid.dr / full_grid_max_speed(gas, s)
    full = full_grid_step(gas, LAW, s, 0.4, dt=dt)
    with np.errstate(over="ignore"):  # the new state's c^2
        assert full_grid_max_speed(gas, full) == math.inf
        ws = _Workspace(s, gas)
        new = workspace_step(ws, LAW, s.t, 0.4, dt=dt)
        bare = step(gas, LAW, s, 0.4, dt=dt)
        assert ws.stable_dt(0.4) == stable_dt(gas, new, 0.4) == 0.0
    assert ws.max_speed == math.inf
    for ours in (new, bare):
        assert ours.t == full.t
        assert (ours.rho_pert.tobytes(), ours.mom.tobytes()) == (full.rho_pert.tobytes(), full.mom.tobytes())


@pytest.mark.parametrize("call", [
    lambda gas, s: step(gas, LAW, s, 0.4),
    lambda gas, s: stable_dt(gas, s, 0.4),
    lambda gas, s: validate_horizon(gas, s, 1.0, 1.0),
    lambda gas, s: run(gas, LAW, s, 1.0),
], ids=["step", "stable_dt", "validate_horizon", "run"])
def test_a_state_off_the_gas_background_is_rejected(call):
    # every call that moves a state into a workspace for a gas checks it
    # against that gas's rho_bar, rather than step on the wrong background
    s = init_state(GAS, shell_profile(0.3), RadialGrid(12.0, 64))
    with pytest.raises(ValueError, match="background density"):
        call(GasModel(2.0, 2.0), s)


@pytest.mark.parametrize("cells", [
    {"rho_pert": math.inf, "mom": math.inf}, {"rho_pert": math.inf}, {"mom": -math.inf}, {"mom": math.nan},
], ids=["both-inf", "rho_pert-inf", "mom-minus-inf", "mom-nan"])
@pytest.mark.parametrize("call", [
    lambda s: stable_dt(GAS, s, 0.4),
    lambda s: step(GAS, LAW, s, 0.4),
    lambda s: step(GAS, LAW, s, 0.4, dt=1e-3),
    lambda s: step(GAS, LAW, s, 0.4, dt=1e-3, muscl=True),
    lambda s: validate_horizon(GAS, s, 1.0, 1.0),
    lambda s: max_velocity_gradient(s),
], ids=["stable_dt", "step", "step-dt", "step-muscl", "validate_horizon", "max_velocity_gradient"])
def test_a_state_holding_a_non_finite_cell_is_non_finite_at_its_own_time(call, cells):
    # a workspace tests the cells it takes in before it forms u = mom / rho,
    # so every call reports them at the state's own time, with no warning,
    # rather than forming a nan or an inf wave speed from them
    s = init_state(GAS, bump_profile(0.1), RadialGrid(5.0, 64))
    s.t = 0.25
    for field, value in cells.items():
        getattr(s, field)[3] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BreakdownError) as raised:
            call(s)
    assert (raised.value.time, raised.value.cause) == (0.25, BreakdownCause.NON_FINITE)


def test_muscl_step_stops_on_a_face_density_that_is_not_positive():
    # a workspace takes in only cells with rho > 0 (not above the density
    # floor: see test_validate_horizon_takes_the_full_grid_wave_speed), a
    # step leaves only cells above the floor, and a minmod face value lies
    # between its cell and a neighbour, so this test of the face densities
    # guards the division by them: a cell written below zero into the
    # workspace reaches it, and the step stops at the time it starts from
    s = init_state(GAS, shell_profile(0.3), RadialGrid(12.0, 64))
    ws = _Workspace(s, GAS)
    ws.cells[0][3] = -2.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BreakdownError) as raised:
            ws.step(LAW, 0.5, 1e-3, muscl=True)
    assert (raised.value.time, raised.value.cause) == (0.5, BreakdownCause.NEGATIVE_DENSITY)


def test_radial_state_is_plain_data():
    # a state holds its time, cells, grid and background and nothing of a
    # workspace: the initial state, a bare step's result and a run's
    # snapshots alike
    s = init_state(GAS, shell_profile(0.3), RadialGrid(12.0, 64))
    snapshots, _ = run(GAS, LAW, s, t_end=0.5, cfl=0.4, snapshot_times=sample_times(0.5, 0.25))
    for state in [s, step(GAS, LAW, s, 0.4), *snapshots]:
        assert [f.name for f in dataclasses.fields(state)] == ["t", "rho_pert", "mom", "grid", "rho_bar"]
        assert vars(state).keys() == STATE_FIELDS


def test_bare_step_collapses_on_its_own_cfl_step():
    # one cell's wave speed near 1e12 makes the CFL step of a bare call
    # fall below the floor, as it does on the full grid
    s = init_state(GAS, bump_profile(0.1), RadialGrid(5.0, 64))
    s.mom[3] = 1e12
    for stepper in (step, full_grid_step):
        with pytest.raises(BreakdownError) as raised:
            stepper(GAS, LAW, s, 0.4)
        assert (raised.value.time, raised.value.cause) == (0.0, BreakdownCause.CFL_COLLAPSE)


# ---------------------------------------------------------------- run against the full-grid march

def assert_run_matches_reference(gas, law, s, t_end, cfl, times, muscl):
    """``run`` and the full-grid march agree byte for byte: verdict, sample
    times, every series column (``series`` of the run's snapshots against the
    one-state rows of the march's) and every snapshot; returns the verdict."""
    ours, verdict = run(gas, law, s, t_end=t_end, cfl=cfl, snapshot_times=times, muscl=muscl)
    theirs, expected = full_grid_run(gas, law, s, t_end, cfl, times, muscl)
    assert verdict == expected
    assert np.array([o.t for o in ours]).tobytes() == np.array([r.t for r in theirs]).tobytes()
    columns = series(ours, gas, law, cfl)
    table = np.array([one_state_series(r, gas, law, cfl) for r in theirs]).reshape(-1, 7).T
    assert list(columns) == SERIES_NAMES
    for name, column in zip(SERIES_NAMES, table):
        assert columns[name].tobytes() == np.ascontiguousarray(column).tobytes(), name
    assert len(ours) == len(theirs)
    for o, r in zip(ours, theirs):
        assert o.t == r.t
        assert o.rho_pert.tobytes() == r.rho_pert.tobytes()
        assert o.mom.tobytes() == r.mom.tobytes()
    return verdict


@settings(max_examples=30, deadline=None)
@given(
    gamma=st.sampled_from([2.0, 1.4, 5.0 / 3.0]),
    rho_bar=st.sampled_from([1.0, 2.0, 0.7]),
    eps=st.floats(0.0, 0.9),
    lam=st.floats(0.0, 3.0),
    mu=st.floats(0.0, 2.0),
    n_cells=st.integers(32, 160),
    cfl=st.sampled_from([0.4, 0.9]),
    muscl=st.booleans(),
    rarefied=st.booleans(),
    inward=st.booleans(),
)
# the rarefied shell empties at cfl 0.9: NegativeDensity at either order
@example(gamma=2.0, rho_bar=1.0, eps=0.9, lam=0.5, mu=1.0, n_cells=128, cfl=0.9, muscl=False,
         rarefied=True, inward=False)
@example(gamma=1.4, rho_bar=2.0, eps=0.9, lam=0.5, mu=1.0, n_cells=128, cfl=0.9, muscl=True,
         rarefied=True, inward=False)
def test_run_matches_full_grid_march(gamma, rho_bar, eps, lam, mu, n_cells, cfl, muscl, rarefied, inward):
    # the shell scales with rho_bar, so every draw starts from positive density
    gas = GasModel(gamma=gamma, rho_bar=rho_bar)
    rho0, u0 = radial_outgoing_shell(0.3, 1.0)
    rho_sign = -rho_bar if rarefied else rho_bar
    u_sign = -1.0 if inward else 1.0
    prof = InitialProfile(lambda r: rho_sign * rho0(r), lambda r: u_sign * u0(r),
                          epsilon=eps, M=1.0, M0=0.3)
    s = init_state(gas, prof, RadialGrid(12.0, n_cells))
    assert_run_matches_reference(gas, DampingLaw(mu, lam), s, 1.25, cfl, sample_times(1.25, 0.25), muscl)


def test_run_matches_full_grid_march_at_acceptance_07():
    # acceptance 07's large data: MUSCL at cfl 0.85 loses positivity at once
    law = DampingLaw(mu=1.0, lam=1.0)
    rho0, _ = radial_shell(0.2, 1.0)

    def u0(r):
        r = np.asarray(r, dtype=float)
        return 50.0 * _smooth_step((r - 0.2) / 0.08) * _smooth_step((1.0 - r) / 0.3)

    prof = InitialProfile(rho0, u0, epsilon=1.0, M=1.0, M0=0.2)
    t_star = 0.241
    s = init_state(GAS, prof, RadialGrid(r_max=1.0 + t_star * 1.3 * 52.0, n_cells=4096))
    verdict = assert_run_matches_reference(GAS, law, s, t_star, 0.85, sample_times(t_star, t_star / 20), True)
    assert verdict.cause == BreakdownCause.NEGATIVE_DENSITY


def test_run_matches_full_grid_march_past_a_sample_time_that_t_plus_dt_misses():
    # the step from the sample at 0.03 clamps onto 0.3, where 0.03 + 0.27
    # misses it by an ulp: both marches step on from 0.3, and the damping
    # factors of every later step agree bit for bit
    assert 0.03 + (0.3 - 0.03) != 0.3
    s = init_state(GAS, shell_profile(0.5), RadialGrid(12.0, 32))
    law = DampingLaw(mu=1.0, lam=1.0)
    assert assert_run_matches_reference(GAS, law, s, 0.6, 0.9, [0.03, 0.3, 0.6], False) == Global()


@pytest.mark.parametrize("eps, n_cells, holds", [(0.3, 64, True), (1e-3, 256, False)])
def test_run_takes_the_exact_gradient_only_where_its_bound_does_not_hold(monkeypatch, eps, n_cells, holds):
    # |u| <= |u| + c, so max |du/dr| <= 2 max(|u| + c) / dr: on the coarse
    # grid that bound lies below the trigger's limit, 1000x the initial
    # gradient, and run takes the exact gradient once, for the limit; the
    # tiny shell's limit lies below 2 / dr, and run takes it after every
    # step.  Either way the run is the full-grid march's, byte for byte
    calls = {"step": 0, "max_velocity_gradient": 0}
    for name in calls:
        def counted(self, *args, _name=name, _f=getattr(_Workspace, name)):
            calls[_name] += 1
            return _f(self, *args)
        monkeypatch.setattr(_Workspace, name, counted)
    s = init_state(GAS, shell_profile(eps), RadialGrid(12.0, n_cells))
    assert_run_matches_reference(GAS, LAW, s, 1.25, 0.4, sample_times(1.25, 0.25), False)
    assert calls["step"] > 10
    assert calls["max_velocity_gradient"] == (1 if holds else calls["step"] + 1)


@pytest.mark.parametrize("muscl", [False, True])
def test_run_clears_the_tail_a_shrinking_window_leaves(muscl):
    # the subnormal momentum past the shell holds the first window open and
    # is damped to +0.0 (factor < 1/2); the window keeps its end rather than
    # shrinking to the shell, and the steps after must leave that cell +0.0
    # until the shell's front, a cell a step, reaches it
    s, last = shell_state()
    cell = last + 20
    s.mom[cell] = 5e-324
    law = DampingLaw(mu=100.0, lam=0.0)
    ws = _Workspace(s, GAS)
    end, state = ws.win.end, s
    assert ws.cells[1][cell] == 5e-324 and end > cell
    for _ in range(cell - last - 1):
        state = workspace_step(ws, law, state.t, 0.4, muscl=muscl)
        assert state.mom[cell:cell + 1].tobytes() == bytes(8)
    assert ws.win.end == end
    assert_run_matches_reference(GAS, law, s, 0.5, 0.4, sample_times(0.5, 0.1), muscl)


def test_run_snapshots_and_bare_steps_keep_their_values():
    # a run's later steps overwrite its workspace, so each snapshot must be
    # a copy: the snapshot at t equals the last one of a run that ends at t.
    # A bare step's result belongs to no workspace, so stepping its input
    # again, or it, leaves it as it is.
    s = init_state(GAS, shell_profile(0.3), RadialGrid(12.0, 128))
    before = (s.rho_pert.tobytes(), s.mom.tobytes())
    snapshots, _ = run(GAS, LAW, s, t_end=1.5, cfl=0.4, snapshot_times=sample_times(1.5, 0.5))
    for snap in snapshots[1:-1]:
        last = run(GAS, LAW, s, t_end=snap.t, cfl=0.4, snapshot_times=sample_times(snap.t, 0.5))[0][-1]
        assert last.t == snap.t
        assert (snap.rho_pert.tobytes(), snap.mom.tobytes()) == (last.rho_pert.tobytes(), last.mom.tobytes())
    assert (s.rho_pert.tobytes(), s.mom.tobytes()) == before

    a = step(GAS, LAW, s, 0.4)
    kept = (a.rho_pert.tobytes(), a.mom.tobytes())
    b = step(GAS, LAW, s, 0.4)
    c = step(GAS, LAW, step(GAS, LAW, a, 0.4), 0.4)
    assert (a.rho_pert.tobytes(), a.mom.tobytes()) == kept == (b.rho_pert.tobytes(), b.mom.tobytes())
    assert not np.shares_memory(a.mom, b.mom) and not np.shares_memory(a.mom, c.mom)
    assert (s.rho_pert.tobytes(), s.mom.tobytes()) == before


@pytest.mark.parametrize("muscl", [False, True])
def test_run_steps_its_window_in_place(monkeypatch, muscl):
    # a run's step writes the new window into its workspace's pair, and
    # leaves the cells from the old window on as the +0.0 they were; run's
    # snapshots are copies, apart from its one workspace
    s = init_state(GAS, shell_profile(0.3), RadialGrid(12.0, 128))
    ws = _Workspace(s, GAS)
    end, (q, mom) = ws.win.end, ws.cells
    full = full_grid_step(GAS, LAW, s, 0.4, muscl=muscl)
    assert ws.step(LAW, s.t, ws.stable_dt(0.4), muscl) is ws
    new = ws.cells
    assert np.shares_memory(new[0], q) and np.shares_memory(new[1], mom)
    assert (new[0].tobytes(), new[1].tobytes()) == (full.rho_pert.tobytes(), full.mom.tobytes())
    assert new[0][end:].tobytes() == new[1][end:].tobytes() == bytes(8 * (s.grid.n_cells - end))

    starts = []

    class Spied(_Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            starts.append(self)

    monkeypatch.setattr("critdamp.euler._Workspace", Spied)
    snapshots, _ = run(GAS, LAW, s, t_end=1.5, cfl=0.4, snapshot_times=sample_times(1.5, 0.5), muscl=muscl)
    assert len(starts) == 1 and len(snapshots) == 4
    buffers = [a for a in vars(starts[0]).values() if isinstance(a, np.ndarray)]
    for snap in snapshots:
        assert not any(np.shares_memory(a, b) for a in (snap.rho_pert, snap.mom) for b in buffers)


@pytest.mark.parametrize("dt", [None, 1e-3])
def test_bare_step_builds_one_workspace(monkeypatch, dt):
    # stable_dt and the step of a bare call share the workspace it builds
    builds = []

    class Counted(_Workspace):
        def __init__(self, state, gas=None):
            builds.append(state.t)
            super().__init__(state, gas)

    monkeypatch.setattr("critdamp.euler._Workspace", Counted)
    step(GAS, LAW, init_state(GAS, shell_profile(0.3), RadialGrid(12.0, 64)), 0.4, dt=dt)
    assert builds == [0.0]


@pytest.mark.parametrize("dt, cause", [
    (None, BreakdownCause.NEGATIVE_DENSITY), (1e-3, BreakdownCause.NEGATIVE_DENSITY),
    (-1.0, BreakdownCause.CFL_COLLAPSE), (math.inf, BreakdownCause.CFL_COLLAPSE),
    (math.nan, BreakdownCause.CFL_COLLAPSE),
])
def test_bare_step_checks_an_explicit_dt_before_the_density(dt, cause):
    s = init_state(GAS, shell_profile(0.3), RadialGrid(12.0, 64))
    s.rho_pert[5] = -2.0
    with pytest.raises(BreakdownError) as raised:
        step(GAS, LAW, s, 0.4, dt=dt)
    assert (raised.value.time, raised.value.cause) == (0.0, cause)


def test_workspace_step_takes_log_beta_at_the_time_it_is_given():
    # a run reuses log beta(t_new) of the step before as the next step's
    # log beta(t); a sample time may move t off t_new (by rounding in a
    # march), and then the factor must follow the moved t
    ws = _Workspace(init_state(GAS, shell_profile(0.3), RadialGrid(12.0, 128)), GAS)
    s = workspace_step(ws, LAW, 0.0, 0.4)
    s.t *= 2.0
    full = full_grid_step(GAS, LAW, s, 0.4)
    new = workspace_step(ws, LAW, s.t, 0.4)
    assert new.t == full.t
    assert new.mom.tobytes() == full.mom.tobytes()


@settings(max_examples=80, deadline=None)
@given(gamma=st.sampled_from([2, 2.0, 1.4, 5.0 / 3.0, 3, 3.0]), rho_bar=st.sampled_from([1.0, 2.0, 0.7]),
       n_cells=st.integers(32, 200), data=st.data())
def test_workspace_kernels_match_the_gas_kernels_on_fresh_arrays(gamma, rho_bar, n_cells, data):
    # kernels forms |u| + c and p into workspace buffers (out=); they must
    # equal, byte for byte, _wave_speed and pressure_of_ratio on fresh arrays
    # and the gas law as written, over windows from 2 cells (span 0) to the
    # whole grid (numpy forms x**2 and x**2.0 as np.square, other exponents
    # as np.power)
    gas = GasModel(gamma, rho_bar)
    span = data.draw(st.sampled_from([0, 1, n_cells - 1, n_cells]) | st.integers(0, n_cells))
    s = random_state(RadialGrid(12.0, n_cells), rho_bar, 0.0, data.draw(st.integers(0, 2**32 - 1)), span, 0.0)
    ws = _Workspace(s, gas)
    m = ws.win.end + 4
    x, u = ws.rho[:m] / gas.rho_bar, ws.u[:m].copy()
    assert ws.speed[:m].tobytes() == _wave_speed(gas, x, u).tobytes()
    assert ws.p[:m].tobytes() == gas.pressure_of_ratio(x).tobytes()
    assert ws.speed[:m].tobytes() == (np.sqrt(np.exp((gamma - 1.0) * np.log(x))) + np.abs(u)).tobytes()
    assert ws.p[:m].tobytes() == ((rho_bar / gamma) * x**gamma).tobytes()


def window_views(win):
    """The end of ``win`` and where each of its views starts and ends."""
    def extent(a):
        start = a.__array_interface__["data"][0]
        return start, start + a.nbytes
    return [win.end] + [extent(getattr(win, name)) for name in _Window.__slots__ if name != "end"]


@pytest.mark.parametrize("muscl", [False, True])
def test_window_views_follow_the_window_as_it_shrinks_and_grows(muscl):
    # the subnormal momentum past the shell opens the first window and is
    # damped to +0.0 (factor < 1/2); the window no longer shrinks to the
    # shell but keeps its end until the shell's front reaches its last cell,
    # then grows a block.  After every step the state is the full-grid
    # step's, and the window's views are those made fresh for its end, made
    # anew only when that end grows
    s, last = shell_state()
    cell = last + 20
    s.mom[cell] = 5e-324
    law = DampingLaw(mu=100.0, lam=0.0)
    ws, state = _Workspace(s, GAS), s
    views = [ws.win]
    for _ in range(40):
        full = full_grid_step(GAS, law, state, 0.4, muscl=muscl)
        state = workspace_step(ws, law, state.t, 0.4, muscl=muscl)
        assert (state.rho_pert.tobytes(), state.mom.tobytes()) == (full.rho_pert.tobytes(), full.mom.tobytes())
        assert [state.rho_pert.tobytes(), state.mom.tobytes()] == [a.tobytes() for a in ws.cells]
        assert_window_holds(ws, views[-1].end)
        views.append(ws.win)
    ends = [v.end for v in views]
    assert all((a is b) == (a.end == b.end) for a, b in zip(views, views[1:]))
    assert ends[0] == block_end(cell + 2, ws.n) and len(set(ends)) > 2
    assert ends == sorted(ends)


def test_first_order_step_in_a_workspace_allocates_no_window_sized_array():
    # a run's first-order step forms its fluxes and kernels in workspace
    # buffers; only a new window's views and small Python objects are new
    s = init_state(GAS, shell_profile(0.3), RadialGrid(1.25, 4096))
    ws, t = _Workspace(s, GAS), s.t
    for _ in range(3):
        dt = ws.stable_dt(0.4)
        ws.step(LAW, t, dt)
        t += dt
    window_bytes = 8 * (ws.win.end + 4)
    tracemalloc.start()
    try:
        for _ in range(5):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            dt = ws.stable_dt(0.4)
            ws.step(LAW, t, dt)
            t += dt
            assert tracemalloc.get_traced_memory()[1] - before < window_bytes / 2
    finally:
        tracemalloc.stop()
    assert ws.win.end > 3000


# ---------------------------------------------------------------- stacked series

# a quarter, a third and a half of the stack budget stack 4, 3 and 2 states;
# one cell more than the budget stands alone
SERIES_GRIDS = [32, 100, _STACK_CELLS // 4, _STACK_CELLS // 3, _STACK_CELLS // 2, _STACK_CELLS + 1]


def random_state(grid, rho_bar, t, seed, span, neg_zero):
    """A state whose live cells lie in [0, span), some of them +0.0, with a
    ``neg_zero`` share of its momenta set to a live -0.0 anywhere."""
    n = grid.n_cells
    rng = np.random.default_rng(seed)
    q, mom = np.zeros(n), np.zeros(n)
    q[:span] = rho_bar * rng.uniform(-0.9, 2.0, span)
    mom[:span] = rng.normal(0.0, 1.0, span)
    q[:span][rng.random(span) < 0.2] = 0.0
    mom[rng.random(n) < neg_zero] = -0.0
    return RadialState(t, q, mom, grid, rho_bar)


def assert_series_matches_one_state_monitors(states, gas, law, cfl):
    """``series`` equals, bit for bit, the one-state monitors with stable_dt
    and max_velocity_gradient on a fresh workspace per state, and the 1-D
    formulas of ``one_state_series``."""
    columns = series(states, gas, law, cfl)
    assert list(columns) == SERIES_NAMES
    got = np.array(list(columns.values())).reshape(7, len(states))
    for j, s in enumerate(states):
        assert vars(s).keys() == STATE_FIELDS
        package = [mass_excess(s, gas), weighted_momentum(s), weighted_potential_energy(s, gas, law),
                   float(np.min(s.rho)), float(np.max(np.abs(s.mom / s.rho))),
                   max_velocity_gradient(s), stable_dt(gas, s, cfl)]
        expected = np.array(one_state_series(s, gas, law, cfl))
        assert np.array(package).tobytes() == expected.tobytes(), j
        assert got[:, j].tobytes() == expected.tobytes(), j


@settings(max_examples=40, deadline=None)
@given(data=st.data(), gamma=st.sampled_from([2.0, 1.4, 5.0 / 3.0]), rho_bar=st.sampled_from([1.0, 2.0, 0.7]),
       mu=st.floats(0.0, 2.0), lam=st.floats(0.0, 3.0), cfl=st.sampled_from([0.4, 0.9]),
       sizes=st.lists(st.sampled_from(SERIES_GRIDS), min_size=1, max_size=3))
def test_series_matches_one_state_monitors(data, gamma, rho_bar, mu, lam, cfl, sizes):
    # consecutive runs of states on one grid, the grid changing between them
    gas = GasModel(gamma, rho_bar)
    states = []
    for n in sizes:
        grid = RadialGrid(12.0, n)
        for _ in range(data.draw(st.integers(0, max(2, min(10, _STACK_CELLS // n + 1))))):
            span = data.draw(st.sampled_from([0, 1, n]) | st.integers(0, n))
            states.append(random_state(grid, rho_bar, data.draw(st.floats(0.0, 50.0)),
                                       data.draw(st.integers(0, 2**32 - 1)), span,
                                       data.draw(st.sampled_from([0.0, 0.01, 0.5]))))
    assert_series_matches_one_state_monitors(states, gas, DampingLaw(mu, lam), cfl)


@pytest.mark.parametrize("case", ["empty", "single", "background", "to-last-cell", "negative-zero",
                                  "across-stacks-and-grids"])
def test_series_matches_one_state_monitors_on_edge_lists(case):
    fine, coarse = RadialGrid(12.0, 1024), RadialGrid(7.0, 4096)
    states = {
        "empty": [],
        "single": [random_state(fine, 1.0, 0.5, 1, 300, 0.0)],
        "background": [random_state(fine, 1.0, t, 2, 0, 0.0) for t in (0.0, 1.0, 2.0)],
        "to-last-cell": [random_state(grid, 1.0, 1.5, 3, grid.n_cells, 0.0) for grid in (fine, coarse)],
        "negative-zero": [random_state(fine, 1.0, 2.0, 4, 0, 0.01), random_state(fine, 1.0, 2.0, 5, 600, 0.01)],
        # more states than one stack holds, then the grid changes and back
        "across-stacks-and-grids": [random_state(grid, 1.0, 0.1 * j, j, 500, 0.001) for j, grid in
                                    enumerate([fine] * (_STACK_CELLS // 1024 + 2) + [coarse] * 3 + [fine] * 2)],
    }[case]
    assert_series_matches_one_state_monitors(states, GAS, DampingLaw(1.0, 1.7957), 0.4)


def test_series_does_not_depend_on_its_stack_size(monkeypatch):
    # one state a stack, stacks of a few states, and each grid's run in one
    # stack: every row is summed as its own state, so the columns are equal
    fine, coarse = RadialGrid(12.0, 1024), RadialGrid(7.0, 4096)
    grids = [fine] * (16384 // 1024 + 3) + [coarse] * 5 + [fine] * 3
    states = [random_state(grid, 1.0, 0.1 * j, j, 700, 0.001) for j, grid in enumerate(grids)]
    columns = []
    for cells in (32, 1024, 4096, 16384, 10**7):
        monkeypatch.setattr("critdamp.euler._STACK_CELLS", cells)
        columns.append(np.array(list(series(states, GAS, LAW, 0.4).values())).tobytes())
    assert columns == [columns[0]] * len(columns)


# (t, lam) where np.power over an array rounds (1 + t)**-lam differently from
# a Python float ** on some builds: each power of 1 + t is a Python float
@pytest.mark.parametrize("t, lam", [
    (9.716707176635781, 1.1791353779704619), (11.886000603993935, 1.4668846634068315),
    (4.543151870667595, 1.1891146891553994), (18.47060319566939, 2.0969724052766874),
    (4.833514281886899, 1.9959914451596643),
])
def test_series_takes_powers_of_one_plus_t_as_python_floats(t, lam):
    grid = RadialGrid(12.0, 1024)
    states = [random_state(grid, 1.0, t, seed, 700, 0.0) for seed in range(5)]
    assert_series_matches_one_state_monitors(states, GAS, DampingLaw(1.0, lam), 0.4)


def test_series_sums_each_row_as_a_one_dimensional_array():
    # a row of a Fortran-order stack would sum in another order than the 1-D
    # array of its state; these rows show that difference
    grid = RadialGrid(12.0, 1024)
    states = [random_state(grid, 1.0, 0.5 * j, 10 + j, 1024, 0.0) for j in range(8)]
    rho = np.asfortranarray([s.rho for s in states])
    assert np.sum(rho, axis=1).tobytes() != np.array([np.sum(s.rho) for s in states]).tobytes()
    assert_series_matches_one_state_monitors(states, GAS, LAW, 0.4)


@pytest.mark.parametrize("value", [-1.0, -3.0, math.nan])
@pytest.mark.parametrize("bad", [0, 5, 9])
def test_series_raises_negative_density_at_the_state_as_a_workspace_does(value, bad):
    # 10 states in stacks of 4, 4 and 2; rho = 1 + value at one cell of the
    # state ``bad`` and of the one after it, which must not be reported
    grid = RadialGrid(12.0, _STACK_CELLS // 4)
    states = [random_state(grid, 1.0, 0.25 * j, j, 400, 0.0) for j in range(10)]
    for j in (bad, bad + 1)[:10 - bad]:
        states[j].rho_pert[123] = value
    with pytest.raises(BreakdownError) as parent:
        _Workspace(states[bad])
    with pytest.raises(BreakdownError) as raised:
        series(states, GAS, LAW, 0.4)
    assert raised.value.time == parent.value.time == states[bad].t
    assert raised.value.cause == parent.value.cause == BreakdownCause.NEGATIVE_DENSITY


def test_series_rejects_states_off_the_gas_background():
    s = random_state(RadialGrid(12.0, 64), 2.0, 0.0, 1, 10, 0.0)
    with pytest.raises(ValueError, match="background"):
        series([s], GAS, LAW, 0.4)


def test_run_rejects_a_state_off_the_gas_background_before_stepping(monkeypatch):
    # checked with run's other arguments, not by series after the march
    state = init_state(GasModel(2.0, 2.0), bump_profile(0.1), RadialGrid(12.0, 64))

    def no_step(*args, **kwargs):
        raise AssertionError("run stepped")

    monkeypatch.setattr(_Workspace, "step", no_step)
    with pytest.raises(ValueError, match="background"):
        run(GAS, LAW, state, 1.0)


def test_series_memory_is_bounded_by_its_stacks():
    grid = RadialGrid(12.0, 1024)
    states = [random_state(grid, 1.0, 0.1 * j, j, 600, 0.0) for j in range(201)]
    tracemalloc.start()
    try:
        series(states, GAS, LAW, 0.4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
