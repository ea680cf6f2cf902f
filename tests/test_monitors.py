import numpy as np
import pytest

from critdamp import (
    DampingLaw,
    GasModel,
    InitialProfile,
    RadialGrid,
    blowup_criterion,
    cauchy_schwarz_weight,
    density_moment,
    double_time_integral,
    init_state,
    initial_density_moment,
    initial_momentum_moment,
    mass_excess,
    moment_band,
    pressure_excess_moment,
    run,
    step,
    weighted_momentum,
    weighted_potential_energy,
)
from critdamp.monitors import CriterionReport, FunctionalSeries
from critdamp.profiles import radial_bump, radial_outgoing_shell
from helpers import (
    composite_midpoint,
    composite_simpson,
    density_moment_tolerance,
    initial_moment_margins,
)

GAS = GasModel(gamma=2.0, rho_bar=1.0)
LAW = DampingLaw(mu=1.0, lam=2.0)


def shell_profile(epsilon=0.1):
    rho0, u0 = radial_outgoing_shell(0.3, 1.0)
    return InitialProfile(rho0, u0, epsilon=epsilon, M=1.0, M0=0.3)


def constant_state(grid=None):
    rho0, u0 = radial_bump(1.0)
    prof = InitialProfile(rho0, u0, epsilon=0.0, M=1.0)
    return init_state(GAS, prof, grid or RadialGrid(12.0, 128))


# ---------------------------------------------------------------- q0 / q1

def test_initial_moments_vanish_without_perturbation():
    rho0, u0 = radial_bump(1.0)
    zero_prof = InitialProfile(lambda r: np.zeros_like(np.asarray(r, dtype=float)), u0, 0.1, 1.0)
    for l in (0.0, 0.4, 2.0):
        assert initial_density_moment(zero_prof, GAS, l) == 0.0
    # velocity-free data: momentum moment vanishes (bump has u0 = 0)
    rest_prof = InitialProfile(rho0, u0, 0.1, 1.0)
    for l in (0.0, 0.5):
        assert initial_momentum_moment(rest_prof, GAS, l) == 0.0
    # beyond the support both moments vanish
    prof = shell_profile()
    assert initial_density_moment(prof, GAS, 1.0) == 0.0
    assert initial_momentum_moment(prof, GAS, 1.7) == 0.0


def test_initial_density_moment_brute_force():
    prof = shell_profile()
    rho0 = prof.rho0
    for l in (0.0, 0.35, 0.6):
        brute = 4 * np.pi * composite_midpoint(
            lambda r: r * (r - l) ** 2 * 0.1 * np.asarray(rho0(r)), l, 1.0, 1_000_000
        )
        assert initial_density_moment(prof, GAS, l) == pytest.approx(brute, rel=1e-8)


def test_initial_momentum_moment_nonnegative_outgoing():
    prof = shell_profile()
    ls = np.linspace(0.0, 1.2, 25)
    vals = [initial_momentum_moment(prof, GAS, l) for l in ls]
    assert min(vals) >= 0.0


def test_initial_moment_margins():
    q0_min, q1_min = initial_moment_margins(shell_profile(), GAS, n_l=64)
    assert q0_min > 0.0
    assert q1_min >= 0.0


# ---------------------------------------------------------------- P and G

def test_density_moment_matches_initial_moment():
    prof = shell_profile()
    grid = RadialGrid(20.0, 1024)
    s = init_state(GAS, prof, grid)
    for l in (0.0, 0.3, 0.5, 0.9):
        tol = max(density_moment_tolerance(s, GAS, l), 1e-8)
        diff = abs(density_moment(s, GAS, l) - initial_density_moment(prof, GAS, l))
        assert diff <= 10 * tol


def test_density_moment_convergence():
    prof = shell_profile()
    def worst(n):
        s = init_state(GAS, prof, RadialGrid(20.0, n))
        return max(
            abs(density_moment(s, GAS, l) - initial_density_moment(prof, GAS, l))
            for l in (0.35, 0.5, 0.7)
        )
    assert worst(1024) <= 0.6 * worst(512)


def test_momentum_moment_matches_time_derivative():
    # forward difference of P over one solver step approaches q1 at first order
    prof = shell_profile()

    def err(n):
        grid = RadialGrid(20.0, n)
        s0 = init_state(GAS, prof, grid)
        s1 = step(GAS, LAW, s0, 0.4)
        out = 0.0
        for l in (0.4, 0.5, 0.6, 0.7):
            dp = (density_moment(s1, GAS, l) - density_moment(s0, GAS, l)) / (s1.t - s0.t)
            out = max(out, abs(dp - initial_momentum_moment(prof, GAS, l)))
        return out

    e1, e2 = err(512), err(1024)
    assert e2 <= 0.65 * e1


def test_moments_vanish_on_constant_state():
    s = constant_state()
    for l in (0.0, 0.5, 3.0):
        assert density_moment(s, GAS, l) == 0.0
        assert pressure_excess_moment(s, GAS, l) == 0.0
    assert weighted_momentum(s) == 0.0
    assert mass_excess(s, GAS) == 0.0
    assert weighted_potential_energy(s, GAS, LAW) == 0.0


def test_pressure_moment_nonnegative_and_gamma2_exact():
    prof = shell_profile()
    grid = RadialGrid(20.0, 512)
    s = init_state(GAS, prof, grid)
    for _ in range(25):
        s = step(GAS, LAW, s, 0.4)
    from critdamp.monitors import _split_cells

    for l in (0.05, 0.4, 1.1):
        g_val = pressure_excess_moment(s, GAS, l)
        assert g_val >= 0.0
        mids, widths = _split_cells(s, l)
        i0 = grid.n_cells - mids.size
        ref = 8 * np.pi * GAS.A * float(np.sum(mids * s.rho_pert[i0:] ** 2 * widths))
        assert g_val == pytest.approx(ref, rel=1e-12)


def test_moment_sign_claim_along_run():
    # with q0 > 0 and q1 >= 0 on (M0, M), P stays above -10x the discretization
    # tolerance for l >= M0 over the whole run
    prof = shell_profile()
    grid = RadialGrid(20.0, 512)
    res = run(GAS, LAW, prof, grid, t_end=6.0, cfl=0.4, monitor_cadence=0.5)
    for s in res.snapshots:
        ls, vals = moment_band(s, GAS, prof.M0, prof.M, n_l=24)
        tols = np.array([density_moment_tolerance(s, GAS, l) for l in ls])
        assert np.all(vals >= -10.0 * tols - 1e-12)


def test_moment_damped_convexity_residual():
    # second differences of P in t plus the damping term stay above -O(dt)
    prof = shell_profile()
    grid = RadialGrid(20.0, 512)
    res = run(GAS, LAW, prof, grid, t_end=4.0, cfl=0.4, monitor_cadence=0.1)
    t = res.times
    dt = t[1] - t[0]
    for l_probe in (0.5, 0.8):
        p_series = np.array([density_moment(s, GAS, l_probe) for s in res.snapshots])
        d2 = (p_series[2:] - 2 * p_series[1:-1] + p_series[:-2]) / dt**2
        d1 = (p_series[2:] - p_series[:-2]) / (2 * dt)
        coeff = LAW.mu * (1.0 + t[1:-1]) ** (-LAW.lam)
        residual = d2 + coeff * d1
        assert np.min(residual) >= -0.05


# ---------------------------------------------------------------- F

def run_band_slices(cadence=0.25, n_l=64, t_end=3.0, n=512):
    prof = shell_profile()
    grid = RadialGrid(20.0, n)
    res = run(GAS, LAW, prof, grid, t_end=t_end, cfl=0.4, monitor_cadence=cadence)
    return [(s.t, *moment_band(s, GAS, prof.M0, prof.M, n_l=n_l)) for s in res.snapshots]


def test_double_time_integral_identity():
    slices = run_band_slices()
    F, band = double_time_integral(slices, 0.3, 1.0)
    assert F.values[0] == 0.0
    dt = F.times[1] - F.times[0]
    # empty integration range also kills the first derivative: F(dt) = O(dt^2)
    assert abs(F.values[1]) <= dt**2 * np.max(np.abs(band.values))
    d2 = (F.values[2:] - 2 * F.values[1:-1] + F.values[:-2]) / dt**2
    scale = np.max(np.abs(band.values))
    assert np.max(np.abs(d2 - band.values[1:-1])) <= 1e-12 * scale


def test_double_time_integral_convex_when_band_nonnegative():
    slices = run_band_slices()
    F, band = double_time_integral(slices, 0.3, 1.0)
    assert np.all(band.values >= 0.0)
    assert np.all(np.diff(F.values) >= -1e-15)
    assert np.all(np.diff(F.values, 2) >= -1e-15)


def test_double_time_integral_validation():
    slices = run_band_slices()
    with pytest.raises(ValueError):
        double_time_integral(slices[:2], 0.3, 1.0)
    bad = [(t, ls + 0.5, vals) for t, ls, vals in slices]
    with pytest.raises(ValueError):
        double_time_integral(bad, 0.3, 1.0)


def test_functional_series_validation():
    with pytest.raises(ValueError):
        FunctionalSeries("x", np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        FunctionalSeries("x", np.array([0.0, 1.0]), np.array([1.0]))


# ---------------------------------------------------------------- H, L, alpha

def test_weighted_momentum_zero_for_rest_data():
    rho0, _ = radial_bump(1.0)
    prof = InitialProfile(rho0, lambda r: np.zeros_like(np.asarray(r, dtype=float)), 0.1, 1.0)
    s = init_state(GAS, prof, RadialGrid(12.0, 128))
    assert weighted_momentum(s) == 0.0


def test_mass_excess_constant_along_run():
    prof = shell_profile()
    grid = RadialGrid(20.0, 256)
    res = run(GAS, LAW, prof, grid, t_end=8.0, cfl=0.4, monitor_cadence=1.0)
    L = res.columns["L"]
    assert np.max(np.abs(L - L[0])) <= 1e-10 * abs(L[0])


def test_alpha_closed_form():
    assert cauchy_schwarz_weight(0.0, 1.0, 0.0, GAS) == pytest.approx(4 * np.pi**2 / 3, rel=1e-14)
    assert cauchy_schwarz_weight(2.0, 1.0, 5.0, GAS) == pytest.approx(
        9.0 * (5.0 + 4 * np.pi**2 / 3 * 27.0), rel=1e-14
    )


# ---------------------------------------------------------------- criterion

def test_criterion_zero_momentum_never_satisfied():
    for t_star in (0.1, 10.0, 500.0):
        rep = blowup_criterion(0.0, 0.0, 1.0, DampingLaw(1.0, 0.0), GAS, t_star)
        assert not rep.satisfied


def test_criterion_integral_brute_force():
    # lam=0, mu=1, M=1, L0=0, rho_bar=1, T*=10 against 1e7-panel Simpson
    rep = blowup_criterion(1.0, 0.0, 1.0, DampingLaw(1.0, 0.0), GAS, 10.0)
    brute = composite_simpson(
        lambda tau: np.exp(-tau) / ((tau + 1.0) ** 2 * (4 * np.pi**2 / 3) * (tau + 1.0) ** 3),
        0.0, 10.0, 10_000_000,
    )
    assert rep.integral_value == pytest.approx(brute, rel=1e-9)


def test_criterion_monotone_in_h0_and_t_star():
    law = DampingLaw(1.0, 1.0)
    rep1 = blowup_criterion(50.0, 0.0, 1.0, law, GAS, 5.0)
    rep2 = blowup_criterion(100.0, 0.0, 1.0, law, GAS, 5.0)
    assert rep2.h0 * rep2.integral_value > rep1.h0 * rep1.integral_value
    rep3 = blowup_criterion(50.0, 0.0, 1.0, law, GAS, 10.0)
    assert rep3.integral_value > rep1.integral_value


def test_criterion_closed_form_factor_paths_agree():
    # lam in {0, 1} run through the same quadrature as generic lam; spot-check
    # against substituting the closed beta forms directly
    h0, l0, m = 10.0, 0.2, 1.5
    for law in (DampingLaw(2.0, 0.0), DampingLaw(1.5, 1.0)):
        rep = blowup_criterion(h0, l0, m, law, GAS, 20.0)
        beta = (lambda tau: np.exp(2.0 * tau)) if law.lam == 0.0 else (lambda tau: (1 + tau) ** 1.5)
        brute = composite_simpson(
            lambda tau: 1.0 / (cauchy_schwarz_weight(tau, m, l0, GAS) * beta(tau)),
            0.0, 20.0, 2_000_000,
        )
        assert rep.integral_value == pytest.approx(brute, rel=1e-10)


def test_criterion_validation():
    with pytest.raises(ValueError):
        blowup_criterion(1.0, -0.5, 1.0, LAW, GAS, 10.0)
    with pytest.raises(ValueError):
        blowup_criterion(1.0, 0.0, 1.0, LAW, GAS, 0.0)
    with pytest.raises(ValueError):
        CriterionReport(h0=2.0, l0=0.0, t_star=1.0, integral_value=1.0, satisfied=False)


# ---------------------------------------------------------------- energy

def test_energy_scales_quadratically():
    def e0(eps):
        s = init_state(GAS, shell_profile(eps), RadialGrid(20.0, 1024))
        return weighted_potential_energy(s, GAS, LAW)

    assert e0(2e-3) / e0(1e-3) == pytest.approx(4.0, rel=0.05)


def test_energy_potential_matches_quadrature():
    # phi(0, r) = -int_r^inf u(0, s) ds, checked at an interior radius
    prof = shell_profile()
    grid = RadialGrid(20.0, 2048)
    s = init_state(GAS, prof, grid)
    u = s.mom / s.rho
    dr = grid.dr
    tail = np.cumsum(u[::-1])[::-1] * dr
    phi = -(tail - 0.5 * u * dr)
    i = int(0.6 / dr)
    r_c = grid.centers[i]

    def u_exact(rr):
        rr = np.asarray(rr, dtype=float)
        rho = GAS.rho_bar + 0.1 * np.asarray(prof.rho0(rr))
        return rho * 0.1 * np.asarray(prof.u0(rr)) / rho

    ref = -composite_simpson(u_exact, r_c, 1.0, 200_000)
    assert phi[i] == pytest.approx(ref, abs=5e-6)


def test_energy_finite_and_positive_when_moving():
    s = init_state(GAS, shell_profile(0.1), RadialGrid(20.0, 256))
    val = weighted_potential_energy(s, GAS, LAW)
    assert np.isfinite(val) and val > 0.0
