"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with -s to see them).  Tolerances are pinned here, not calibrated later.
"""

import os
import time

import numpy as np

import critdamp as cd
from critdamp import monitors as mon
from critdamp.cli import run_experiment
from critdamp.config import parse_config
from critdamp.euler import series
from critdamp.numerics import adaptive_quad
from critdamp.outcome import sample_times
from critdamp.profiles import (
    _smooth_step,
    line_bump,
    line_ramp,
    mollifier,
    radial_bump,
    radial_outgoing_shell,
    radial_shell,
)
from helpers import (
    _split_cells,
    composite_simpson,
    density_moment,
    double_time_integral,
    initial_density_moment,
    initial_momentum_moment,
    integrating_factor,
    moment_band,
    momentum_ode_residual,
    pressure_constant,
    pressure_excess_moment,
)

GAS = cd.GasModel(gamma=2.0, rho_bar=1.0)


def report(num: int, ok: bool, elapsed: float, limit: float, detail: str) -> None:
    status = "PASS" if (ok and elapsed < limit) else "FAIL"
    print(f"[acceptance {num:02d}] {status} ({elapsed:.1f}s / limit {limit:.0f}s) {detail}")
    assert ok, detail
    assert elapsed < limit, f"runtime {elapsed:.1f}s exceeded {limit:.0f}s"


def ramp_problem(eps, mu, lam):
    w0, w0p, sup = line_ramp()
    return cd.BurgersProblem(w0, w0p, sup, eps, cd.DampingLaw(mu, lam))


def test_criterion_01_lifespan_dichotomy_sweep(tmp_path):
    """Exact Global/FiniteLifespan split on the lambda x mu grid at eps=1e-3."""
    t0 = time.monotonic()
    out = str(tmp_path / "sweep")
    cfg = parse_config(
        "sweep.lambda = 0,0.25,0.5,0.75,1,1.5,2,3\n"
        "sweep.mu = 0.25,0.5,1,1.5,2\n"
        "sweep.epsilon = 0.001\n"
        "profile.name = bump\n"
        f"output.dir = {out}",
        "sweep",
    )
    run_experiment(cfg)
    with open(os.path.join(out, "sweep.csv")) as fh:
        rows = fh.read().splitlines()[1:]
    mismatches = []
    for row in rows:
        lam_s, mu_s, _, verdict, _ = row.split(",")
        lam, mu = float(lam_s), float(mu_s)
        expect = "Global" if (lam < 1.0 or (lam == 1.0 and mu > 1.0)) else "FiniteLifespan"
        if verdict != expect:
            mismatches.append((lam, mu, verdict))
    elapsed = time.monotonic() - t0
    report(1, len(rows) == 40 and not mismatches, elapsed, 5.0,
           f"40 combos, {len(mismatches)} mismatches")


def test_criterion_02_exact_lifespan_and_breakdown_approach():
    """T = 35 exactly; resolution-scaled gradient trigger approaches T from below."""
    t0 = time.monotonic()
    problem = ramp_problem(0.1, 0.5, 1.0)
    verdict = cd.classify_lifespan(problem)
    exact_ok = isinstance(verdict, cd.FiniteLifespan) and abs(verdict.lifespan - 35.0) <= 1e-8

    span = (-4.2, 4.2)
    breakdown_times = []
    for n in (200, 400, 800):
        dx = (span[1] - span[0]) / n
        _, v = cd.simulate_fv(problem, n, 36.0, 0.5, gradient_threshold=0.008 / dx, x_span=span)
        breakdown_times.append(v.time if isinstance(v, cd.NumericalBreakdown) else np.inf)
    t200, t400, t800 = breakdown_times
    monotone_ok = t200 < t400 < t800 < 35.0
    elapsed = time.monotonic() - t0
    report(2, exact_ok and monotone_ok, elapsed, 60.0,
           f"T={verdict.lifespan!r}, breakdown times {[round(t, 2) for t in breakdown_times]} -> 35")


def test_criterion_03_characteristics_vs_fv_convergence():
    """L_inf error at t = T/2 decays at measured order >= 0.8 over three doublings."""
    t0 = time.monotonic()
    problem = ramp_problem(0.1, 0.5, 1.0)
    span = (-4.2, 4.2)
    errs = []
    ns = (200, 400, 800, 1600)
    for n in ns:
        snaps, _ = cd.simulate_fv(problem, n, 17.5, 0.5, snapshot_times=[17.5], x_span=span)
        s = snaps[-1]
        exact = cd.eval_characteristic(problem, 17.5, s.x)
        errs.append(float(np.max(np.abs(s.w - exact))))
    order = float(np.polyfit(np.log([1.0 / n for n in ns]), np.log(errs), 1)[0])
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    elapsed = time.monotonic() - t0
    report(3, decreasing and order >= 0.8, elapsed, 120.0,
           f"errors {[f'{e:.2e}' for e in errs]}, order {order:.3f}")


def test_criterion_04_exact_weighted_decay():
    """Q(t) beta(t) / Q(0) = 1 to 1e-10 on [0, 20] for three damping laws."""
    t0 = time.monotonic()
    w0, w0p, sup = line_bump(1.0)
    worst = 0.0
    for lam, mu in ((0.5, 1.0), (1.0, 2.0), (2.0, 1.0)):
        problem = cd.BurgersProblem(w0, w0p, sup, 0.1, cd.DampingLaw(mu, lam))
        times = [0.0, 2.5, 5.0, 10.0, 15.0, 20.0]
        snaps, verdict = cd.simulate_fv(problem, 256, 20.0, 0.5, snapshot_times=times)
        assert isinstance(verdict, cd.Global)
        dx = snaps[0].x[1] - snaps[0].x[0]
        q0 = float(np.sum(snaps[0].w)) * dx
        for s in snaps:
            q = float(np.sum(s.w)) * dx
            worst = max(worst, abs(q * integrating_factor(problem.damping, s.t) / q0 - 1.0))
    elapsed = time.monotonic() - t0
    report(4, worst <= 1e-10, elapsed, 30.0, f"max |Q beta/Q0 - 1| = {worst:.2e}")


def test_criterion_05_mass_conservation():
    """|L(t) - L(0)| / |L(0)| <= 1e-10 at every sample, n=1024, t_end=20."""
    t0 = time.monotonic()
    rho0, u0 = radial_bump(1.0)
    prof = cd.InitialProfile(rho0, u0, epsilon=0.1, M=1.0)
    grid = cd.RadialGrid(r_max=30.0, n_cells=1024)
    law = cd.DampingLaw(mu=1.0, lam=0.5)
    snapshots, verdict = cd.run(GAS, law, cd.init_state(GAS, prof, grid), t_end=20.0, cfl=0.4,
                                snapshot_times=sample_times(20.0, 0.5))
    L = series(snapshots, GAS, law, 0.4)["L"]
    drift = float(np.max(np.abs(L - L[0])) / abs(L[0]))
    elapsed = time.monotonic() - t0
    report(5, isinstance(verdict, cd.Global) and drift <= 1e-10, elapsed, 120.0,
           f"max relative drift {drift:.2e} over {len(L)} samples")


def test_criterion_06_momentum_ode_residual():
    """Discrete residual of H' + mu (1+t)^-lam H = int(rho u^2 + 3(p-p_bar))
    shrinks by >= 1.8x when (dt, dr) halve (dt tied to dr through fixed cfl)."""
    t0 = time.monotonic()
    law = cd.DampingLaw(mu=1.0, lam=0.5)
    rho0, u0 = radial_outgoing_shell(0.3, 1.0)
    prof = cd.InitialProfile(rho0, u0, epsilon=0.05, M=1.0, M0=0.3)

    def residual(n):
        state = cd.init_state(GAS, prof, cd.RadialGrid(12.0, n))
        snapshots, _ = cd.run(GAS, law, state, t_end=4.0, cfl=0.4, snapshot_times=sample_times(4.0, 0.2))
        return momentum_ode_residual(snapshots, GAS, law)

    r_coarse, r_fine = residual(192), residual(384)
    ratio = r_coarse / r_fine
    elapsed = time.monotonic() - t0
    report(6, ratio >= 1.8, elapsed, 300.0,
           f"residuals {r_coarse:.3e} -> {r_fine:.3e}, ratio {ratio:.2f}")


def test_criterion_07_large_data_blowup_criterion():
    """Large outgoing data with L0 >= 0 and criterion satisfied at T*: the
    solver breaks down before T* (second-order reconstruction at cfl 0.85
    loses positivity on the violent expansion); small data under identical
    solver settings completes the same horizon."""
    t0 = time.monotonic()
    law = cd.DampingLaw(mu=1.0, lam=1.0)
    rho0, _ = radial_shell(0.2, 1.0)

    def velocity(amp):
        def u0(r):
            r = np.asarray(r, dtype=float)
            return amp * _smooth_step((r - 0.2) / 0.08) * _smooth_step((1.0 - r) / 0.3)
        return u0

    u_big = velocity(50.0)
    prof = cd.InitialProfile(rho0, u_big, epsilon=1.0, M=1.0, M0=0.2)
    h0 = 4 * np.pi * adaptive_quad(
        lambda r: r**3 * (GAS.rho_bar + np.asarray(rho0(r))) * np.asarray(u_big(r)), 0.0, 1.0
    )
    l0 = 4 * np.pi * adaptive_quad(lambda r: r**2 * np.asarray(rho0(r)), 0.0, 1.0)
    assert l0 >= 0.0 and h0 > 0.0

    lo, hi = 1e-3, 200.0
    assert mon.blowup_criterion(h0, l0, 1.0, law, GAS, hi).satisfied
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mon.blowup_criterion(h0, l0, 1.0, law, GAS, mid).satisfied:
            hi = mid
        else:
            lo = mid
    t_star = hi * 1.05
    rep = mon.blowup_criterion(h0, l0, 1.0, law, GAS, t_star)
    assert rep.satisfied

    grid = cd.RadialGrid(r_max=1.0 + t_star * 1.3 * 52.0, n_cells=4096)
    _, verdict = cd.run(GAS, law, cd.init_state(GAS, prof, grid), t_end=t_star, cfl=0.85,
                        snapshot_times=sample_times(t_star, t_star / 20), muscl=True)
    broke = isinstance(verdict, cd.NumericalBreakdown) and verdict.time < t_star

    control = cd.InitialProfile(rho0, velocity(0.01), epsilon=1.0, M=1.0, M0=0.2)
    _, verdict_ctrl = cd.run(GAS, law, cd.init_state(GAS, control, grid), t_end=t_star, cfl=0.85,
                             snapshot_times=sample_times(t_star, t_star / 4), muscl=True)
    control_ok = isinstance(verdict_ctrl, cd.Global)
    elapsed = time.monotonic() - t0
    report(7, broke and control_ok, elapsed, 600.0,
           f"H0={h0:.1f}, L0={l0:.2f}, T*={t_star:.3f}, verdict {cd.verdict_label(verdict)}")


def test_criterion_08_small_data_boundedness():
    """Regression proxy for subcritical decay: eps=0.01, lam in {0, 0.5, 1},
    mu=1, t_end=200: positive density, late velocity below early velocity,
    and E0 within 2x of its initial level."""
    t0 = time.monotonic()
    rho0, u0 = radial_outgoing_shell(0.3, 1.0)
    prof = cd.InitialProfile(rho0, u0, epsilon=0.01, M=1.0, M0=0.3)
    grid = cd.RadialGrid(r_max=260.0, n_cells=2048)
    details = []
    ok = True
    for lam in (0.0, 0.5, 1.0):
        law = cd.DampingLaw(mu=1.0, lam=lam)
        snapshots, verdict = cd.run(GAS, law, cd.init_state(GAS, prof, grid), t_end=200.0, cfl=0.4,
                                    snapshot_times=sample_times(200.0, 1.0))
        columns = series(snapshots, GAS, law, 0.4)
        times = [s.t for s in snapshots]
        E0 = columns["E0"]
        max_u = columns["max_u"]
        i5 = int(np.searchsorted(times, 5.0))
        i1 = int(np.searchsorted(times, 1.0))
        bound = 2.0 * max(E0[0], E0[i1])
        case_ok = (
            isinstance(verdict, cd.Global)
            and float(np.min(columns["min_rho"])) > 0.0
            and max_u[-1] < max_u[i5]
            and float(np.max(E0)) <= bound
        )
        ok = ok and case_ok
        details.append(f"lam={lam}: u {max_u[i5]:.1e}->{max_u[-1]:.1e}, E0max/bound "
                       f"{np.max(E0) / bound:.2f}")
    elapsed = time.monotonic() - t0
    report(8, ok, elapsed, 600.0, "; ".join(details))


def test_criterion_09_weak_damping_steepening():
    """lam=2, mu=1, eps=0.3: the velocity gradient grows >= 10x from its
    initial value well before t = 100 (focusing shell data; the weak tail
    of the damping cannot prevent nonlinear gradient amplification)."""
    t0 = time.monotonic()
    rho0, _ = radial_shell(0.3, 1.0)

    def u0_in(r):
        s = (2.0 * np.asarray(r, dtype=float) - 1.3) / 0.7
        return -mollifier(s)

    law = cd.DampingLaw(mu=1.0, lam=2.0)
    prof = cd.InitialProfile(rho0, u0_in, epsilon=0.3, M=1.0, M0=0.3)
    grid = cd.RadialGrid(r_max=6.5, n_cells=8192)
    snapshots, verdict = cd.run(GAS, law, cd.init_state(GAS, prof, grid), t_end=3.0, cfl=0.4,
                                snapshot_times=sample_times(3.0, 0.02))
    g = series(snapshots, GAS, law, 0.4)["max_du_dr"]
    growth = float(np.max(g) / g[0])
    broke = isinstance(verdict, cd.NumericalBreakdown)
    elapsed = time.monotonic() - t0
    report(9, growth >= 10.0 or broke, elapsed, 300.0,
           f"gradient growth {growth:.1f}x (initial {g[0]:.3f}) by t<=3 < 100")


def test_criterion_10_functional_identities():
    """P(0,l) = q0(l) and dP/dt(0,l) ~ q1(l) with halving errors; F'' second
    difference reproduces the band integral; G >= 0 with the gamma=2 closed
    form to 1e-12."""
    t0 = time.monotonic()
    law = cd.DampingLaw(mu=1.0, lam=2.0)
    rho0, u0 = radial_outgoing_shell(0.3, 1.0)
    prof = cd.InitialProfile(rho0, u0, epsilon=0.1, M=1.0, M0=0.3)
    probes = (0.35, 0.5, 0.7)

    def p_err(n):
        s = cd.init_state(GAS, prof, cd.RadialGrid(20.0, n))
        return max(abs(density_moment(s, GAS, l) - initial_density_moment(prof, GAS, l))
                   for l in probes)

    def dp_err(n):
        s0 = cd.init_state(GAS, prof, cd.RadialGrid(20.0, n))
        s1 = cd.step(GAS, law, s0, 0.4)
        out = 0.0
        for l in probes:
            dp = (density_moment(s1, GAS, l) - density_moment(s0, GAS, l)) / (s1.t - s0.t)
            out = max(out, abs(dp - initial_momentum_moment(prof, GAS, l)))
        return out

    p_halves = p_err(1024) <= 0.6 * p_err(512)
    dp_halves = dp_err(1024) <= 0.65 * dp_err(512)

    def band_residual(n, cadence):
        grid = cd.RadialGrid(20.0, n)
        snapshots, _ = cd.run(GAS, law, cd.init_state(GAS, prof, grid), t_end=3.0, cfl=0.4,
                              snapshot_times=sample_times(3.0, cadence))
        slices = [(s.t, *moment_band(s, GAS, prof.M0, prof.M, n_l=64)) for s in snapshots]
        times, F, band = double_time_integral(slices, prof.M0, prof.M)
        dt = times[1] - times[0]
        d2 = (F[2:] - 2 * F[1:-1] + F[:-2]) / dt**2
        scale = float(np.max(np.abs(band)))
        return float(np.max(np.abs(d2 - band[1:-1]))), scale

    res_c, scale_c = band_residual(256, 0.25)
    res_f, scale_f = band_residual(512, 0.125)
    # the trapezoid double integral makes the identity exact on a uniform
    # grid, so both residuals sit at round-off; halving is asserted with a
    # matching round-off floor
    floor = 1e-12
    f_ok = (res_c <= floor * scale_c) and (res_f <= max(0.5 * res_c, floor * scale_f))

    s = cd.init_state(GAS, prof, cd.RadialGrid(20.0, 512))
    for _ in range(20):
        s = cd.step(GAS, law, s, 0.4)

    g_ok = True
    for l in (0.05, 0.4, 0.9):
        g_val = pressure_excess_moment(s, GAS, l)
        mids, widths = _split_cells(s, l)
        i0 = s.grid.n_cells - mids.size
        ref = 8 * np.pi * pressure_constant(GAS) * float(np.sum(mids * s.rho_pert[i0:] ** 2 * widths))
        g_ok = g_ok and g_val >= 0.0 and abs(g_val - ref) <= 1e-12 * max(ref, 1e-300)
    elapsed = time.monotonic() - t0
    report(10, p_halves and dp_halves and f_ok and g_ok, elapsed, 120.0,
           f"P=q0 halves: {p_halves}, dP/dt=q1 halves: {dp_halves}, "
           f"F'' residual {res_c:.1e}/{res_f:.1e}, G exact: {g_ok}")


def test_criterion_11_quadrature_oracles():
    """Adaptive quadrature paths vs brute-force composite Simpson at extreme
    refinement, 1e-9 relative."""
    t0 = time.monotonic()
    law = cd.DampingLaw(mu=1.0, lam=2.0)
    val = law.reciprocal_integral(5.0)
    oracle = composite_simpson(lambda tau: np.exp(-(1.0 - 1.0 / (1.0 + tau))), 0.0, 5.0, 2_000_000)
    integral_ok = abs(val - oracle) <= 1e-9 * abs(oracle)

    rep = cd.blowup_criterion(1.0, 0.0, 1.0, cd.DampingLaw(1.0, 0.0), GAS, 10.0)
    brute = composite_simpson(
        lambda tau: np.exp(-tau) / ((tau + 1.0) ** 2 * (4 * np.pi**2 / 3) * (tau + 1.0) ** 3),
        0.0, 10.0, 10_000_000,
    )
    criterion_ok = abs(rep.integral_value - brute) <= 1e-9 * abs(brute)
    elapsed = time.monotonic() - t0
    report(11, integral_ok and criterion_ok, elapsed, 60.0,
           f"I(5) diff {abs(val - oracle):.1e}, criterion diff "
           f"{abs(rep.integral_value - brute):.1e}")
