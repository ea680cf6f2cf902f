"""Shared brute-force oracles for the test suite.

These deliberately avoid the package's own numeric kernels: fixed-order
composite rules at extreme refinement, plain bisection and mpmath's incomplete
gamma function, so every dual-route check compares two independent code
paths.  The exceptions are the full-grid radial step, the march over it and
the one-state series row, which the windowed ``euler.step``, ``euler.run``
and the stacked ``euler.series`` must reproduce bit for bit, the naive
snapshot writer and the line-fed CSV reader, whose bytes and results
``csvio`` must reproduce, and the helpers at the end, which only the tests call.  Among those are the
series-file reader and the weighted density moments of the paper's blowup
argument for lambda > 1 (P(t, l), its smooth-data values q0 and q1, the
pressure-excess moment G and the twice-integrated band functional F), which
the radial solver is checked against; the smooth-data moments use the
package's ``adaptive_quad``.
"""

import itertools
import math

import numpy as np
import pytest

from critdamp.csvio import read_csv
from critdamp.euler import DENSITY_FLOOR_FACTOR, RadialState
from critdamp.monitors import FOUR_PI
from critdamp.numerics import adaptive_quad, gamma_fraction, gamma_series
from critdamp.outcome import (
    DT_FLOOR,
    BreakdownCause,
    BreakdownError,
    FiniteLifespan,
    Global,
    NumericalBreakdown,
    march,
    sample_times,
)


def composite_simpson(f, a, b, n_panels):
    """Composite Simpson on n_panels (even) uniform panels; f vectorized."""
    if n_panels % 2:
        n_panels += 1
    x = np.linspace(a, b, n_panels + 1)
    y = np.asarray(f(x), dtype=float)
    h = (b - a) / n_panels
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


def composite_midpoint(f, a, b, n_panels):
    h = (b - a) / n_panels
    x = a + (np.arange(n_panels) + 0.5) * h
    return float(np.sum(np.asarray(f(x), dtype=float)) * h)


def bisect_root(f, lo, hi, n_iter=200):
    f_lo = f(lo)
    assert f_lo * f(hi) <= 0
    for _ in range(n_iter):
        mid = 0.5 * (lo + hi)
        if f_lo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            f_lo = f(lo)
    return 0.5 * (lo + hi)


def one_shot_scan_maximum(f, lo, hi, n_scan):
    """``numerics.scan_maximum`` with its dense scan done in one piece: ``f``
    on the whole grid at once and a single ``np.argmax`` over it, then the
    same golden-section refinement and candidate list."""
    xs = np.linspace(lo, hi, n_scan)
    vals = np.asarray(f(xs), dtype=float)
    i = int(np.argmax(vals))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, n_scan - 1)]

    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1 = float(f(np.array([x1]))[0])
    f2 = float(f(np.array([x2]))[0])
    for _ in range(80):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = float(f(np.array([x2]))[0])
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = float(f(np.array([x1]))[0])
    x_best = 0.5 * (a + b)
    f_best = float(f(np.array([x_best]))[0])
    return max([(f_best, x_best), (f1, x1), (f2, x2), (float(vals[i]), float(xs[i]))])[::-1]


def mp_reciprocal_integral(mu, lam, t=None):
    """I(t) (or I(inf) for t None) of the law (mu, lam), 0 < lam < 1 or
    lam > 1, from mpmath at 50 digits.  Skips the calling test when mpmath is
    missing.

    For 0 < lam < 1: (e^c c^-s / a) times the incomplete gamma integral of
    y^(s-1) e^-y over [c, c (1+t)^a], with a = 1 - lam, s = 1/a, c = mu/a.
    The difference is taken of lower gammas for c < s and of upper gammas
    otherwise, so that the 50 digits are not lost to cancellation.

    For lam > 1 (finite t only): mpmath's quadrature of 1/beta in log time,
    int_0^log1p(t) exp(L - C (1 - e^(-bL))) dL with b = lam - 1 and C = mu/b,
    split every 32 units of L.  It shares no approximation with the
    package's series or its adaptive Simpson rule, and takes well under a
    second up to t = 1e100.
    """
    mp = pytest.importorskip("mpmath")
    if lam > 1:
        with mp.workdps(50):
            b = mp.mpf(lam) - 1
            c = mp.mpf(mu) / b
            end = mp.log1p(mp.mpf(t))
            return mp.quad(lambda L: mp.exp(L - c * (1 - mp.exp(-b * L))), mp.linspace(0, end, 2 + int(end / 32)))
    with mp.workdps(50):
        a = 1 - mp.mpf(lam)
        s = 1 / a
        c = mp.mpf(mu) / a
        scale = mp.exp(c) * c ** -s / a
        if t is None:
            return scale * mp.gammainc(s, c)
        x = c * mp.exp(a * mp.log1p(mp.mpf(t)))
        if c < s:
            return scale * (mp.gammainc(s, 0, x) - mp.gammainc(s, 0, c))
        return scale * (mp.gammainc(s, c) - mp.gammainc(s, x))


def full_grid_max_speed(gas, state):
    """max(|u| + c) over every cell of the grid."""
    rho = state.rho
    u = state.mom / rho
    c = np.sqrt(gas.sound_speed_sq(rho))
    return float(np.max(np.abs(u) + c))


def full_grid_stable_dt(gas, state, cfl):
    return cfl * state.grid.dr / full_grid_max_speed(gas, state)


def full_grid_max_velocity_gradient(state):
    u = state.mom / state.rho
    return float(np.max(np.abs(np.diff(u)))) / state.grid.dr


def _minmod(a, b):
    return np.where(a * b > 0, np.where(np.abs(a) < np.abs(b), a, b), 0.0)


def full_grid_step(gas, damping, state, cfl, *, dt=None, muscl=False):
    """The radial Rusanov/MUSCL step evaluated on every cell of the grid."""
    grid = state.grid
    dr = grid.dr
    r = grid.centers

    internal_dt = dt is None
    if internal_dt:
        dt = full_grid_stable_dt(gas, state, cfl)
    if not np.isfinite(dt) or dt <= 0 or (internal_dt and dt <= DT_FLOOR):
        raise BreakdownError(state.t, BreakdownCause.CFL_COLLAPSE)

    q_e = np.concatenate([state.rho_pert[1::-1], state.rho_pert, [0.0, 0.0]])
    mom_e = np.concatenate([-state.mom[1::-1], state.mom, [0.0, 0.0]])
    if muscl:
        d_q = np.diff(q_e)
        d_mom = np.diff(mom_e)
        s_q = _minmod(d_q[:-1], d_q[1:])
        s_mom = _minmod(d_mom[:-1], d_mom[1:])
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
    return RadialState(t_new, q_new, mom_new, grid, gas.rho_bar)


def full_grid_run(gas, damping, state, t_end, cfl, cadence, muscl=False):
    """``euler.run`` on the full-grid oracles: (times, columns, snapshots,
    verdict), the columns as ``euler.series`` names and orders them."""
    snapshots = []

    def sample(s, t):
        s.t = t
        snapshots.append(s.copy())

    verdict = march(state, t_end, sample_times(t_end, cadence), lambda s: full_grid_stable_dt(gas, s, cfl),
                    lambda s, t, dt: full_grid_step(gas, damping, s, cfl, dt=dt, muscl=muscl),
                    full_grid_max_velocity_gradient, sample)
    table = np.array([one_state_series(s, gas, damping, cfl) for s in snapshots]).reshape(-1, 7).T
    columns = {name: np.ascontiguousarray(column) for name, column in zip(SERIES_NAMES, table)}
    return np.asarray([s.t for s in snapshots]), columns, snapshots, verdict


SERIES_NAMES = ["L", "H", "E0", "min_rho", "max_u", "max_du_dr", "dt"]


def one_state_series(state, gas, damping, cfl):
    """The ``euler.series`` row of one state (``SERIES_NAMES``), with the
    monitors written out over the state's 1-D arrays: every power of 1 + t a
    Python float, every sum a 1-D ``np.sum``, and max_du_dr and dt from the
    full-grid oracles."""
    r, dr, t, lam = state.grid.centers, state.grid.dr, state.t, damping.lam
    rho = state.rho
    u = state.mom / rho
    tail = np.cumsum(u[::-1])[::-1] * dr
    phi = -(tail - 0.5 * u * dr)
    coeff = damping.mu * (1.0 + t) ** (-lam)
    dphi_dt = -(0.5 * u * u + gas.enthalpy(rho) + coeff * phi)
    scale = (1.0 + t) ** (-lam)
    psi = phi * scale
    dpsi_dt = dphi_dt * scale - lam * phi * scale / (1.0 + t)
    density = (1.0 + t) ** (2.0 * lam) * (dpsi_dt**2 + (u * scale)**2) + psi**2
    return [
        FOUR_PI * float(np.sum(r**2 * (rho - gas.rho_bar)) * dr),
        FOUR_PI * float(np.sum(r**3 * state.mom) * dr),
        FOUR_PI * float(np.sum(r**2 * density) * dr),
        float(np.min(rho)),
        float(np.max(np.abs(u))),
        full_grid_max_velocity_gradient(state),
        full_grid_stable_dt(gas, state, cfl),
    ]


def line_fed_read_csv(path):
    """``csvio.read_csv`` as it fed ``np.loadtxt`` one line at a time from
    Python: the reference for the data and the error texts of the reader
    that hands ``np.loadtxt`` the path."""
    with open(path, "r", encoding="utf-8") as fh:
        content = (line for line in map(str.strip, fh) if line and not line.startswith("#"))
        header, first = next(content, ""), next(content, "")
        try:
            if not first:
                raise ValueError("no data rows" if header else "no header line")
            data = np.loadtxt(itertools.chain([first], fh), delimiter=",", comments="#", ndmin=2)
            if data.shape[1] != header.count(",") + 1:
                raise ValueError(f"rows of {data.shape[1]} fields under the header {header!r}")
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    return header.split(","), data


def naive_snapshot_text(header, blocks):
    """Snapshot file text with every value formatted on its own: one block
    per ``(t, columns)``, led by a ``# t=<t>`` comment, each value written as
    ``repr(float(value))``."""
    lines = [header]
    for t, columns in blocks:
        lines.append(f"# t={float(t)!r}")
        lines.extend(",".join(repr(float(v)) for v in (t, *row)) for row in zip(*columns))
    return "\n".join(lines) + "\n"


def naive_radial_snapshot_text(snapshots):
    return naive_snapshot_text("t,r,rho,mom", ((s.t, (s.grid.centers, s.rho, s.mom)) for s in snapshots))


def naive_line_snapshot_text(snapshots):
    return naive_snapshot_text("t,x,w", ((s.t, (s.x, s.w)) for s in snapshots))


def regularized_gamma(s: float, x: float) -> tuple[float, float]:
    """(P, Q) = (gamma(s, x), Gamma(s, x)) / Gamma(s) for s > 0, finite x >= 0.

    The series gives P for x < s + 1 and the continued fraction gives Q
    otherwise; the other one is its complement, so P + Q = 1 to round-off.
    """
    if not (0.0 < s < math.inf and 0.0 <= x < math.inf):
        raise ValueError("regularized_gamma needs finite s > 0 and x >= 0")
    if x == 0.0:
        return 0.0, 1.0
    scale = math.exp(s * math.log(x) - x - math.lgamma(s))
    if x < s + 1.0:
        p = scale * gamma_series(s, x)
        return p, 1.0 - p
    q = scale * gamma_fraction(s, x)
    return 1.0 - q, q


def parse_verdict_label(label: str):
    """Inverse of ``outcome.verdict_label``."""
    parts = label.split(":")
    if parts[0] == "Global":
        return Global()
    if parts[0] == "FiniteLifespan" and len(parts) == 2:
        return FiniteLifespan(float(parts[1]))
    if parts[0] == "NumericalBreakdown" and len(parts) == 3:
        return NumericalBreakdown(float(parts[1]), BreakdownCause(parts[2]))
    raise ValueError(f"unrecognized verdict label: {label!r}")


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


def density_moment(state, gas, l: float) -> float:
    """P(t, l) = 4 pi int_l^inf r (r-l)^2 (rho - rho_bar) dr on the discrete state."""
    mids, widths = _split_cells(state, l)
    i0 = state.grid.n_cells - mids.size
    excess = state.rho[i0:] - gas.rho_bar
    return FOUR_PI * float(np.sum(mids * (mids - l) ** 2 * excess * widths))


def pressure_excess_moment(state, gas, l: float) -> float:
    """G(t, l) = 8 pi int_l^inf r (p - p_bar - (rho - rho_bar)) dr; nonnegative."""
    mids, widths = _split_cells(state, l)
    i0 = state.grid.n_cells - mids.size
    excess = gas.pressure_excess(state.rho[i0:])
    return 2.0 * FOUR_PI * float(np.sum(mids * excess * widths))


def initial_density_moment(profile, gas, l: float) -> float:
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


def initial_momentum_moment(profile, gas, l: float) -> float:
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


def moment_band(state, gas, m0: float, m: float, n_l: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Sample P(t, l) for l uniform on [t + m0, t + m] (one slice per state)."""
    ls = np.linspace(state.t + m0, state.t + m, n_l)
    vals = np.array([density_moment(state, gas, l) for l in ls])
    return ls, vals


def double_time_integral(slices, m0: float, m: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """F(t) = int_0^t (t - tau) B(tau) dtau with B the band integral
    int_{tau+m0}^{tau+m} P(tau, l) dl/l.

    ``slices`` holds (t, l-grid, P values) samples; the band integral uses the
    trapezoid rule in l, and F the trapezoid rule in tau.  Returns the arrays
    (times, F, B): with this quadrature the second difference of F reproduces
    B exactly on a uniform time grid, so B doubles as the F'' reference
    series.
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
    return times, f_vals, band


def density_moment_tolerance(state, gas, l: float) -> float:
    """Discretization estimate for :func:`density_moment` sign checks.

    Midpoint-rule bound (dr^2/24) * int |f''| with f = r (r-l)^2 (rho-rho_bar),
    f'' estimated by second differences on the grid.  Sign checks should never
    hard-fail below roughly 10x this estimate.
    """
    grid = state.grid
    r = grid.centers
    f = r * (r - l) ** 2 * np.where(r >= l, state.rho - gas.rho_bar, 0.0)
    if f.size < 3:
        return 0.0
    f2 = np.abs(np.diff(f, 2)) / grid.dr**2
    return FOUR_PI * grid.dr**2 / 24.0 * float(np.sum(f2) * grid.dr)


def initial_moment_margins(profile, gas, n_l: int = 256) -> tuple[float, float]:
    """Margins (min q0, min q1) over a dense l-grid in (M0, M).

    Positive first margin and nonnegative second margin certify the sign
    hypotheses the small-data blowup argument needs for this initial data.
    """
    ls = np.linspace(profile.M0, profile.M, n_l + 2)[1:-1]
    q0 = np.array([initial_density_moment(profile, gas, l) for l in ls])
    q1 = np.array([initial_momentum_moment(profile, gas, l) for l in ls])
    return float(np.min(q0)), float(np.min(q1))


class VacuumError(ValueError):
    """Requested enthalpy lies at or below the vacuum bound -1/(gamma-1)."""


def density_from_enthalpy(gas, y):
    """Inverse of ``gas.enthalpy``: rho_bar * (1 + (gamma-1) y)**(1/(gamma-1)).

    Raises ``VacuumError`` when 1 + (gamma-1) y <= 0, i.e. when the requested
    enthalpy signals vacuum formation.
    """
    arg = 1.0 + (gas.gamma - 1.0) * np.asarray(y)
    if np.any(~(arg > 0)):
        raise VacuumError("enthalpy at or below the vacuum bound -1/(gamma-1)")
    out = gas.rho_bar * np.exp(np.log1p((gas.gamma - 1.0) * np.asarray(y)) / (gas.gamma - 1.0))
    return out if np.ndim(y) else float(out)


def momentum_ode_residual(res, gas, law) -> float:
    """Sum over sample intervals of the trapezoid residual of
    H' + mu (1+t)^-lam H = int (rho u^2 + 3 (p - p_bar)) along a radial run,
    with the right side computed from the run's snapshots."""
    rhs = []
    for s in res.snapshots:
        r = s.grid.centers
        rho = s.rho
        u = s.mom / rho
        pe = gas.pressure(rho) - gas.pressure(gas.rho_bar)
        rhs.append(4 * np.pi * float(np.sum(r**2 * (rho * u * u + 3.0 * pe)) * s.grid.dr))
    t = res.times
    H = res.columns["H"]
    damp = law.mu * (1.0 + t) ** (-law.lam) * H
    total = 0.0
    for k in range(len(t) - 1):
        dtk = t[k + 1] - t[k]
        total += abs(H[k + 1] - H[k] + 0.5 * dtk * (damp[k] + damp[k + 1])
                     - 0.5 * dtk * (rhs[k] + rhs[k + 1]))
    return total


def read_series(path: str) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The ``t`` column and the named columns of a series file."""
    names, data = read_csv(path)
    return data[:, 0], {name: data[:, j] for j, name in enumerate(names) if j}
