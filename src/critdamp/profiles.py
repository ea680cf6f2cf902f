"""Built-in initial profiles (fixed closed forms) and sampled-profile loading.

All built-ins are C-infinity with compact support, so every experiment is
reproducible without data files.  Callables are vectorized over ndarrays.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def mollifier(s):
    """exp(-1/(1-s^2)) on |s| < 1, zero outside; peak value exp(-1) at s = 0."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(-1.0 / (1.0 - si * si))
    return out


def mollifier_prime(s):
    """Derivative of :func:`mollifier`: -2s/(1-s^2)^2 * exp(-1/(1-s^2))."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    one = 1.0 - si * si
    out[inside] = -2.0 * si / (one * one) * np.exp(-1.0 / one)
    return out


def _smooth_step(s):
    """C-infinity transition: 0 for s <= 0, 1 for s >= 1."""
    s = np.asarray(s, dtype=float)
    g = np.where(s > 0, np.exp(-1.0 / np.where(s > 0, s, 1.0)), 0.0)
    gc = np.where(s < 1, np.exp(-1.0 / np.where(s < 1, 1.0 - s, 1.0)), 0.0)
    return g / (g + gc)


def _smooth_step_prime(s):
    s = np.asarray(s, dtype=float)
    mid = (s > 0) & (s < 1)
    out = np.zeros_like(s)
    sm = s[mid]
    g = np.exp(-1.0 / sm)
    gc = np.exp(-1.0 / (1.0 - sm))
    gp = g / (sm * sm)
    gcp = gc / ((1.0 - sm) ** 2)
    out[mid] = (gp * gc + g * gcp) / ((g + gc) ** 2)
    return out


def line_bump(m: float) -> tuple[Callable, Callable, tuple[float, float]]:
    """1-D bump w0(x) = exp(-1/(1-(x/m)^2)) supported on (-m, m)."""

    def value(x):
        return mollifier(np.asarray(x, dtype=float) / m)

    def deriv(x):
        return mollifier_prime(np.asarray(x, dtype=float) / m) / m

    return value, deriv, (-m, m)


def line_ramp(plateau: float = 0.5, support: float = 3.0) -> tuple[Callable, Callable, tuple[float, float]]:
    """1-D profile -x * chi(x) with a smooth cutoff equal to 1 on [-plateau, plateau]
    and support (-support, support).

    Inside the plateau the slope is exactly -1, so the maximal negative slope
    is exactly 1 (outside, chi + x chi' stays below 1 since x chi' <= 0 there).
    A wide cutoff keeps the positive slopes on the flanks below 1 as well.
    """
    if not 0 < plateau < support:
        raise ValueError("need 0 < plateau < support")
    width = support - plateau

    def chi(x):
        return _smooth_step((support - np.abs(np.asarray(x, dtype=float))) / width)

    def value(x):
        x = np.asarray(x, dtype=float)
        return -x * chi(x)

    def deriv(x):
        x = np.asarray(x, dtype=float)
        chi_prime = _smooth_step_prime((support - np.abs(x)) / width) * (-np.sign(x) / width)
        return -chi(x) - x * chi_prime

    return value, deriv, (-support, support)


def _zero(r):
    return np.zeros_like(np.asarray(r, dtype=float))


def radial_bump(m: float) -> tuple[Callable, Callable]:
    """Density bump on r < m, zero velocity."""

    def rho0(r):
        return mollifier(np.asarray(r, dtype=float) / m)

    return rho0, _zero


def radial_shell(m0: float, m: float) -> tuple[Callable, Callable]:
    """Nonnegative density shell supported on m0 < r < m, zero velocity."""
    if not 0.0 <= m0 < m:
        raise ValueError("shell radii must satisfy 0 <= M0 < M")

    def rho0(r):
        s = (2.0 * np.asarray(r, dtype=float) - (m + m0)) / (m - m0)
        return mollifier(s)

    return rho0, _zero


def radial_outgoing_shell(m0: float, m: float) -> tuple[Callable, Callable]:
    """Density shell plus an outward velocity shell of the same (nonnegative) shape on m0 < r < m."""
    rho0, _ = radial_shell(m0, m)
    return rho0, rho0


# name -> builder: radial ones take (M0, M) and return (rho0, u0); line ones
# take M and return (w0, w0', support).
RADIAL_PROFILES: dict[str, Callable] = {
    "bump": lambda m0, m: radial_bump(m),
    "shell": radial_shell,
    "outgoing-shell": radial_outgoing_shell,
}
LINE_PROFILES: dict[str, Callable] = {"bump": line_bump}


def sampled_profile(xs: np.ndarray, ys: np.ndarray) -> tuple[Callable, Callable]:
    """Piecewise-linear profile through sample points, zero outside their range.

    Returns (value, derivative); the derivative is the piecewise slope with
    midpoint convention at the sample abscissae.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.size < 2 or np.any(np.diff(xs) <= 0):
        raise ValueError("profile samples need at least 2 strictly increasing abscissae")
    slopes = np.diff(ys) / np.diff(xs)

    def value(x):
        return np.interp(np.asarray(x, dtype=float), xs, ys, left=0.0, right=0.0)

    def deriv(x):
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(xs, x) - 1, 0, slopes.size - 1)
        out = slopes[idx]
        return np.where((x <= xs[0]) | (x >= xs[-1]), 0.0, out)

    return value, deriv
