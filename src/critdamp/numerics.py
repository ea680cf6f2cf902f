"""Deterministic numeric kernels: adaptive quadrature and bracketed root finding.

Every routine here is branch-deterministic (no randomness, no environment
dependence), so callers can rely on bit-identical results for identical
inputs on the same build.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def adaptive_quad(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    abs_tol: float = 1e-12,
    max_rounds: int = 60,
    max_intervals: int = 1 << 21,
) -> float:
    """Adaptive Simpson integral of a vectorized integrand over [a, b].

    The interval queue is processed breadth-first; a subinterval is accepted
    when the classic 15x Simpson error estimate falls below its tolerance
    budget (each split halves the budget, so the accepted total honors
    ``abs_tol``), and the Richardson-corrected value is accumulated.
    ``max_rounds`` caps the subdivision depth and ``max_intervals`` the queue
    width; intervals still pending at a cap are accepted as-is, keeping the
    run time bounded.

    Subdivision also stops once the error estimate falls to the local
    round-off scale of the interval values; tolerances below what float64
    supports for the integral's magnitude would otherwise never be met.

    ``f`` must accept an ndarray of abscissae and return an ndarray of values.
    """
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")
    if b == a:
        return 0.0
    eps = np.finfo(float).eps

    lo = np.array([a], dtype=float)
    hi = np.array([b], dtype=float)
    mid = 0.5 * (lo + hi)
    f_lo = np.asarray(f(lo), dtype=float)
    f_mid = np.asarray(f(mid), dtype=float)
    f_hi = np.asarray(f(hi), dtype=float)
    simpson = (hi - lo) / 6.0 * (f_lo + 4.0 * f_mid + f_hi)
    budget = np.array([abs_tol], dtype=float)

    total = 0.0
    for _ in range(max_rounds):
        if lo.size == 0:
            break
        m_left = 0.5 * (lo + mid)
        m_right = 0.5 * (mid + hi)
        f_ml = np.asarray(f(m_left), dtype=float)
        f_mr = np.asarray(f(m_right), dtype=float)
        h6 = (mid - lo) / 6.0
        s_left = h6 * (f_lo + 4.0 * f_ml + f_mid)
        s_right = h6 * (f_mid + 4.0 * f_mr + f_hi)
        refined = s_left + s_right
        err = refined - simpson
        noise_floor = 64.0 * eps * (np.abs(s_left) + np.abs(s_right))
        done = (np.abs(err) <= 15.0 * budget) | (np.abs(err) <= noise_floor)
        if lo.size * 2 > max_intervals:
            done = np.ones_like(done, dtype=bool)

        total += float(np.sum(refined[done] + err[done] / 15.0))

        keep = ~done
        half_budget = 0.5 * budget[keep]
        new_lo = np.concatenate([lo[keep], mid[keep]])
        new_hi = np.concatenate([mid[keep], hi[keep]])
        new_mid = np.concatenate([m_left[keep], m_right[keep]])
        f_lo = np.concatenate([f_lo[keep], f_mid[keep]])
        f_hi = np.concatenate([f_mid[keep], f_hi[keep]])
        f_mid = np.concatenate([f_ml[keep], f_mr[keep]])
        simpson = np.concatenate([s_left[keep], s_right[keep]])
        budget = np.concatenate([half_budget, half_budget])
        lo, mid, hi = new_lo, new_mid, new_hi
    else:
        # Depth cap reached: accept whatever remains (bounded-work guarantee).
        total += float(np.sum(simpson))
    return total


def solve_bracketed(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    x_tol: float = 1e-12,
) -> float:
    """Root of a continuous scalar function on a sign-changing bracket [lo, hi].

    Bisection guarantees convergence; a secant candidate is taken whenever it
    lands strictly inside the current bracket, which restores superlinear
    convergence on smooth problems without giving up the bracket.
    """
    f_lo = f(lo)
    f_hi = f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise ValueError("root bracket endpoints must have opposite signs")

    for _ in range(200):
        if hi - lo <= x_tol:
            break
        x = 0.5 * (lo + hi)
        if f_hi != f_lo:
            secant = hi - f_hi * (hi - lo) / (f_hi - f_lo)
            if lo + 0.01 * (hi - lo) < secant < hi - 0.01 * (hi - lo):
                x = secant
        f_x = f(x)
        if f_x == 0.0:
            return x
        if f_lo * f_x < 0.0:
            hi, f_hi = x, f_x
        else:
            lo, f_lo = x, f_x
    return 0.5 * (lo + hi)


def scan_maximum(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    *,
    n_scan: int = 100_000,
) -> tuple[float, float]:
    """Maximum of a continuous function on [lo, hi] by dense scan plus refinement.

    Returns ``(x_best, f_best)``.  The scan localizes the global maximum to one
    grid interval; golden-section refinement then polishes it.  Plateaus are
    handled naturally (any plateau point is a valid maximizer).
    """
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
    candidates = [(f_best, x_best), (f1, x1), (f2, x2), (float(vals[i]), float(xs[i]))]
    f_best, x_best = max(candidates)
    return x_best, f_best
