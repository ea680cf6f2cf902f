"""Deterministic numeric kernels: adaptive quadrature (in log time for time
integrals), bracketed root finding and the incomplete gamma function.

Every routine here is branch-deterministic (no randomness, no environment
dependence), so callers can rely on bit-identical results for identical
inputs on the same build.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

GAMMA_MAX_TERMS = 10_000
MAX_ROUNDS = 60  # adaptive_quad: halvings of the range
MAX_INTERVALS = 1 << 21  # adaptive_quad: pending intervals
TIME_REL_TOL = 1e-14  # time_integral
_EPS = float(np.finfo(float).eps)
_TINY = 1e-300


class ConvergenceError(ArithmeticError):
    """An expansion or a quadrature did not converge within its cap."""


def adaptive_quad(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    abs_tol: float = 1e-12,
) -> float:
    """Adaptive Simpson integral of a vectorized integrand over [a, b].

    The interval queue is processed breadth-first; a subinterval is accepted
    when the classic 15x Simpson error estimate falls below its tolerance
    budget (each split halves the budget, so the accepted total honors
    ``abs_tol``), and the Richardson-corrected value is accumulated.
    Subdivision also stops once the error estimate falls to the local
    round-off scale of the interval values; tolerances below what float64
    supports for the integral's magnitude would otherwise never be met.

    The work is capped: ``MAX_ROUNDS`` halvings deep and ``MAX_INTERVALS``
    pending intervals wide.  Reaching either cap with intervals still
    unresolved raises ``ConvergenceError``.

    ``f`` must accept an ndarray of abscissae and return an ndarray of values.
    """
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")
    if b == a:
        return 0.0

    lo = np.array([a], dtype=float)
    hi = np.array([b], dtype=float)
    mid = 0.5 * (lo + hi)
    f_lo = np.asarray(f(lo), dtype=float)
    f_mid = np.asarray(f(mid), dtype=float)
    f_hi = np.asarray(f(hi), dtype=float)
    simpson = (hi - lo) / 6.0 * (f_lo + 4.0 * f_mid + f_hi)
    budget = np.array([abs_tol], dtype=float)

    total = 0.0
    for _ in range(MAX_ROUNDS):
        m_left = 0.5 * (lo + mid)
        m_right = 0.5 * (mid + hi)
        f_ml = np.asarray(f(m_left), dtype=float)
        f_mr = np.asarray(f(m_right), dtype=float)
        s_left = (mid - lo) / 6.0 * (f_lo + 4.0 * f_ml + f_mid)
        s_right = (hi - mid) / 6.0 * (f_mid + 4.0 * f_mr + f_hi)
        refined = s_left + s_right
        err = refined - simpson
        noise_floor = 64.0 * _EPS * (np.abs(s_left) + np.abs(s_right))
        done = (np.abs(err) <= 15.0 * budget) | (np.abs(err) <= noise_floor)
        total += float(np.sum(refined[done] + err[done] / 15.0))

        keep = ~done
        n_keep = int(np.count_nonzero(keep))
        if n_keep == 0:
            return total
        if 2 * n_keep > MAX_INTERVALS:
            break
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
    raise ConvergenceError(
        f"adaptive quadrature over [{a!r}, {b!r}] left {n_keep} intervals unresolved at its "
        f"cap ({MAX_ROUNDS} rounds, {MAX_INTERVALS} intervals)"
    )


def time_integral(f: Callable[[np.ndarray], np.ndarray], t: float) -> float:
    """int_0^t f(tau) dtau for finite t >= 0 and positive f, integrated in log time.

    With L = log(1+tau) the integral becomes int_0^log1p(t) f(expm1 L) e^L dL,
    whose range is at most 709.78 long, so ``adaptive_quad`` resolves power
    laws and slowly varying integrands over every decade of t alike.  The
    tolerance is ``TIME_REL_TOL`` times a first five-point estimate of the
    integral (``adaptive_quad`` with an infinite tolerance stops after one
    refinement): an absolute one would sink below the round-off that large
    integrands carry from their exponents.
    """
    def g(log_time):
        return f(np.expm1(log_time)) * np.exp(log_time)

    end = math.log1p(t)
    scale = adaptive_quad(g, 0.0, end, abs_tol=math.inf)
    return adaptive_quad(g, 0.0, end, abs_tol=TIME_REL_TOL * scale)


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


def gamma_series(s: float, x: float) -> float:
    """e^x x^-s gamma(s, x) = sum_k x^k / (s (s+1) ... (s+k)) (DLMF 8.7.1).

    The lower incomplete gamma function without its factor x^s e^-x; every
    term is positive, and the terms fall off fast for x < s + 1.  Raises
    ``ConvergenceError`` if ``GAMMA_MAX_TERMS`` terms do not converge.
    """
    term = total = 1.0 / s
    for k in range(1, GAMMA_MAX_TERMS):
        term *= x / (s + k)
        total += term
        if term <= total * _EPS:
            return total
    raise ConvergenceError(f"incomplete gamma series did not converge (s={s!r}, x={x!r})")


def gamma_fraction(s: float, x: float) -> float:
    """e^x x^-s Gamma(s, x), the upper incomplete gamma function without its
    factor x^s e^-x, from the continued fraction (DLMF 8.9.2)

        1 / (x + 1 - s - 1 (1 - s) / (x + 3 - s - 2 (2 - s) / (x + 5 - s - ...)))

    by the modified Lentz method, for x >= s + 1, where it converges fast.
    Raises ``ConvergenceError`` if ``GAMMA_MAX_TERMS`` terms do not converge.
    """
    b = x + 1.0 - s
    c = 1.0 / _TINY
    d = h = 1.0 / b
    for i in range(1, GAMMA_MAX_TERMS):
        a_i = -i * (i - s)
        b += 2.0
        d = a_i * d + b
        if abs(d) < _TINY:
            d = _TINY
        d = 1.0 / d
        c = b + a_i / c
        if abs(c) < _TINY:
            c = _TINY
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            return h
    raise ConvergenceError(f"incomplete gamma continued fraction did not converge (s={s!r}, x={x!r})")
