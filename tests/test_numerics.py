import math

import numpy as np
import pytest

from critdamp import numerics
from critdamp.numerics import adaptive_quad, scan_maximum, solve_bracketed
from helpers import mp_reciprocal_integral, regularized_gamma


def test_quad_polynomial_exact():
    # Simpson is exact for cubics
    val = adaptive_quad(lambda x: x**3 - 2 * x + 1, 0.0, 2.0)
    assert val == pytest.approx(4.0 - 4.0 + 2.0, abs=1e-13)


def test_quad_smooth():
    assert adaptive_quad(np.sin, 0.0, np.pi) == pytest.approx(2.0, abs=1e-11)
    assert adaptive_quad(np.exp, 0.0, 1.0) == pytest.approx(np.e - 1.0, abs=1e-11)


def test_quad_long_interval_decaying():
    val = adaptive_quad(lambda x: np.exp(-x), 0.0, 200.0)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_quad_empty_and_invalid():
    assert adaptive_quad(np.sin, 1.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        adaptive_quad(np.sin, 1.0, 0.0)


def test_quad_deterministic():
    f = lambda x: np.exp(-x) * np.cos(3 * x)
    a = adaptive_quad(f, 0.0, 30.0)
    b = adaptive_quad(f, 0.0, 30.0)
    assert a == b


def test_quad_caps_raise(monkeypatch):
    # 1/sqrt(x) is never resolved next to 0, so the depth cap is reached
    with pytest.raises(numerics.ConvergenceError, match="cap"):
        adaptive_quad(lambda x: 1.0 / np.sqrt(np.maximum(x, 1e-300)), 0.0, 1.0)
    # 16 pending intervals cannot resolve sin over 16 periods
    monkeypatch.setattr(numerics, "MAX_INTERVALS", 16)
    with pytest.raises(numerics.ConvergenceError, match="cap"):
        adaptive_quad(np.sin, 0.0, 100.0)


def test_quad_tight_tolerance_converges():
    # 1/beta of (mu 0.5, lam 0.9995) in log time L = log(1+t) over
    # [0, log 1e4].  Simpson's right half once used the left half-width,
    # which differs by an ulp of L: that left an error floor near |f| ulp(L)
    # that this tolerance never got under (10.7 M evaluations to the cap).
    n_evals = 0

    def f(L):
        nonlocal n_evals
        n_evals += L.size
        return np.exp(L - 1000.0 * np.expm1(5e-4 * L))

    value = adaptive_quad(f, 0.0, math.log(1e4), abs_tol=2e-12)
    assert n_evals < 100_000
    assert value == pytest.approx(float(mp_reciprocal_integral(0.5, 0.9995, 9999.0)), rel=1e-13)


def test_time_integral_in_log_time():
    # int_0^t (1+tau)^-2 dtau = t/(1+t) for t up to the float range
    for t in (0.0, 1e-8, 0.5, 1e4, 1e100, 1e308):
        value = numerics.time_integral(lambda tau: (1.0 + tau) ** -2.0, t)
        assert value == pytest.approx(t / (1.0 + t), rel=1e-13, abs=0.0)


def test_root_simple():
    root = solve_bracketed(lambda x: x * x - 2.0, 0.0, 2.0)
    assert root == pytest.approx(np.sqrt(2.0), abs=1e-11)


def test_root_flat_plateau():
    # piecewise function that stalls a pure secant
    def f(x):
        if x < 0.5:
            return -1.0
        return x - 0.75

    assert solve_bracketed(f, 0.0, 2.0) == pytest.approx(0.75, abs=1e-10)


def test_root_endpoint_hits():
    assert solve_bracketed(lambda x: x, 0.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        solve_bracketed(lambda x: x * x + 1.0, -1.0, 1.0)


def test_scan_maximum_quadratic():
    x, val = scan_maximum(lambda x: -((x - 0.3) ** 2) + 2.0, -1.0, 1.0, n_scan=1001)
    assert x == pytest.approx(0.3, abs=1e-8)
    assert val == pytest.approx(2.0, abs=1e-12)


def test_scan_maximum_plateau():
    f = lambda x: np.minimum(1.0, 2.0 - np.abs(x))
    _, val = scan_maximum(f, -2.0, 2.0, n_scan=4001)
    assert val == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("s, x", [(0.5, 0.2), (1.0, 1.5), (3.3, 2.0), (100.0, 80.0),   # series: x < s + 1
                                  (0.5, 4.0), (1.0, 2.0), (3.3, 9.0), (100.0, 140.0)])  # fraction
def test_regularized_gamma_closed_forms(s, x):
    p, q = regularized_gamma(s, x)
    assert p + q == pytest.approx(1.0, abs=2e-16)
    if s == 1.0:
        assert q == pytest.approx(math.exp(-x), rel=1e-14)
    if s == 0.5:
        assert p == pytest.approx(math.erf(math.sqrt(x)), rel=1e-14)
        assert q == pytest.approx(math.erfc(math.sqrt(x)), rel=1e-13)
    # Q(s + 1, x) = Q(s, x) + x^s e^-x / Gamma(s + 1)  (DLMF 8.8.6)
    q_up = regularized_gamma(s + 1.0, x)[1]
    assert q_up == pytest.approx(q + math.exp(s * math.log(x) - x - math.lgamma(s + 1.0)), rel=1e-13)


def test_regularized_gamma_edges():
    assert regularized_gamma(2.0, 0.0) == (0.0, 1.0)
    for s, x in [(0.0, 1.0), (-1.0, 1.0), (1.0, -0.5), (1.0, math.inf), (math.nan, 1.0)]:
        with pytest.raises(ValueError):
            regularized_gamma(s, x)


def test_regularized_gamma_cap_raises(monkeypatch):
    monkeypatch.setattr(numerics, "GAMMA_MAX_TERMS", 3)
    with pytest.raises(numerics.ConvergenceError, match="series"):
        regularized_gamma(10.0, 9.0)
    with pytest.raises(numerics.ConvergenceError, match="continued fraction"):
        regularized_gamma(10.0, 12.0)
