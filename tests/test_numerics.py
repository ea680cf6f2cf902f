import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critdamp import numerics
from critdamp.numerics import adaptive_quad, scan_maximum, solve_bracketed
from helpers import mp_reciprocal_integral, one_shot_scan_maximum, regularized_gamma


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
    assert solve_bracketed(lambda x: x - 1.0, 0.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        solve_bracketed(lambda x: x * x + 1.0, -1.0, 1.0)


def test_root_between_adjacent_floats_is_their_midpoint():
    # at x_tol = 0 the loop ends only once no float lies between the ends
    hi = math.nextafter(1.0, 2.0)
    x = solve_bracketed(lambda x: -1.0 if x <= 1.0 else 1.0, 1.0, hi, x_tol=0.0)
    assert x == 0.5 * (1.0 + hi)


def test_root_of_tiny_values_is_decided_by_sign():
    # f_lo * f_x underflowed to 0: the root came out at the upper end, and
    # same-sign ends passed as a bracket
    assert solve_bracketed(lambda x: 1e-200 * (x - 0.3), 0.0, 1.0) == pytest.approx(0.3, abs=1e-12)
    with pytest.raises(ValueError):
        solve_bracketed(lambda x: 1e-200 * (x + 0.3), 0.0, 1.0)


_ROOT_SHAPES = {
    "tanh": lambda c, steep: lambda x: math.tanh(10.0**steep * (x - c)),
    "power": lambda c, steep: lambda x: x**21 - c,
    "step": lambda c, steep: lambda x: -1.0 if x < c else 1.0,
}


@settings(max_examples=150, deadline=None)
@given(
    shape=st.sampled_from(sorted(_ROOT_SHAPES)),
    c=st.floats(-0.9, 0.9),
    steep=st.floats(0.0, 8.0),
    scale=st.sampled_from([1.0, -1.0, 1e-200, -1e-200]),
    lo=st.floats(-2.0, -1.0),
    hi=st.floats(1.0, 2.0),
    log_tol=st.floats(-14.0, -1.0),
)
def test_root_bracket_and_evaluation_bound(shape, c, steep, scale, lo, hi, log_tol):
    # increasing shapes, steep, flat near their root (x^21) or flat on both
    # sides, scaled down to where products of values underflow
    g = _ROOT_SHAPES[shape](c, steep)
    calls = []

    def f(x):
        calls.append(x)
        return scale * g(x)

    x_tol = 10.0**log_tol * (hi - lo)
    x = solve_bracketed(f, lo, hi, x_tol=x_tol)
    assert len(calls) <= 3 * math.ceil(math.log2((hi - lo) / x_tol)) + 3
    # a root of f as evaluated (1e-200 x^21 underflows to 0 near 0), or a
    # sign change of f within x_tol
    f_left, f_right = f(max(x - x_tol, lo)), f(min(x + x_tol, hi))
    assert f(x) == 0.0 or f_left == 0.0 or f_right == 0.0 or (f_left > 0.0) != (f_right > 0.0)
    with pytest.raises(ValueError):
        solve_bracketed(f, hi + 1.0, hi + 2.0)


def test_scan_maximum_quadratic():
    x, val = scan_maximum(lambda x: -((x - 0.3) ** 2) + 2.0, -1.0, 1.0, n_scan=1001)
    assert x == pytest.approx(0.3, abs=1e-8)
    assert val == pytest.approx(2.0, abs=1e-12)


def test_scan_maximum_plateau():
    f = lambda x: np.minimum(1.0, 2.0 - np.abs(x))
    _, val = scan_maximum(f, -2.0, 2.0, n_scan=4001)
    assert val == pytest.approx(1.0, abs=1e-12)


def table_function(table):
    """The step function that takes ``table[k]`` nearest the k-th point of
    ``np.linspace(0, 1, len(table))``, recording the size of each call."""
    sizes = []

    def f(x):
        sizes.append(x.size)
        return table[np.clip(np.rint(x * (len(table) - 1)), 0, len(table) - 1).astype(int)]

    return f, sizes


def scan_bits(result):
    return np.array(result, dtype=float).view(np.int64).tolist()


def chunk_edges(n_scan):
    """The last point of the first 4,096-point scan chunk, the first of the
    second and the last point of the scan, where the scan has them."""
    return sorted({k % n_scan for k in (4095, 4096, -1) if k < n_scan})


@pytest.mark.parametrize("n_scan", [1, 2, 1000, 4095, 4096, 4097, 8192, 10_000, 12_289])
@pytest.mark.parametrize("kind", ["max", "tie", "nan"])
def test_scan_maximum_chunks_match_one_shot_scan(n_scan, kind):
    # the grid point kept is the one a single np.argmax over the whole scan
    # picks: the first nan, else the first of equal maxima
    edges = chunk_edges(n_scan)
    for k, edge in enumerate(edges):
        table = np.sin(np.arange(n_scan, dtype=float))
        if kind == "max":
            table[edge] = 2.0
        elif kind == "tie":
            table[edges[k:]] = 2.0
        else:
            table[[0, -2 % n_scan]] = 3.0  # larger values before and after the first nan
            table[edges[k:]] = math.nan
        f, sizes = table_function(table)
        got = scan_maximum(f, 0.0, 1.0, n_scan=n_scan)
        assert max(sizes) <= 4096
        assert scan_bits(got) == scan_bits(one_shot_scan_maximum(table_function(table)[0], 0.0, 1.0, n_scan))


LEVELS = st.sampled_from([0.0, 1.0, -1.0, 2.0, -math.inf, math.nan]) | st.floats(-3.0, 3.0)


@settings(max_examples=60, deadline=None)
@given(n_scan=st.integers(1, 3 * 4096 + 7), data=st.data())
def test_scan_maximum_of_step_functions_matches_one_shot_scan(n_scan, data):
    # few levels on few steps: ties and nans fall on both sides of chunk ends
    n_steps = data.draw(st.integers(1, 8))
    levels = np.array(data.draw(st.lists(LEVELS, min_size=n_steps, max_size=n_steps)))
    breaks = np.sort(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n_steps - 1, max_size=n_steps - 1)))

    def f(x):
        return levels[np.searchsorted(breaks, x)]

    assert scan_bits(scan_maximum(f, 0.0, 1.0, n_scan=n_scan)) == scan_bits(one_shot_scan_maximum(f, 0.0, 1.0, n_scan))


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


def test_gamma_fraction_with_a_zero_first_denominator_raises():
    # x + 1 rounds to x = s at 2^53, so the fraction's first term 1/(x + 1 - s)
    # has no value; the caller falls back to quadrature, as at the term cap
    with pytest.raises(numerics.ConvergenceError, match="zero denominator"):
        numerics.gamma_fraction(2.0**53, 2.0**53)


def test_regularized_gamma_cap_raises(monkeypatch):
    monkeypatch.setattr(numerics, "GAMMA_MAX_TERMS", 3)
    with pytest.raises(numerics.ConvergenceError, match="series"):
        regularized_gamma(10.0, 9.0)
    with pytest.raises(numerics.ConvergenceError, match="continued fraction"):
        regularized_gamma(10.0, 12.0)
