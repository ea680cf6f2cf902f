import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critdamp import (
    BurgersProblem,
    DampingLaw,
    FiniteLifespan,
    Global,
    LifespanError,
    NumericalBreakdown,
    classify_lifespan,
    eval_characteristic,
    max_negative_slope,
    simulate_fv,
)
from critdamp.profiles import line_bump, line_ramp, mollifier, mollifier_prime
from helpers import bisect_root, composite_simpson, mp_reciprocal_integral


def bump_problem(epsilon, mu, lam):
    w0, w0p, sup = line_bump(1.0)
    return BurgersProblem(w0, w0p, sup, epsilon, DampingLaw(mu, lam))


def ramp_problem(epsilon, mu, lam):
    w0, w0p, sup = line_ramp()
    return BurgersProblem(w0, w0p, sup, epsilon, DampingLaw(mu, lam))


def zero_problem(mu=1.0, lam=1.0):
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return BurgersProblem(zero, zero, (-1.0, 1.0), 1.0, DampingLaw(mu, lam))


# ---------------------------------------------------------------- slopes

def test_bump_slope_frozen_oracle():
    # 1e6-point scan oracle of -w0' for the unit bump: 0.7984297518335999
    # at x = 0.7598356852; refined value frozen here.
    p = bump_problem(1e-3, 1.0, 1.0)
    assert max_negative_slope(p) == pytest.approx(0.7984297518335999, abs=1e-8)


def test_nondecreasing_profile_has_zero_slope():
    up = lambda x: np.asarray(x, dtype=float)
    one = lambda x: np.ones_like(np.asarray(x, dtype=float))
    p = BurgersProblem(up, one, (-1.0, 1.0), 0.5, DampingLaw(1.0, 1.0))
    assert max_negative_slope(p) == 0.0


def test_ramp_plateau_slope_is_one():
    p = ramp_problem(0.1, 0.5, 1.0)
    assert max_negative_slope(p) == pytest.approx(1.0, abs=1e-12)
    # attained inside the plateau, nowhere exceeded
    xs = np.linspace(-3.0, 3.0, 400_001)
    assert np.max(-p.w0_prime(xs)) <= 1.0 + 1e-12


# ---------------------------------------------------------------- lifespan

def test_lifespan_examples():
    assert classify_lifespan(ramp_problem(0.1, 0.5, 1.0)) == FiniteLifespan(35.0)
    # undamped critical case: T = 1/(eps*m)
    v = classify_lifespan(ramp_problem(0.1, 0.0, 1.0))
    assert isinstance(v, FiniteLifespan) and v.lifespan == pytest.approx(10.0, rel=1e-12)
    # subcritical small data is global
    assert isinstance(classify_lifespan(bump_problem(1e-3, 1.0, 0.5)), Global)


def test_lifespan_supercritical_root_oracle():
    # lam=2, mu=1, eps=0.5, m=1: bisection on 2e5-panel Simpson of 1/beta
    p = ramp_problem(0.5, 1.0, 2.0)

    def integral(t):
        return composite_simpson(lambda tau: np.exp(-(1.0 - 1.0 / (1.0 + tau))), 0.0, t, 200_000)

    t_oracle = bisect_root(lambda t: integral(t) - 2.0, 0.1, 16.0, n_iter=60)
    v = classify_lifespan(p)
    assert isinstance(v, FiniteLifespan)
    assert v.lifespan == pytest.approx(t_oracle, rel=1e-9)


@pytest.mark.parametrize("mu, lam, eps", [
    (0.05, 0.05, 0.5), (0.3, 0.3, 0.5), (0.3, 0.7, 0.5), (1.0, 0.5, 2.0),
    (1.0, 0.9, 2.0), (1.0, 0.99, 2.0), (3.0, 0.7, 10.0),
])
def test_lifespan_interior_lambda_matches_mpmath(mu, lam, eps):
    # root of eps * m * I(T) = 1 with m = 1, polished by mpmath at 50 digits
    mp = pytest.importorskip("mpmath")
    v = classify_lifespan(ramp_problem(eps, mu, lam), slope_max=1.0)
    assert isinstance(v, FiniteLifespan)
    with mp.workdps(50):
        exact = mp.findroot(lambda t: mp_reciprocal_integral(mu, lam, t) - 1 / mp.mpf(eps), v.lifespan)
    assert v.lifespan == pytest.approx(float(exact), rel=1e-11)


@pytest.mark.parametrize("mu, lam, eps", [(1.0, 2.0, 0.5), (0.3, 1.0 + 1.0 / 3.0, 0.2), (3.0, 1.001, 4.0)])
def test_lifespan_supercritical_matches_mpmath(mu, lam, eps):
    # root of eps * m * I(T) = 1 with m = 1 on the mpmath quadrature oracle
    mp = pytest.importorskip("mpmath")
    v = classify_lifespan(ramp_problem(eps, mu, lam), slope_max=1.0)
    assert isinstance(v, FiniteLifespan)
    with mp.workdps(50):
        exact = mp.findroot(lambda t: mp_reciprocal_integral(mu, lam, t) - 1 / mp.mpf(eps), v.lifespan)
    assert v.lifespan == pytest.approx(float(exact), rel=1e-13)


@pytest.mark.parametrize("mu, lam, eps", [
    (1.0, 0.9999, 0.0096), (1.0, 0.9995, 0.04), (1.0, 1.00001, 0.04), (0.3, 1.00001, 0.04),
])
def test_lifespan_corner_lambda_matches_mpmath(mu, lam, eps):
    # 0.999 < lam < 1 and 1 < lam < 1 + mu/1e4: the root of the log-time
    # quadrature.  The first law's is about 1.2e60, so mpmath solves for
    # log(1+T).
    mp = pytest.importorskip("mpmath")
    law = DampingLaw(mu, lam)
    assert not (law.gamma_form or law.series_form)
    v = classify_lifespan(ramp_problem(eps, mu, lam), slope_max=1.0)
    assert isinstance(v, FiniteLifespan)
    with mp.workdps(50):
        log_root = mp.findroot(lambda L: mp_reciprocal_integral(mu, lam, mp.expm1(L)) - 1 / mp.mpf(eps),
                               mp.log1p(v.lifespan))
        exact = mp.expm1(log_root)
    assert v.lifespan == pytest.approx(float(exact), rel=1e-11)


def test_lifespan_beyond_the_doubling_bracket():
    # C = mu/(lam-1) = 200: T is about e^200, far beyond 2^200 but finite
    v = classify_lifespan(ramp_problem(1.0, 200.0, 2.0), slope_max=1.0)
    assert isinstance(v, FiniteLifespan) and 1e80 < v.lifespan < np.inf
    assert DampingLaw(200.0, 2.0).reciprocal_integral(v.lifespan) == pytest.approx(1.0, rel=1e-14)
    # C = 1000: I(t) stays below 1 over the whole float range
    v = classify_lifespan(ramp_problem(1.0, 1000.0, 2.0), slope_max=1.0)
    assert isinstance(v, FiniteLifespan) and np.isinf(v.lifespan)


def test_interior_lambda_classification_needs_no_quadrature(monkeypatch):
    # I(t) and I(inf) are closed forms for lam <= 1 and I(t) a series for
    # lam > 1, so classifying, the default x-span of the 1-D solver and the
    # characteristics never reach adaptive quadrature (for I(inf) at
    # lam = 0.7, mu = 0.3 it ran to its 2^21-interval cap)
    def forbidden(*args, **kwargs):
        raise AssertionError("adaptive_quad called")

    monkeypatch.setattr("critdamp.damping.adaptive_quad", forbidden)
    monkeypatch.setattr("critdamp.numerics.adaptive_quad", forbidden)  # log-time quadrature
    assert isinstance(classify_lifespan(bump_problem(0.5, 0.3, 0.7)), FiniteLifespan)
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0):
        for mu in (0.25, 0.5, 1.0, 1.5, 2.0):
            for eps in (1e-3, 0.5):
                classify_lifespan(ramp_problem(eps, mu, lam))
    for lam in (1.5, 2.0, 2.66):
        problem = bump_problem(0.09, 1.0, lam)
        simulate_fv(problem, 64, 2.0, 0.4)
        eval_characteristic(problem, 1.0, np.linspace(-1.0, 1.0, 5))


def test_dichotomy_grid():
    # Global exactly when lam < 1 or (lam = 1 and mu > 1), at eps = 1e-3, m = 1
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0):
        for mu in (0.25, 0.5, 1.0, 1.5, 2.0):
            v = classify_lifespan(ramp_problem(1e-3, mu, lam))
            expect_global = lam < 1.0 or (lam == 1.0 and mu > 1.0)
            assert isinstance(v, Global) == expect_global, (lam, mu, v)


def test_lifespan_monotone_in_amplitude_and_slope():
    law_args = (1.0, 2.0)
    t_small = classify_lifespan(ramp_problem(0.25, *law_args)).lifespan
    t_big = classify_lifespan(ramp_problem(0.5, *law_args)).lifespan
    assert t_big < t_small
    # doubling m via the slope_max override halves eps*m the same way
    t_m1 = classify_lifespan(ramp_problem(0.25, *law_args), slope_max=1.0).lifespan
    t_m2 = classify_lifespan(ramp_problem(0.25, *law_args), slope_max=2.0).lifespan
    assert t_m2 < t_m1


def test_zero_profile_is_global():
    assert isinstance(classify_lifespan(zero_problem()), Global)


def test_border_case_is_global():
    # eps * m * I(inf) == 1 exactly: no finite crossing time
    p = ramp_problem(1.0, 2.0, 1.0)  # I(inf) = 1, eps*m = 1
    assert isinstance(classify_lifespan(p, slope_max=1.0), Global)


def test_overflowing_lifespan_is_inf():
    # lam=1, mu=1: T = exp(1/(eps*m)) - 1 overflows float64 at small eps
    v = classify_lifespan(ramp_problem(1e-3, 1.0, 1.0), slope_max=1.0)
    assert isinstance(v, FiniteLifespan) and np.isinf(v.lifespan)


# ---------------------------------------------------------------- characteristics

def test_characteristic_initial_identity():
    p = bump_problem(0.1, 0.5, 1.0)
    xs = np.linspace(-1.5, 1.5, 257)
    vals = eval_characteristic(p, 0.0, xs)
    assert np.max(np.abs(vals - 0.1 * p.w0(xs))) < 1e-12


def test_characteristic_decay_identity():
    # value * beta(t) equals eps * w0(x0) along each characteristic
    p = bump_problem(0.1, 0.5, 1.0)
    law = p.damping
    t = 7.0
    x0 = np.linspace(-0.95, 0.95, 41)
    x_img = x0 + 0.1 * p.w0(x0) * law.reciprocal_integral(t)
    vals = eval_characteristic(p, t, x_img)
    assert np.max(np.abs(vals * law.integrating_factor(t) - 0.1 * p.w0(x0))) < 1e-12


def test_characteristic_spatial_integral():
    # int w(t) dx = eps/beta(t) int w0 (unit-Jacobian characteristic map)
    p = bump_problem(0.1, 0.5, 1.0)
    t = 10.0
    lhs = composite_simpson(lambda x: eval_characteristic(p, t, x), -1.0, 1.0, 20_000)
    rhs = 0.1 * composite_simpson(lambda x: np.asarray(p.w0(x)), -1.0, 1.0, 20_000)
    rhs /= p.damping.integrating_factor(t)
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_characteristic_inverse_monotone():
    from critdamp.burgers import _invert_characteristics

    p = bump_problem(0.1, 0.5, 1.0)
    i_t = p.damping.reciprocal_integral(12.0)
    xs = np.linspace(-0.999, 0.999, 501)
    x0 = _invert_characteristics(p, i_t, xs)
    assert np.all(np.diff(x0) > 0)


def test_characteristic_outside_support_zero():
    p = bump_problem(0.1, 0.5, 1.0)
    assert eval_characteristic(p, 3.0, -2.0) == 0.0
    assert eval_characteristic(p, 3.0, 1.0) == 0.0


def test_characteristic_after_lifespan_raises():
    p = ramp_problem(0.1, 0.5, 1.0)  # T = 35
    with pytest.raises(LifespanError):
        eval_characteristic(p, 35.0, 0.0)
    with pytest.raises(LifespanError):
        eval_characteristic(p, 100.0, 0.0)
    assert eval_characteristic(p, 34.9, 0.1) != 0.0


# ---------------------------------------------------------------- finite volume

def test_fv_zero_data_stays_zero():
    snaps, verdict = simulate_fv(zero_problem(), 64, 5.0, 0.5, snapshot_times=[0.0, 2.5, 5.0])
    assert isinstance(verdict, Global)
    for s in snaps:
        assert np.all(s.w == 0.0)


@pytest.mark.parametrize("mu,lam", [(1.0, 0.5), (2.0, 1.0), (1.0, 2.0)])
def test_fv_weighted_total_is_conserved(mu, lam):
    # Q(t) * beta(t) = Q(0) to round-off (exact integrating-factor source)
    p = bump_problem(0.1, mu, lam)
    times = [0.0, 5.0, 12.5, 20.0]
    snaps, verdict = simulate_fv(p, 256, 20.0, 0.5, snapshot_times=times)
    assert isinstance(verdict, Global)
    dx = snaps[0].x[1] - snaps[0].x[0]
    q0 = np.sum(snaps[0].w) * dx
    for s in snaps:
        q = np.sum(s.w) * dx
        assert q * p.damping.integrating_factor(s.t) / q0 == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=25, deadline=None)
# amplitudes of either sign, away from the subnormals, where round-off is absolute
@given(amplitude=st.floats(0.01, 1.0) | st.floats(-1.0, -0.01), centre=st.floats(-1.0, 1.0),
       width=st.floats(0.2, 1.5), eps=st.floats(0.05, 1.0), mu=st.floats(0.0, 2.0), lam=st.floats(0.0, 3.0),
       t_end=st.floats(1.0, 10.0), n_cells=st.integers(64, 256))
def test_fv_weighted_total_is_conserved_for_random_smooth_data(amplitude, centre, width, eps, mu, lam,
                                                               t_end, n_cells):
    p = BurgersProblem(lambda x: amplitude * mollifier((x - centre) / width),
                       lambda x: amplitude * mollifier_prime((x - centre) / width) / width,
                       (centre - width, centre + width), eps, DampingLaw(mu, lam))
    # |w| <= eps e^-1, so the data never travel further than eps * t_end
    pad = eps * t_end + 0.5
    snaps, _ = simulate_fv(p, n_cells, t_end, 0.5, snapshot_times=np.linspace(0.0, t_end, 5),
                           x_span=(centre - width - pad, centre + width + pad))
    dx = snaps[0].x[1] - snaps[0].x[0]
    q0 = float(np.sum(snaps[0].w)) * dx
    scale = float(np.sum(np.abs(snaps[0].w))) * dx
    for s in snaps:
        q = float(np.sum(s.w)) * dx
        assert abs(q * p.damping.integrating_factor(s.t) - q0) <= 32 * np.finfo(float).eps * scale


def test_fv_matches_characteristics_first_order():
    p = ramp_problem(0.1, 0.5, 1.0)
    span = (-4.2, 4.2)
    errs = {}
    for n in (200, 400, 800):
        snaps, _ = simulate_fv(p, n, 17.5, 0.5, snapshot_times=[17.5], x_span=span)
        s = snaps[-1]
        errs[n] = float(np.max(np.abs(s.w - eval_characteristic(p, 17.5, s.x))))
    assert errs[400] < errs[200] and errs[800] < errs[400]
    order = np.log2(errs[200] / errs[800]) / 2.0
    assert order >= 0.8


def test_fv_snapshots_stay_finite_and_breakdown_reports():
    # resolution-scaled gradient threshold forces a breakdown before the crossing
    p = ramp_problem(0.1, 0.5, 1.0)
    span = (-4.2, 4.2)
    n = 400
    dx = (span[1] - span[0]) / n
    snaps, verdict = simulate_fv(
        p, n, 36.0, 0.5, snapshot_times=[0.0, 10.0, 20.0, 30.0],
        gradient_threshold=0.008 / dx, x_span=span,
    )
    assert isinstance(verdict, NumericalBreakdown)
    assert verdict.cause.value == "GradientThreshold"
    assert 0.0 < verdict.time < 35.0
    for s in snaps:
        assert np.all(np.isfinite(s.w))
        assert s.t <= verdict.time


def test_fv_validates_config():
    p = bump_problem(0.1, 0.5, 1.0)
    with pytest.raises(ValueError):
        simulate_fv(p, 8, 1.0, 0.5)
    with pytest.raises(ValueError):
        simulate_fv(p, 64, 1.0, 1.5)
    with pytest.raises(ValueError):
        simulate_fv(p, 64, -1.0, 0.5)


def test_problem_validation():
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    with pytest.raises(ValueError):
        BurgersProblem(zero, zero, (1.0, -1.0), 0.1, DampingLaw(1.0, 1.0))
    with pytest.raises(ValueError):
        BurgersProblem(zero, zero, (-1.0, 1.0), 0.0, DampingLaw(1.0, 1.0))
