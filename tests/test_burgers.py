import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from critdamp import (
    BurgersProblem,
    DampingLaw,
    FiniteLifespan,
    Global,
    LifespanError,
    NumericalBreakdown,
    burgers,
    classify_lifespan,
    eval_characteristic,
    max_negative_slope,
    simulate_fv,
)
from critdamp.outcome import march, sample_times, verdict_label
from critdamp.profiles import BUMP_M1, line_bump, line_ramp, mollifier, mollifier_prime
from helpers import (
    bisect_root,
    composite_simpson,
    integrating_factor,
    mp_reciprocal_integral,
    reference_simulate_fv,
)


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


def test_bump_slope_closed_form():
    # -w0' peaks where 3 s^4 = 1: BUMP_M1 is its value correctly rounded, and
    # the scan of a problem built with m=None lands within 4 ulp of it
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        q = 1 - 1 / mp.sqrt(3)
        exact = 2 * mp.mpf(3) ** (-mp.mpf(1) / 4) / q**2 * mp.exp(-1 / q)
        assert abs(exact - BUMP_M1) <= np.spacing(BUMP_M1) / 2
    assert BUMP_M1 == float(exact)
    w0, w0p, sup = line_bump(1.0)
    scanned = BurgersProblem(w0, w0p, sup, 1.0, DampingLaw(0.0, 0.0)).m
    assert abs(scanned - BUMP_M1) <= 4 * np.spacing(BUMP_M1)


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
    assert isinstance(v, FiniteLifespan) and v.lifespan == pytest.approx(10.0, rel=1e-12, abs=0.0)
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
    assert v.lifespan == pytest.approx(t_oracle, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("mu, lam, eps", [
    (0.05, 0.05, 0.5), (0.3, 0.3, 0.5), (0.3, 0.7, 0.5), (1.0, 0.5, 2.0),
    (1.0, 0.9, 2.0), (1.0, 0.99, 2.0), (3.0, 0.7, 10.0),
])
def test_lifespan_interior_lambda_matches_mpmath(mu, lam, eps):
    # root of eps * m * I(T) = 1 with m = 1, polished by mpmath at 50 digits
    mp = pytest.importorskip("mpmath")
    v = classify_lifespan(replace(ramp_problem(eps, mu, lam), m=1.0))
    assert isinstance(v, FiniteLifespan)
    with mp.workdps(50):
        exact = mp.findroot(lambda t: mp_reciprocal_integral(mu, lam, t) - 1 / mp.mpf(eps), v.lifespan)
    assert v.lifespan == pytest.approx(float(exact), rel=1e-11, abs=0.0)


@pytest.mark.parametrize("mu, lam, eps", [(1.0, 2.0, 0.5), (0.3, 1.0 + 1.0 / 3.0, 0.2), (3.0, 1.001, 4.0)])
def test_lifespan_supercritical_matches_mpmath(mu, lam, eps):
    # root of eps * m * I(T) = 1 with m = 1 on the mpmath quadrature oracle
    mp = pytest.importorskip("mpmath")
    v = classify_lifespan(replace(ramp_problem(eps, mu, lam), m=1.0))
    assert isinstance(v, FiniteLifespan)
    with mp.workdps(50):
        exact = mp.findroot(lambda t: mp_reciprocal_integral(mu, lam, t) - 1 / mp.mpf(eps), v.lifespan)
    assert v.lifespan == pytest.approx(float(exact), rel=1e-13, abs=0.0)


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
    v = classify_lifespan(replace(ramp_problem(eps, mu, lam), m=1.0))
    assert isinstance(v, FiniteLifespan)
    with mp.workdps(50):
        log_root = mp.findroot(lambda L: mp_reciprocal_integral(mu, lam, mp.expm1(L)) - 1 / mp.mpf(eps),
                               mp.log1p(v.lifespan))
        exact = mp.expm1(log_root)
    assert v.lifespan == pytest.approx(float(exact), rel=1e-11, abs=0.0)


def test_lifespan_beyond_the_doubling_bracket():
    # C = mu/(lam-1) = 200: T is about e^200, far beyond 2^200 but finite
    v = classify_lifespan(replace(ramp_problem(1.0, 200.0, 2.0), m=1.0))
    assert isinstance(v, FiniteLifespan) and 1e80 < v.lifespan < np.inf
    assert DampingLaw(200.0, 2.0).reciprocal_integral(v.lifespan) == pytest.approx(1.0, rel=1e-14)
    # C = 1000: I(t) stays below 1 over the whole float range
    v = classify_lifespan(replace(ramp_problem(1.0, 1000.0, 2.0), m=1.0))
    assert isinstance(v, FiniteLifespan) and np.isinf(v.lifespan)


@pytest.mark.parametrize("lam, mu, eps", [(0.7, 0.3, 0.5), (2.0, 1.0, 0.2), (1.5, 0.5, 0.3)])
def test_lifespan_takes_few_integral_evaluations(monkeypatch, lam, mu, eps):
    # the bracket from the doubling and Anderson-Bjorck false position on it:
    # the old secant step, regula falsi on the concave I(t), took 36 to 58
    calls = []
    integral = DampingLaw.reciprocal_integral

    def counted(law, t):
        calls.append(t)
        return integral(law, t)

    monkeypatch.setattr(DampingLaw, "reciprocal_integral", counted)
    v = classify_lifespan(replace(bump_problem(eps, mu, lam), m=BUMP_M1))
    assert isinstance(v, FiniteLifespan)
    assert len(calls) <= 15


@pytest.mark.parametrize("eps", [1e6, 1e10, 1e14, 1e200])
def test_lifespan_far_below_one_matches_mpmath(eps):
    # T is about 1/(eps m), relative 1e-15 below 1 too: the bracket used to
    # start at [0, 1] and close to an absolute 1e-15 (8.9e-16 at eps = 1e200)
    mp = pytest.importorskip("mpmath")
    v = classify_lifespan(replace(bump_problem(eps, 1.0, 2.0), m=BUMP_M1))
    assert isinstance(v, FiniteLifespan)
    # solved for T/target near 1: mpmath's findroot is not scale-free
    with mp.workdps(50):
        target = 1 / (mp.mpf(eps) * mp.mpf(BUMP_M1))
        exact = mp.findroot(lambda u: mp_reciprocal_integral(1.0, 2.0, u * target) / target - 1, 1) * target
    assert v.lifespan == pytest.approx(float(exact), rel=1e-14, abs=0.0)


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


def test_simulation_and_characteristics_need_no_lifespan(monkeypatch):
    # both only ask whether eps * m * I(t) < 1, which needs no root solve for T
    def forbidden(*args, **kwargs):
        raise AssertionError("classify_lifespan called")

    monkeypatch.setattr("critdamp.burgers.classify_lifespan", forbidden)
    problem = bump_problem(0.5, 1.0, 2.0)

    def rescan(*args, **kwargs):  # the problem carries its m: no reader scans again
        raise AssertionError("max_negative_slope called")

    monkeypatch.setattr("critdamp.burgers.max_negative_slope", rescan)
    _, verdict = simulate_fv(problem, 64, 2.0, 0.4)
    assert verdict == Global()
    assert eval_characteristic(problem, 1.0, 0.5) != 0.0
    with pytest.raises(LifespanError):
        eval_characteristic(problem, 100.0, 0.5)


def test_problem_carries_its_slope(monkeypatch):
    p = ramp_problem(0.1, 0.5, 1.0)
    assert p.m == max_negative_slope(p)
    for bad in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="^m must be finite"):
            replace(p, m=bad)

    def rescan(*args, **kwargs):
        raise AssertionError("max_negative_slope called")

    monkeypatch.setattr("critdamp.burgers.max_negative_slope", rescan)
    q = replace(p, epsilon=0.2, damping=DampingLaw(1.0, 2.0))
    assert (q.m, q.epsilon) == (p.m, 0.2)
    assert classify_lifespan(replace(q, m=0.0)) == Global()


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
    # doubling m shortens it the same way
    t_m1 = classify_lifespan(replace(ramp_problem(0.25, *law_args), m=1.0)).lifespan
    t_m2 = classify_lifespan(replace(ramp_problem(0.25, *law_args), m=2.0)).lifespan
    assert t_m2 < t_m1


def test_zero_profile_is_global():
    assert isinstance(classify_lifespan(zero_problem()), Global)


def test_border_case_is_global():
    # eps * m * I(inf) == 1 exactly: no finite crossing time
    p = ramp_problem(1.0, 2.0, 1.0)  # I(inf) = 1, eps*m = 1
    assert isinstance(classify_lifespan(replace(p, m=1.0)), Global)


def test_overflowing_lifespan_is_inf():
    # lam=1, mu=1: T = exp(1/(eps*m)) - 1 overflows float64 at small eps
    v = classify_lifespan(replace(ramp_problem(1e-3, 1.0, 1.0), m=1.0))
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
    assert np.max(np.abs(vals * integrating_factor(law, t) - 0.1 * p.w0(x0))) < 1e-12


def test_characteristic_spatial_integral():
    # int w(t) dx = eps/beta(t) int w0 (unit-Jacobian characteristic map)
    p = bump_problem(0.1, 0.5, 1.0)
    t = 10.0
    lhs = composite_simpson(lambda x: eval_characteristic(p, t, x), -1.0, 1.0, 20_000)
    rhs = 0.1 * composite_simpson(lambda x: np.asarray(p.w0(x)), -1.0, 1.0, 20_000)
    rhs /= integrating_factor(p.damping, t)
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


@pytest.mark.parametrize("t", [-1e-300, -1.0, -math.inf])
def test_characteristic_before_time_zero_raises(t):
    with pytest.raises(ValueError, match="time must be nonnegative"):
        eval_characteristic(ramp_problem(0.1, 0.5, 1.0), t, 0.0)


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
        assert q * integrating_factor(p.damping, s.t) / q0 == pytest.approx(1.0, abs=1e-10)


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
        assert abs(q * integrating_factor(p.damping, s.t) - q0) <= 32 * np.finfo(float).eps * scale


@settings(max_examples=30, deadline=None)
# Negative amplitudes leave -0.0 cells outside the support.  Sample times
# clamp steps; irregular ones also make clamped steps whose t + dt is not the
# sample time, which the log beta cache must not reuse.  A small threshold
# breaks down.
@given(amplitude=st.floats(0.01, 1.0) | st.floats(-1.0, -0.01), centre=st.floats(-1.0, 1.0),
       width=st.floats(0.2, 1.5), eps=st.floats(0.05, 1.0), mu=st.floats(0.0, 2.0), lam=st.floats(0.0, 3.0),
       t_end=st.floats(0.5, 4.0), cadence=st.floats(0.05, 2.0), extra=st.lists(st.floats(0.0, 1.0), max_size=4),
       cfl=st.floats(0.1, 0.9), n_cells=st.integers(16, 96), threshold=st.none() | st.floats(0.0, 2.0))
# the step from the sample 2.91 * 0.124 clamps onto 2.91 * 0.342, and t + dt misses it by an ulp
@example(amplitude=0.377, centre=0.165, width=0.207, eps=0.494, mu=1.79, lam=2.86, t_end=2.91, cadence=1.39,
         extra=[0.124, 0.342], cfl=0.728, n_cells=47, threshold=None)
def test_fv_march_matches_allocating_step_bit_for_bit(amplitude, centre, width, eps, mu, lam, t_end, cadence,
                                                      extra, cfl, n_cells, threshold):
    p = BurgersProblem(lambda x: amplitude * mollifier((x - centre) / width),
                       lambda x: amplitude * mollifier_prime((x - centre) / width) / width,
                       (centre - width, centre + width), eps, DampingLaw(mu, lam))
    span = (centre - width - eps * t_end - 0.5, centre + width + eps * t_end + 0.5)
    times = sample_times(t_end, cadence) + [t_end * f for f in extra]
    snaps, verdict = simulate_fv(p, n_cells, t_end, cfl, snapshot_times=times, gradient_threshold=threshold,
                                 x_span=span)
    ref_snaps, ref_verdict = reference_simulate_fv(p, n_cells, t_end, cfl, span, times, threshold)
    assert verdict_label(verdict) == verdict_label(ref_verdict)
    assert len(snaps) == len(ref_snaps)
    for s, (t, w, dt) in zip(snaps, ref_snaps):
        assert s.t == t
        assert np.array([s.dt]).view(np.int64)[0] == np.array([dt]).view(np.int64)[0]
        assert np.array_equal(s.w.view(np.int64), w.view(np.int64))


def test_fv_step_in_its_workspace_allocates_no_grid_sized_array(monkeypatch):
    # once simulate_fv's workspace exists, each step and the stable_dt and
    # gradient calls of the march form their arrays in workspace buffers
    n, peaks = 4096, []

    def measured(f):
        def call(*args):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = f(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            return out
        return call

    def measured_march(state, t_end, wanted, stable_dt, advance, gradient, bound, sample, limit):
        return march(state, t_end, wanted, measured(stable_dt), measured(advance), measured(gradient),
                     measured(bound), sample, limit)

    monkeypatch.setattr(burgers, "march", measured_march)
    tracemalloc.start()
    try:
        _, verdict = simulate_fv(bump_problem(0.1, 0.5, 1.0), n, 0.5, 0.5, snapshot_times=[0.5])
    finally:
        tracemalloc.stop()
    assert isinstance(verdict, Global)
    assert len(peaks) > 30 and max(peaks) < 8 * n / 2


def test_fv_step_that_leaves_the_float_range_is_non_finite():
    # 17 cells across (-1e300, 1e300) at eps = 1e200: w^2 overflows in the
    # flux, and the step's values go non-finite long before any gradient
    # trigger, as in the allocating reference
    p, span = bump_problem(1e200, 1.0, 1.0), (-1e300, 1e300)
    with np.errstate(all="ignore"):
        snaps, verdict = simulate_fv(p, 17, 1e100, 0.4, x_span=span)
        _, ref_verdict = reference_simulate_fv(p, 17, 1e100, 0.4, span, [1e100])
    assert snaps == [] and verdict_label(verdict) == verdict_label(ref_verdict)
    assert verdict.cause.value == "NonFinite" and verdict.time == pytest.approx(1.28e99, rel=1e-3)


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


@pytest.mark.parametrize("threshold, fires", [(0.38, True), (20.0, False)])
def test_fv_takes_the_exact_gradient_only_where_its_bound_does_not_hold(monkeypatch, threshold, fires):
    # |diff(w)| <= 2 max|w|, so below a threshold of 2 (1 + 1e-15) max|w| / dx
    # (9.5 at first here) the trigger cannot fire, and simulate_fv takes no
    # gradient; the low threshold takes it after every step and fires
    # GradientThreshold at the allocating reference's time
    calls = {"gradient": 0, "step": 0}
    for name in calls:
        def counted(self, *args, _name=name, _f=getattr(burgers._Workspace, name)):
            calls[_name] += 1
            return _f(self, *args)
        monkeypatch.setattr(burgers._Workspace, name, counted)
    p = ramp_problem(0.1, 0.5, 1.0)
    span, times = (-4.2, 4.2), [0.0, 10.0, 20.0, 30.0]
    snaps, verdict = simulate_fv(p, 400, 36.0, 0.5, snapshot_times=times, gradient_threshold=threshold, x_span=span)
    ref_snaps, ref_verdict = reference_simulate_fv(p, 400, 36.0, 0.5, span, times, threshold)
    assert verdict_label(verdict) == verdict_label(ref_verdict)
    assert [s.w.tobytes() for s in snaps] == [w.tobytes() for _, w, _ in ref_snaps]
    if fires:
        assert verdict.cause.value == "GradientThreshold" and 0.0 < verdict.time < 35.0
        assert calls["gradient"] == calls["step"] > 30
    else:
        assert isinstance(verdict, Global) and calls["gradient"] == 0 and calls["step"] > 30


def test_fv_snapshots_share_one_read_only_x_and_hold_their_own_w():
    snaps, verdict = simulate_fv(bump_problem(0.1, 0.5, 1.0), 64, 1.0, 0.5, snapshot_times=[0.0, 0.5, 1.0])
    assert isinstance(verdict, Global) and [s.t for s in snaps] == [0.0, 0.5, 1.0]
    assert all(s.x is snaps[0].x for s in snaps) and not snaps[0].x.flags.writeable
    assert all(s.w.flags.owndata and s.w.flags.writeable for s in snaps)
    assert not any(np.array_equal(a.w, b.w) for a, b in itertools.combinations(snaps, 2))


def test_fv_validates_config():
    p = bump_problem(0.1, 0.5, 1.0)
    with pytest.raises(ValueError):
        simulate_fv(p, 8, 1.0, 0.5)
    with pytest.raises(ValueError):
        simulate_fv(p, 64, 1.0, 1.5)
    with pytest.raises(ValueError):
        simulate_fv(p, 64, -1.0, 0.5)
    # an explicit span must contain the support (-1, 1)
    for span in [(-0.5, 0.5), (-1.0, 0.999), (-0.999, 2.0), (2.0, 3.0)]:
        with pytest.raises(ValueError, match="must contain the support"):
            simulate_fv(p, 64, 1.0, 0.5, x_span=span)
    _, verdict = simulate_fv(p, 64, 1.0, 0.5, x_span=(-1.0, 1.0))
    assert isinstance(verdict, Global)
    for times in ([-0.1, 0.5], [0.0, 1.5], [math.nan]):
        with pytest.raises(ValueError, match=r"snapshot times must lie in \[0, t_end\]"):
            simulate_fv(p, 64, 1.0, 0.5, snapshot_times=times)


def test_problem_validation():
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    with pytest.raises(ValueError):
        BurgersProblem(zero, zero, (1.0, -1.0), 0.1, DampingLaw(1.0, 1.0))
    for plateau, support in [(0.0, 3.0), (3.0, 3.0), (2.0, 1.0)]:
        with pytest.raises(ValueError, match="need 0 < plateau < support"):
            line_ramp(plateau, support)
    with pytest.raises(ValueError):
        BurgersProblem(zero, zero, (-1.0, 1.0), 0.0, DampingLaw(1.0, 1.0))
