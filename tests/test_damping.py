import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from critdamp import DampingLaw, numerics
from critdamp.damping import StepFactor
from helpers import composite_simpson, integrating_factor, mp_reciprocal_integral


def log_time_quad(law, t):
    """I(t) by the package's log-time quadrature of 1/beta."""
    return numerics.time_integral(lambda tau: np.exp(-law.log_integrating_factor(tau)), t)


def test_factor_initial_condition():
    for mu, lam in [(0.0, 0.0), (1.0, 0.5), (2.0, 1.0), (3.0, 2.5)]:
        assert integrating_factor(DampingLaw(mu, lam), 0.0) == pytest.approx(1.0, abs=1e-15)


def test_factor_closed_forms():
    assert integrating_factor(DampingLaw(2.0, 1.0), 3.0) == pytest.approx(16.0, rel=1e-13)
    assert integrating_factor(DampingLaw(1.0, 0.0), 1.0) == pytest.approx(np.e, rel=1e-14)


@pytest.mark.parametrize("mu", [0.25, 1.0, 2.0])
@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 1.5, 3.0])
def test_factor_satisfies_defining_ode(mu, lam):
    # central difference of beta vs mu (1+t)^-lam beta, h = 1e-5
    law = DampingLaw(mu, lam)
    h = 1e-5
    for t in (0.5, 2.0, 7.0):
        lhs = (integrating_factor(law, t + h) - integrating_factor(law, t - h)) / (2 * h)
        rhs = mu * (1.0 + t) ** (-lam) * integrating_factor(law, t)
        assert lhs == pytest.approx(rhs, rel=1e-6)


def test_factor_nondecreasing():
    law = DampingLaw(1.5, 0.7)
    ts = np.linspace(0.0, 50.0, 300)
    vals = integrating_factor(law, ts)
    assert np.all(np.diff(vals) >= 0)


@pytest.mark.parametrize("mu", [0.5, 2.0])
@pytest.mark.parametrize("lam", [1.5, 2.0, 4.0])
def test_factor_bounded_above_critical(mu, lam):
    law = DampingLaw(mu, lam)
    bound = np.exp(mu / (lam - 1.0))
    ts = np.geomspace(0.01, 1e6, 200)
    assert np.all(integrating_factor(law, ts) <= bound * (1 + 1e-12))


def test_integral_closed_form_cases():
    assert DampingLaw(1.0, 1.0).reciprocal_integral(np.e - 1.0) == pytest.approx(1.0, rel=1e-13)
    # critical-exponent closed form at mu != 1
    law = DampingLaw(0.5, 1.0)
    t = 35.0
    assert law.reciprocal_integral(t) == pytest.approx((36.0**0.5 - 1.0) / 0.5, rel=1e-13)
    # no damping
    assert DampingLaw(0.0, 2.0).reciprocal_integral(7.5) == 7.5
    # exponential factor
    assert DampingLaw(2.0, 0.0).reciprocal_integral(3.0) == pytest.approx((1 - np.exp(-6.0)) / 2.0, rel=1e-13)


def test_integral_strictly_increasing():
    law = DampingLaw(1.0, 2.0)
    ts = np.linspace(0.0, 30.0, 40)
    vals = [law.reciprocal_integral(t) for t in ts]
    assert np.all(np.diff(vals) > 0)


def test_integral_generic_matches_brute_force():
    # frozen case: mu=1, lam=2, t=5 against 2e6-panel composite Simpson
    law = DampingLaw(1.0, 2.0)
    oracle = composite_simpson(
        lambda tau: np.exp(-(1.0 - 1.0 / (1.0 + tau))), 0.0, 5.0, 2_000_000
    )
    assert law.reciprocal_integral(5.0) == pytest.approx(oracle, abs=1e-10)


@pytest.mark.parametrize("mu,lam", [(1.0, 1.0), (0.5, 1.0), (2.0, 1.0), (1.5, 0.0),
                                    (0.3, 0.7), (1.0, 0.5), (3.0, 0.05), (1.0, 0.99)])
def test_closed_forms_agree_with_quadrature(mu, lam):
    law = DampingLaw(mu, lam)
    for t in (0.5, 10.0, 1e4):
        quad = log_time_quad(law, t)
        assert law.reciprocal_integral(t) == pytest.approx(quad, abs=1e-10)


def test_limit_classification():
    assert DampingLaw(2.0, 1.0).reciprocal_integral_limit() == pytest.approx(1.0, abs=0)
    assert DampingLaw(0.5, 1.0).reciprocal_integral_limit() == math.inf
    assert DampingLaw(1.0, 1.0).reciprocal_integral_limit() == math.inf
    assert DampingLaw(3.0, 2.0).reciprocal_integral_limit() == math.inf
    assert DampingLaw(0.0, 0.5).reciprocal_integral_limit() == math.inf
    assert DampingLaw(2.0, 0.0).reciprocal_integral_limit() == pytest.approx(0.5, rel=1e-14)


def test_limit_subcritical_value():
    # mu=1, lam=1/2: substitute s = sqrt(1+tau); limit is 2 e^2 int_1^inf s e^{-2s} ds = 1.5
    assert DampingLaw(1.0, 0.5).reciprocal_integral_limit() == pytest.approx(1.5, rel=1e-10)


def test_limit_tail_is_negligible():
    law = DampingLaw(0.25, 0.75)
    lim = law.reciprocal_integral_limit()
    # the limit dominates any truncation: integrating twice as far changes nothing
    probe = log_time_quad(law, 3e7)
    assert lim == pytest.approx(probe, rel=1e-9)


@pytest.mark.parametrize("lam", [0.05, 0.3, 0.5, 0.7, 0.9, 0.99])
@pytest.mark.parametrize("mu", [0.05, 0.3, 1.0, 3.0])
def test_gamma_form_matches_mpmath(mu, lam):
    law = DampingLaw(mu, lam)
    assert law.gamma_form
    for t in (1e-6, 0.5, 5.0, 50.0, 1e4, 1e8):
        oracle = float(mp_reciprocal_integral(mu, lam, t))
        assert abs(law.reciprocal_integral(t) - oracle) <= 1e-12 * max(1.0, oracle), t
    oracle = float(mp_reciprocal_integral(mu, lam))
    assert abs(law.reciprocal_integral_limit() - oracle) <= 1e-13 * oracle


def test_gamma_form_corners():
    # nearer lam = 1 than lam = 0.999, I(t) stays on quadrature; I(inf) does not
    assert DampingLaw(1.0, 0.999).gamma_form
    assert not DampingLaw(1.0, 0.9999).gamma_form
    assert not DampingLaw(0.0, 0.5).gamma_form
    law = DampingLaw(1.0, 0.9999)
    assert law.reciprocal_integral(0.5) == pytest.approx(float(mp_reciprocal_integral(1.0, 0.9999, 0.5)), rel=1e-12)
    oracle = float(mp_reciprocal_integral(1.0, 0.9999))
    assert law.reciprocal_integral_limit() == pytest.approx(oracle, rel=1e-13)
    # an I(inf) beyond the float range (about 1e890 here) is +inf
    assert DampingLaw(0.05, 0.999).reciprocal_integral_limit() == np.inf
    assert DampingLaw(0.05, 0.999).reciprocal_integral(1e8) == pytest.approx(
        float(mp_reciprocal_integral(0.05, 0.999, 1e8)), rel=1e-12)


@pytest.mark.parametrize("mu, lam", [(1.0, 2.0), (0.3, 1.0 + 1.0 / 3.0), (3.0, 1.001), (1.94, 2.66), (0.05, 5.0)])
def test_poisson_series_matches_mpmath(mu, lam):
    # integer s = 1/(lam-1) (lam = 2), near-integer s (lam = 1 + 1/3) and a
    # large C = mu/(lam-1) = 3000 (lam = 1.001)
    law = DampingLaw(mu, lam)
    assert law.series_form
    for t in (1e-6, 0.5, 50.0, 1e4):
        oracle = float(mp_reciprocal_integral(mu, lam, t))
        assert abs(law.reciprocal_integral(t) - oracle) <= 1e-13 * oracle, t


@pytest.mark.parametrize("mu, lam", [(1.0, 0.9999), (0.5, 0.9995), (1.0, 1.00001), (3.0, 1.0001), (0.3, 1.00001)])
def test_corner_integral_matches_mpmath(mu, lam):
    # 0.999 < lam < 1 and 1 < lam < 1 + mu/SERIES_MAX_C: one log-time
    # quadrature from 0, accurate far beyond t = 1e17
    law = DampingLaw(mu, lam)
    assert not (law.gamma_form or law.series_form)
    for t in (0.5, 1e4, 1e18, 1e100):
        oracle = float(mp_reciprocal_integral(mu, lam, t))
        assert abs(law.reciprocal_integral(t) - oracle) <= 1e-13 * oracle, t


# subnormal t would carry too few bits for the 1e-14 bounds below
@settings(max_examples=60, deadline=None)
@given(mu=st.floats(0.01, 5.0), lam=st.floats(1.0, 6.0, exclude_min=True),
       t=st.floats(0.0, 1e6, allow_subnormal=False))
@example(mu=5.0, lam=1.0312781209700266, t=61364.0)  # true rise about 2 ulps of I
def test_poisson_series_properties(mu, lam, t):
    law = DampingLaw(mu, lam)
    if not law.series_form:  # lam - 1 < mu/SERIES_MAX_C: quadrature on both sides
        return
    value = law.reciprocal_integral(t)
    quad = log_time_quad(law, t)
    assert abs(value - quad) <= 1e-10 * max(1.0, value)
    # e^-C <= 1/beta <= 1 with C = mu/(lam-1), so t e^-C <= I(t) <= t
    assert t * math.exp(-mu / (lam - 1.0)) * (1 - 1e-14) <= value <= t * (1 + 1e-14)
    # beta increases, so I(later) - I(t) lies between (later - t)/beta(later)
    # and (later - t)/beta(t).  The rise must be strict wherever that lower
    # bound clears the series' few-ulp error; near C = mu/(lam-1) ~ 160 and
    # t ~ 1e5 the true rise is below an ulp of I and even exact rounding ties.
    later_t = 2.0 * t + 1e-3
    later = law.reciprocal_integral(later_t)
    low = (later_t - t) * math.exp(-law.log_integrating_factor(later_t))
    high = (later_t - t) * math.exp(-law.log_integrating_factor(t))
    slack = 1e-14 * later
    assert low - slack <= later - value <= high + slack
    if low > slack:
        assert later > value


def test_limit_beyond_the_term_cap_uses_quadrature(monkeypatch):
    # at lam = 1 - 1e-7, mu = 1 the gamma expansions need ~27,000 terms
    law = DampingLaw(1.0, 1.0 - 1e-7)
    with pytest.raises(numerics.ConvergenceError):
        law._gamma_limit()
    by_quadrature = law.reciprocal_integral_limit()
    monkeypatch.setattr(numerics, "GAMMA_MAX_TERMS", 100_000)
    assert law.reciprocal_integral_limit() == pytest.approx(by_quadrature, rel=1e-9)


def test_limit_at_the_last_double_below_one_uses_quadrature():
    # lam = 1 - 2^-53, mu = 1: s = c = 2^53, where the continued fraction's
    # first denominator c + 1 - s rounds to 0.  I(inf) = e^s s^-s Gamma(s, s) s
    # is mpmath's 118947364.09336122, sqrt(pi s / 2) - 1/3 + O(s^-1/2) (DLMF 8.11.12)
    law = DampingLaw(1.0, 1.0 - 2.0**-53)
    with pytest.raises(numerics.ConvergenceError):
        law._gamma_limit()
    assert law.reciprocal_integral_limit() == pytest.approx(118947364.09336122, rel=1e-6)


def test_unresolved_limit_fails_within_a_small_memory_bound():
    # lam just below 1 with mu near 1: the gamma expansions hit their term
    # cap and the quadrature cannot resolve its integrand.  Its width cap of
    # 2^16 pending intervals stops it at a peak of about 6 MiB (320 MiB at
    # 2^21); the widest quadrature this suite answers splits 7,692 intervals
    tracemalloc.start()
    try:
        with pytest.raises(numerics.ConvergenceError):
            DampingLaw(mu=0.99, lam=0.9999997).reciprocal_integral_limit()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


@pytest.mark.parametrize("field, mu, lam", [("mu", math.inf, 1.0), ("mu", math.nan, 1.0),
                                            ("lam", 1.0, math.inf), ("lam", 1.0, math.nan)])
def test_nonfinite_parameters_are_rejected(field, mu, lam):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        DampingLaw(mu, lam)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_nan_time_is_rejected(lam):
    with pytest.raises(ValueError, match="time must be nonnegative"):
        DampingLaw(1.0, lam).reciprocal_integral(math.nan)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_reciprocal_integral_takes_scalar_times(lam):
    law = DampingLaw(1.0, lam)
    for bad in (-1.0, -math.inf):  # nan: test_nan_time_is_rejected
        with pytest.raises(ValueError, match="time must be nonnegative"):
            law.reciprocal_integral(bad)
    assert law.reciprocal_integral(-0.0) == 0.0
    expected = law.reciprocal_integral(0.5)
    assert law.reciprocal_integral(np.float64(0.5)) == expected
    assert law.reciprocal_integral(np.array(0.5)) == expected


def test_invalid_inputs():
    with pytest.raises(ValueError):
        DampingLaw(-0.1, 1.0)
    with pytest.raises(ValueError):
        DampingLaw(1.0, -0.5)
    with pytest.raises(ValueError):
        DampingLaw(1.0, 1.0).log_integrating_factor(-1.0)
    with pytest.raises(ValueError):
        DampingLaw(1.0, 1.0).reciprocal_integral(-2.0)


@pytest.mark.parametrize("mu, lam", [(0.0, 0.0), (1.3, 0.0), (1.0, 0.5), (0.5, 1.0), (2.0, 1.0), (0.7, 2.5)])
def test_damping_factor_is_the_beta_ratio(mu, lam):
    # the solvers' momentum factor is exactly the log-difference form,
    # whether a call starts where the last one ended (and reuses its log
    # beta), off it (a clamped step), or under another law
    law, other = DampingLaw(mu, lam), DampingLaw(mu + 0.25, lam)
    factor = StepFactor()
    calls = [(law, 0.0, 0.1), (law, 0.1, 0.3), (law, 0.3, 0.30000000000000004),
             (law, 0.30000000000000004, 2.0), (law, 2.0 + 2**-51, 7.5), (other, 7.5, 8.0),
             (law, 8.0, 9.0), (law, 9.0, 9.5), (law, 1e6, 1e6 + 3.0), (law, 1e6 + 3.0, 1e6 + 3.5)]
    for step_law, t0, t1 in calls:
        expected = float(np.exp(step_law.log_integrating_factor(t0) - step_law.log_integrating_factor(t1)))
        assert factor(step_law, t0, t1) == expected
        if t1 < 10:
            ratio = integrating_factor(step_law, t0) / integrating_factor(step_law, t1)
            assert expected == pytest.approx(ratio, rel=1e-12)
