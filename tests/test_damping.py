import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from critdamp import DampingLaw, numerics
from helpers import composite_simpson, mp_reciprocal_integral


def log_time_quad(law, t):
    """I(t) by the package's log-time quadrature of 1/beta."""
    return numerics.time_integral(lambda tau: np.exp(-law.log_integrating_factor(tau)), t)


def test_factor_initial_condition():
    for mu, lam in [(0.0, 0.0), (1.0, 0.5), (2.0, 1.0), (3.0, 2.5)]:
        assert DampingLaw(mu, lam).integrating_factor(0.0) == pytest.approx(1.0, abs=1e-15)


def test_factor_closed_forms():
    assert DampingLaw(2.0, 1.0).integrating_factor(3.0) == pytest.approx(16.0, rel=1e-13)
    assert DampingLaw(1.0, 0.0).integrating_factor(1.0) == pytest.approx(np.e, rel=1e-14)


@pytest.mark.parametrize("mu", [0.25, 1.0, 2.0])
@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 1.5, 3.0])
def test_factor_satisfies_defining_ode(mu, lam):
    # central difference of beta vs mu (1+t)^-lam beta, h = 1e-5
    law = DampingLaw(mu, lam)
    h = 1e-5
    for t in (0.5, 2.0, 7.0):
        lhs = (law.integrating_factor(t + h) - law.integrating_factor(t - h)) / (2 * h)
        rhs = mu * (1.0 + t) ** (-lam) * law.integrating_factor(t)
        assert lhs == pytest.approx(rhs, rel=1e-6)


def test_factor_nondecreasing():
    law = DampingLaw(1.5, 0.7)
    ts = np.linspace(0.0, 50.0, 300)
    vals = law.integrating_factor(ts)
    assert np.all(np.diff(vals) >= 0)


@pytest.mark.parametrize("mu", [0.5, 2.0])
@pytest.mark.parametrize("lam", [1.5, 2.0, 4.0])
def test_factor_bounded_above_critical(mu, lam):
    law = DampingLaw(mu, lam)
    bound = np.exp(mu / (lam - 1.0))
    ts = np.geomspace(0.01, 1e6, 200)
    assert np.all(law.integrating_factor(ts) <= bound * (1 + 1e-12))


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


@pytest.mark.parametrize("field, mu, lam", [("mu", math.inf, 1.0), ("mu", math.nan, 1.0),
                                            ("lam", 1.0, math.inf), ("lam", 1.0, math.nan)])
def test_nonfinite_parameters_are_rejected(field, mu, lam):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        DampingLaw(mu, lam)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_nan_time_is_rejected(lam):
    with pytest.raises(ValueError, match="time must be nonnegative"):
        DampingLaw(1.0, lam).reciprocal_integral(math.nan)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        DampingLaw(-0.1, 1.0)
    with pytest.raises(ValueError):
        DampingLaw(1.0, -0.5)
    with pytest.raises(ValueError):
        DampingLaw(1.0, 1.0).integrating_factor(-1.0)
    with pytest.raises(ValueError):
        DampingLaw(1.0, 1.0).reciprocal_integral(-2.0)


@pytest.mark.parametrize("mu, lam", [(0.0, 0.0), (1.3, 0.0), (1.0, 0.5), (0.5, 1.0), (2.0, 1.0), (0.7, 2.5)])
def test_damping_factor_is_the_beta_ratio(mu, lam):
    law = DampingLaw(mu, lam)
    for t0, t1 in [(0.0, 0.1), (0.3, 0.30000000000000004), (2.0, 7.5), (1e6, 1e6 + 3.0)]:
        # the solvers' momentum factor: exactly the log-difference form
        expected = float(np.exp(law.log_integrating_factor(t0) - law.log_integrating_factor(t1)))
        assert law.damping_factor(t0, t1) == expected
        if t1 < 10:
            ratio = law.integrating_factor(t0) / law.integrating_factor(t1)
            assert law.damping_factor(t0, t1) == pytest.approx(ratio, rel=1e-12)
