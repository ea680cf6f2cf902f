import math

import pytest

from critdamp.outcome import (
    DT_FLOOR,
    BreakdownCause,
    BreakdownError,
    Global,
    NumericalBreakdown,
    march,
    sample_times,
)

RATE = 0.5


def decay_march(t_end, times, dt=0.03, gradient=abs, grad_limit=None, advance=None):
    """Toy problem: the state is a float that decays exactly, y' = -RATE y."""
    samples = []
    verdict = march(
        1.0, t_end, times,
        lambda y: dt,
        advance or (lambda y, t, h: y * math.exp(-RATE * h)),
        gradient,
        lambda y, t: samples.append((t, y)),
        grad_limit,
    )
    return verdict, samples


def test_sample_times_clamp_to_t_end():
    assert sample_times(0.3, 0.1) == [0.0, 0.1, 0.2, 0.3]
    assert sample_times(1.0, 0.4) == [0.0, 0.4, 0.8, 1.0]
    assert sample_times(2.0, 5.0) == [0.0, 2.0]


def test_sample_times_end_exactly_on_t_end():
    # 3 * 0.3 rounds to 0.8999999999999999, a few ulps short of t_end
    assert sample_times(0.9, 0.3) == [0.0, 0.3, 0.6, 0.9]
    _, samples = decay_march(0.9, sample_times(0.9, 0.3))
    assert samples[-1][0] == 0.9
    assert sample_times(20.0, 0.1)[-2:] == [19.900000000000002, 20.0]


def test_leading_zero_samples_initial_state():
    _, with_zero = decay_march(0.2, [0.0, 0.2])
    _, without = decay_march(0.2, [0.2])
    assert with_zero[0] == (0.0, 1.0)
    assert [t for t, _ in without] == [0.2]


def test_steps_land_exactly_on_sample_times():
    times = sample_times(1.0, 0.1)
    verdict, samples = decay_march(1.0, times)
    assert verdict == Global(horizon=1.0)
    assert [t for t, _ in samples] == times
    for t, y in samples:
        assert y == pytest.approx(math.exp(-RATE * t), rel=1e-12)
    # 0.2 + (0.9 - 0.2) rounds to 0.9000000000000001: the clamped step lands on 0.9
    _, samples = decay_march(0.9, [0.0, 0.2, 0.9], dt=1.0)
    assert [t for t, _ in samples] == [0.0, 0.2, 0.9]


def test_short_sample_list_still_marches_to_t_end():
    reached = []

    def advance(y, t, h):
        reached.append(t + h)
        return y

    verdict, samples = decay_march(1.0, [0.0, 0.25], advance=advance)
    assert verdict == Global(horizon=1.0)
    assert [t for t, _ in samples] == [0.0, 0.25]
    assert reached[-1] == 1.0 and max(reached) == 1.0


@pytest.mark.parametrize("dt", [DT_FLOOR, 0.5 * DT_FLOOR, math.inf, math.nan])
def test_cfl_collapse_at_current_time(dt):
    calls = []

    def advance(y, t, h):
        calls.append(t)
        return y

    assert decay_march(1.0, [0.0], dt=dt, advance=advance)[0] == \
        NumericalBreakdown(0.0, BreakdownCause.CFL_COLLAPSE)
    assert calls == []


def test_breakdown_error_passes_through():
    def advance(y, t, h):
        if t + h > 0.35:
            raise BreakdownError(0.123, BreakdownCause.NEGATIVE_DENSITY)
        return y

    times = sample_times(1.0, 0.1)
    verdict, samples = decay_march(1.0, times, advance=advance)
    assert verdict == NumericalBreakdown(0.123, BreakdownCause.NEGATIVE_DENSITY)
    assert [t for t, _ in samples] == times[:4]


def test_gradient_trigger_time():
    # gradient 1/y grows as exp(RATE t): 1000x the initial value at t = ln(1000)/RATE,
    # which the trigger reports at the first step end past it
    t_cross = math.log(1e3) / RATE
    verdict, _ = decay_march(20.0, [0.0], dt=0.25, gradient=lambda y: 1.0 / y)
    assert verdict.cause is BreakdownCause.GRADIENT_THRESHOLD
    assert verdict.time == pytest.approx(math.ceil(t_cross / 0.25) * 0.25, abs=1e-9)

    verdict, _ = decay_march(20.0, [0.0], dt=0.25, gradient=lambda y: 1.0 / y, grad_limit=2.0)
    assert verdict.time == pytest.approx(math.ceil(math.log(2.0) / RATE / 0.25) * 0.25, abs=1e-9)


def test_zero_initial_gradient_disables_trigger():
    verdict, _ = decay_march(1.0, [0.0], gradient=lambda y: 0.0 if y == 1.0 else 1e9)
    assert verdict == Global(horizon=1.0)
