import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from critdamp import (
    DampingLaw,
    GasModel,
    InitialProfile,
    RadialGrid,
    burgers,
    euler,
)
from critdamp.outcome import (
    DT_FLOOR,
    GRADIENT_BOUND_FACTOR,
    BreakdownCause,
    BreakdownError,
    FiniteLifespan,
    Global,
    NumericalBreakdown,
    march,
    sample_times,
    verdict_label,
)

from critdamp.profiles import line_ramp, radial_bump, radial_outgoing_shell

RATE = 0.5


def decay_march(t_end, times, dt=0.03, gradient=abs, limit=None, advance=None):
    """Toy problem: the state is a float that decays exactly, y' = -RATE y."""
    samples, verdict = march(
        1.0, t_end, times,
        lambda y: dt,
        advance or (lambda y, t, h: y * math.exp(-RATE * h)),
        gradient,
        lambda y: math.inf,
        lambda y, t: (t, y),
        limit,
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
    assert verdict == Global()
    assert [t for t, _ in samples] == times
    for t, y in samples:
        assert y == pytest.approx(math.exp(-RATE * t), rel=1e-12)
    # 0.2 + (0.9 - 0.2) rounds to 0.9000000000000001: the clamped step lands on 0.9
    _, samples = decay_march(0.9, [0.0, 0.2, 0.9], dt=1.0)
    assert [t for t, _ in samples] == [0.0, 0.2, 0.9]


def test_sample_times_are_sorted_without_repeats_and_checked():
    _, samples = decay_march(1.0, [0.5, 0.0, 0.25, 0.5, -0.0])
    assert [t for t, _ in samples] == [0.0, 0.25, 0.5]
    for times in ([-0.1, 0.5], [0.0, 1.5], [math.nan], [0.5, math.nan]):
        with pytest.raises(ValueError, match=r"snapshot times must lie in \[0, t_end\]"):
            decay_march(1.0, times)


def test_a_step_ending_just_short_of_a_sample_time_lands_on_it():
    # ten steps of 0.1 sum to 0.9999999999999999, within 1e-14 of t_end = 1:
    # the tenth is stretched onto 1.0, and the sample there is taken
    _, samples = decay_march(1.0, [0.0, 1.0], dt=0.1)
    assert [t for t, _ in samples] == [0.0, 1.0]
    assert samples[-1][1] == pytest.approx(math.exp(-RATE), rel=1e-12)


def test_short_sample_list_still_marches_to_t_end():
    reached = []

    def advance(y, t, h):
        reached.append(t + h)
        return y

    verdict, samples = decay_march(1.0, [0.0, 0.25], advance=advance)
    assert verdict == Global()
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


@pytest.mark.parametrize("build, match", [
    (lambda: FiniteLifespan(0.0), "lifespan must be positive"),
    (lambda: FiniteLifespan(math.nan), "lifespan must be positive"),
    (lambda: NumericalBreakdown(-1.0, BreakdownCause.NON_FINITE), "breakdown time must be nonnegative"),
    (lambda: NumericalBreakdown(math.nan, BreakdownCause.NON_FINITE), "breakdown time must be nonnegative"),
], ids=["lifespan-zero", "lifespan-nan", "breakdown-negative", "breakdown-nan"])
def test_verdicts_reject_times_out_of_range(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_verdict_label_rejects_what_is_not_a_verdict():
    assert verdict_label(FiniteLifespan(35.0)) == "FiniteLifespan:35.0"
    with pytest.raises(TypeError, match="not a verdict"):
        verdict_label("Global")


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

    verdict, _ = decay_march(20.0, [0.0], dt=0.25, gradient=lambda y: 1.0 / y, limit=2.0)
    assert verdict.time == pytest.approx(math.ceil(math.log(2.0) / RATE / 0.25) * 0.25, abs=1e-9)


def test_zero_initial_gradient_disables_trigger():
    verdict, _ = decay_march(1.0, [0.0], gradient=lambda y: 0.0 if y == 1.0 else 1e9)
    assert verdict == Global()


FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([1.7976931348623157e308, 5e-324, -0.0])


@pytest.mark.parametrize("t_end", [0.0, -1.0, math.inf, math.nan])
def test_march_refuses_a_t_end_outside_zero_to_inf(t_end):
    with pytest.raises(ValueError, match="t_end must be positive and finite"):
        decay_march(t_end, [0.0])


@given(v=st.lists(FLOATS, min_size=2, max_size=6), h=st.floats(1e-300, 1e300),
       limit=st.floats(0.0, math.inf), slack=st.sampled_from([1.0, 1.5]))
# two values of opposite sign at the float limit: their difference overflows
@example(v=[1.7976931348623157e308, -1.7976931348623157e308], h=1.0, limit=1e308, slack=1.0)
@example(v=[5e-324, -5e-324], h=1e-300, limit=1e-23, slack=1.0)
def test_gradient_screen_fires_exactly_where_the_gradient_does(v, h, limit, slack):
    # one step of march on max |diff(v)| / h, screened by the bound
    # 2 (1 + 1e-15) max_abs / h, for max_abs = max|v| and a looser one: the
    # trigger's verdict never changes, and where march skips the exact
    # gradient, the bound lies at or above it and below the limit
    v = np.array(v)
    taken = []

    def gradient(values):
        with np.errstate(over="ignore"):
            return float(np.max(np.abs(np.diff(values)))) / h

    def exact(values):
        taken.append(values)
        return gradient(values)

    def bound(values):
        return GRADIENT_BOUND_FACTOR * (slack * float(np.max(np.abs(values)))) / h

    _, verdict = march(v, 1.0, None, lambda values: 1.0, lambda values, t, dt: values, exact, bound,
                       lambda values, t: t, limit)
    assert (verdict == NumericalBreakdown(1.0, BreakdownCause.GRADIENT_THRESHOLD)) == (gradient(v) >= limit)
    if not taken:
        assert gradient(v) <= bound(v) < limit


@settings(max_examples=60, deadline=None)
@given(n_cells=st.integers(32, 48), r_max=st.floats(1e-3, 1e3), gamma=st.sampled_from([2.0, 1.4, 3.0]),
       rho_bar=st.sampled_from([1.0, 2.0, 0.7]), muscl=st.booleans(),
       x=st.lists(st.floats(0.01, 50.0), min_size=48, max_size=48),
       u=st.lists(st.floats(-1e100, 1e100) | st.sampled_from([-0.0, 5e-324, 1.0]), min_size=48, max_size=48))
def test_radial_gradient_bound_is_at_least_the_gradient(n_cells, r_max, gamma, rho_bar, muscl, x, u):
    # 2 (1 + 1e-15) max(|u| + c) / dr bounds max |du/dr| on a state and on
    # the state after a step at either order
    rho = rho_bar * np.array(x[:n_cells])
    state = euler.RadialState(0.0, rho - rho_bar, rho * np.array(u[:n_cells]), RadialGrid(r_max, n_cells), rho_bar)
    with np.errstate(over="ignore", invalid="ignore"):
        ws = euler._Workspace(state, GasModel(gamma, rho_bar))
        assert ws.gradient_bound() >= ws.max_velocity_gradient()
        try:
            ws.step(DampingLaw(1.0, 0.5), 0.0, ws.stable_dt(0.9), muscl)
        except BreakdownError:
            return
        assert ws.gradient_bound() >= ws.max_velocity_gradient()


HUGE_AND_TINY = st.sampled_from([1e300, -1e300, 1e-300, -1e-300, -0.0, 1.7976931348623157e308, -5e-324])


@given(w=st.lists(FLOATS | HUGE_AND_TINY, min_size=16, max_size=40), dx=st.floats(1e-300, 1e300))
def test_line_gradient_bound_is_at_least_the_gradient(w, dx):
    # 2 (1 + 1e-15) max|w| / dx bounds max |diff(w)| / dx
    with np.errstate(over="ignore"):
        ws = burgers._Workspace(np.array(w), DampingLaw(1.0, 0.5), dx, 0.5, 1.0)
        assert ws.gradient_bound() >= ws.gradient()


def radial_case(breaks):
    """(t_end, solve) for ``euler.run``, ``solve(snapshot_times)`` giving its
    (snapshots, verdict), to ``t_end`` or another end time: a small bump, or
    a shell whose violent shear loses positivity at second order
    (NegativeDensity)."""
    gas = GasModel(2.0, 1.0)
    if breaks:
        rho0, u0 = radial_outgoing_shell(0.2, 1.0)
        profile = InitialProfile(rho0, lambda r: 50.0 * np.asarray(u0(r)), epsilon=1.0, M=1.0, M0=0.2)
        t_end, law, grid, cfl = 0.2, DampingLaw(1.0, 1.0), RadialGrid(15.0, 512), 0.85
    else:
        profile = InitialProfile(*radial_bump(1.0), epsilon=0.1, M=1.0)
        t_end, law, grid, cfl = 1.0, DampingLaw(1.0, 0.5), RadialGrid(12.0, 64), 0.4
    state = euler.init_state(gas, profile, grid)
    return t_end, lambda times, t_end=t_end: euler.run(gas, law, state, t_end, cfl, snapshot_times=times,
                                                        muscl=breaks)


def line_case(breaks):
    """(t_end, solve) for ``burgers.simulate_fv``, as :func:`radial_case`: a
    ramp, whose gradient trigger fires (GradientThreshold) at a low threshold."""
    w0, w0p, support = line_ramp()
    problem = burgers.BurgersProblem(w0, w0p, support, 0.1, DampingLaw(0.5, 1.0), m=1.0)
    t_end = 36.0
    return t_end, lambda times, t_end=t_end: burgers.simulate_fv(problem, 400, t_end, 0.5, snapshot_times=times,
                                                                  gradient_threshold=0.38 if breaks else None,
                                                                  x_span=(-4.2, 4.2))


@pytest.mark.parametrize("case", [radial_case, line_case], ids=["euler.run", "burgers.simulate_fv"])
def test_both_solvers_share_one_run_contract(case):
    # each takes sample times (t_end alone by default), checked by march, and
    # returns (snapshots, verdict): the snapshots sit at exactly the sorted,
    # distinct requested times, and a run that breaks down returns those
    # before its breakdown
    t_end, solve = case(breaks=False)
    wanted = [t_end, 0.5 * t_end, 0.0, 0.25 * t_end, 0.5 * t_end, 0.3 * t_end]
    snapshots, verdict = solve(wanted)
    assert verdict == Global()
    assert [s.t for s in snapshots] == sorted(set(wanted))
    assert [s.t for s in solve(None)[0]] == [t_end]
    with pytest.raises(ValueError, match="snapshot times"):
        solve([0.0, 2.0 * t_end])
    # a run to t_end = inf would end at once in a Global it never reached
    for times in ([0.0], [0.0, 1.0], None):
        with pytest.raises(ValueError, match="t_end must be positive and finite"):
            solve(times, math.inf)

    t_end, solve = case(breaks=True)
    wanted = sample_times(t_end, t_end / 40)[::-1]
    snapshots, verdict = solve(wanted)
    assert isinstance(verdict, NumericalBreakdown) and 0.0 < verdict.time < t_end
    before = [t for t in sorted(wanted) if t < verdict.time]
    assert len(before) >= 2
    assert [s.t for s in snapshots] == before
