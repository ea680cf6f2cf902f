import numpy as np
import pytest

from critdamp import GasModel
from helpers import VacuumError, composite_simpson, density_from_enthalpy


def test_pressure_closed_form():
    g = GasModel(gamma=2.0, rho_bar=2.0)
    assert g.A == pytest.approx(0.25, abs=0)
    assert g.pressure(2.0) == pytest.approx(1.0, rel=1e-14)
    assert g.pressure(4.0) == pytest.approx(4.0, rel=1e-14)


@pytest.mark.parametrize("gamma,rho_bar", [(1.1, 0.5), (1.4, 1.0), (2.0, 2.0), (3.0, 0.3)])
def test_pressure_at_background_is_rho_bar_over_gamma(gamma, rho_bar):
    g = GasModel(gamma=gamma, rho_bar=rho_bar)
    assert g.pressure(rho_bar) == pytest.approx(rho_bar / gamma, rel=1e-13)


@pytest.mark.parametrize("rho_bar", [1e-300, 1e160, 1e300])
def test_pressure_at_an_extreme_background_density(rho_bar):
    # A * rho**gamma overflowed in rho**gamma once rho_bar passed about 1e154
    # and underflowed to 0 near 1e-300; the ratio form stays exact at
    # rho_bar and finite wherever p is
    g = GasModel(gamma=2.0, rho_bar=rho_bar)
    assert g.pressure(rho_bar) == rho_bar / 2.0
    assert g.pressure(np.array([0.5, 2.0]) * rho_bar).tolist() == [rho_bar / 8.0, 2.0 * rho_bar]


@pytest.mark.parametrize("gamma,rho_bar", [(1.1, 0.5), (1.4, 1.0), (2.0, 2.0), (3.0, 0.3)])
def test_unit_background_sound_speed(gamma, rho_bar):
    g = GasModel(gamma=gamma, rho_bar=rho_bar)
    assert g.sound_speed_sq(rho_bar) == pytest.approx(1.0, abs=1e-15)


def test_sound_speed_cases():
    assert GasModel(2.0, 2.0).sound_speed_sq(4.0) == pytest.approx(2.0, rel=1e-14)
    # frozen from the finite-difference oracle below
    assert GasModel(1.4, 1.0).sound_speed_sq(0.5) == pytest.approx(0.7578582832551991, rel=1e-12)


def test_sound_speed_matches_pressure_derivative():
    g = GasModel(gamma=1.4, rho_bar=1.0)
    h = 1e-6
    for rho in (0.5, 1.0, 2.5):
        fd = (g.pressure(rho + h) - g.pressure(rho - h)) / (2 * h)
        assert g.sound_speed_sq(rho) == pytest.approx(fd, rel=1e-8)


def test_enthalpy_values():
    g = GasModel(gamma=2.0, rho_bar=2.0)
    assert g.enthalpy(2.0) == 0.0
    assert g.enthalpy(3.0) == pytest.approx(0.5, rel=1e-13)


@pytest.mark.parametrize("gamma,rho_bar", [(1.4, 1.0), (2.0, 2.0), (3.0, 0.7)])
def test_enthalpy_matches_quadrature_of_derivative(gamma, rho_bar):
    # independent oracle: composite Simpson of c^2(rho)/rho from rho_bar
    g = GasModel(gamma=gamma, rho_bar=rho_bar)
    for rho in (0.5 * rho_bar, 1.5 * rho_bar, 3.0 * rho_bar):
        lo, hi = sorted((rho_bar, rho))
        oracle = composite_simpson(lambda s: g.sound_speed_sq(s) / s, lo, hi, 200_000)
        if rho < rho_bar:
            oracle = -oracle
        assert g.enthalpy(rho) == pytest.approx(oracle, abs=1e-10)


def test_enthalpy_monotone():
    g = GasModel(gamma=1.4, rho_bar=1.0)
    rhos = np.linspace(0.05, 5.0, 400)
    vals = g.enthalpy(rhos)
    assert np.all(np.diff(vals) > 0)


def test_density_from_enthalpy_values():
    g = GasModel(gamma=2.0, rho_bar=2.0)
    assert density_from_enthalpy(g, 0.0) == pytest.approx(2.0, abs=0)
    assert density_from_enthalpy(g, 0.5) == pytest.approx(3.0, rel=1e-13)


def test_density_from_enthalpy_root_oracle():
    from helpers import bisect_root

    g = GasModel(gamma=2.0, rho_bar=2.0)
    root = bisect_root(lambda rho: g.enthalpy(rho) - 0.5, 0.1, 50.0)
    assert density_from_enthalpy(g, 0.5) == pytest.approx(root, rel=1e-10)


@pytest.mark.parametrize("gamma", [1.1, 1.4, 2.0, 3.0])
def test_enthalpy_round_trip(gamma):
    g = GasModel(gamma=gamma, rho_bar=1.3)
    for factor in np.geomspace(0.01, 100.0, 41):
        rho = factor * g.rho_bar
        back = density_from_enthalpy(g, g.enthalpy(rho))
        assert back == pytest.approx(rho, rel=1e-12)


def test_vacuum_bound_raises():
    # gamma = 2 makes the bound -1/(gamma-1) exactly representable
    g2 = GasModel(gamma=2.0, rho_bar=1.0)
    with pytest.raises(VacuumError):
        density_from_enthalpy(g2, -1.0)
    g = GasModel(gamma=1.4, rho_bar=1.0)
    with pytest.raises(VacuumError):
        density_from_enthalpy(g, -1.0 / (g.gamma - 1.0))
    with pytest.raises(VacuumError):
        density_from_enthalpy(g, -10.0)


def test_pressure_excess_values():
    g = GasModel(gamma=2.0, rho_bar=2.0)
    assert g.pressure_excess(2.0) == 0.0
    assert g.pressure_excess(4.0) == pytest.approx(1.0, rel=1e-13)
    assert GasModel(1.4, 1.0).pressure_excess(0.3) == pytest.approx(0.1181001822644454, rel=1e-12)


def test_pressure_excess_gamma2_exact_square():
    g = GasModel(gamma=2.0, rho_bar=2.0)
    for rho in np.geomspace(0.02, 50.0, 60):
        assert g.pressure_excess(rho) == pytest.approx(g.A * (rho - 2.0) ** 2, rel=1e-13)


@pytest.mark.parametrize("rho_bar", [1e160, 1e300])
def test_pressure_excess_at_huge_background_density(rho_bar):
    # the scale rho_bar / gamma is finite where A * rho_bar**gamma overflows
    g = GasModel(gamma=2.0, rho_bar=rho_bar)
    assert g.pressure_excess(1.5 * rho_bar) == pytest.approx(0.125 * rho_bar, rel=1e-14)  # rho_bar d^2 / 2
    assert g.pressure_excess(1.1 * rho_bar) == pytest.approx(0.005 * rho_bar, rel=1e-12)  # the series branch
    rhos = rho_bar * np.array([0.3, 0.9, 1.2, 4.0])
    unit = GasModel(gamma=1.4, rho_bar=1.0).pressure_excess(rhos / rho_bar)
    assert GasModel(gamma=1.4, rho_bar=rho_bar).pressure_excess(rhos) == pytest.approx(rho_bar * unit, rel=1e-13)


@pytest.mark.parametrize("gamma", [1.1, 1.4, 2.0, 3.0])
def test_pressure_excess_nonnegative_dense(gamma):
    g = GasModel(gamma=gamma, rho_bar=1.0)
    rhos = np.geomspace(1e-6, 1e3, 4001)
    assert np.all(g.pressure_excess(rhos) >= 0.0)


def test_pressure_excess_stable_near_background():
    # tiny perturbations: the naive three-term difference would cancel badly
    g = GasModel(gamma=1.4, rho_bar=1.0)
    for d in (1e-3, 1e-6, 1e-9):
        expected = g.gamma * (g.gamma - 1.0) / 2.0 * d * d * g.A  # leading term, rho_bar=1
        assert g.pressure_excess(1.0 + d) == pytest.approx(expected, rel=1e-3)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        GasModel(gamma=1.0, rho_bar=1.0)
    with pytest.raises(ValueError):
        GasModel(gamma=1.4, rho_bar=0.0)
    g = GasModel(gamma=1.4, rho_bar=1.0)
    for fn in (g.pressure, g.sound_speed_sq, g.enthalpy, g.pressure_excess):
        with pytest.raises(ValueError):
            fn(0.0)
        with pytest.raises(ValueError):
            fn(np.array([1.0, -2.0]))
