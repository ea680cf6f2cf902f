import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from critdamp import (
    BurgersProblem,
    DampingLaw,
    FiniteLifespan,
    GasModel,
    Global,
    InitialProfile,
    RadialGrid,
    burgers,
    classify_lifespan,
    euler,
    init_state,
    run,
)
from critdamp.cli import main, run_experiment
from critdamp.config import MODES, ConfigError, parse_config
from critdamp.csvio import read_radial_snapshots
from critdamp.outcome import sample_times
from critdamp.profiles import BUMP_M1, sampled_profile
from helpers import parse_verdict_label, read_series


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def verdict_of(out_dir):
    first = read(os.path.join(out_dir, "verdict.txt")).splitlines()[0]
    assert first.startswith("verdict = ")
    return parse_verdict_label(first.removeprefix("verdict = "))


# ---------------------------------------------------------------- parsing

def test_parse_basic_and_comments():
    cfg = parse_config(
        """
        # a comment
        damping.lambda = 1.0
        damping.mu = 2.0   # trailing comment
        """,
        "burgers-lifespan",
    )
    law = cfg.damping()
    assert law.mu == 2.0 and law.lam == 1.0


def test_parse_unknown_key_suggests():
    with pytest.raises(ConfigError, match="damping.mu"):
        parse_config("dampling.mu = 2.0", "burgers-lifespan")


def test_parse_syntax_error_has_line_number():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("damping.mu = 1.0\nnot a setting\n", "euler-sim")


def test_flag_overrides_file():
    cfg = parse_config("damping.mu = 2.0", "burgers-lifespan", overrides={"damping.mu": "3.0"})
    assert cfg.damping().mu == 3.0


def test_type_and_invariant_errors_name_key():
    with pytest.raises(ConfigError, match="damping.mu"):
        parse_config("damping.mu = fast", "burgers-lifespan")
    with pytest.raises(ConfigError, match="run.cfl"):
        parse_config("run.cfl = 1.5", "euler-sim")
    with pytest.raises(ConfigError, match="profile.M0"):
        parse_config("profile.M0 = 2.0", "euler-sim")
    with pytest.raises(ConfigError, match="sweep.lambda"):
        parse_config("sweep.mu = 1.0\nsweep.epsilon = 0.001", "sweep")


def test_unknown_mode():
    with pytest.raises(ConfigError, match="mode"):
        parse_config("", "turbo")


@pytest.mark.parametrize("mode", ["euler-sim", "burgers-sim"])
def test_sample_count_is_capped(mode):
    # 1e12 / 0.5 samples would be listed (and snapshotted) before the first step
    with pytest.raises(ConfigError, match="run.monitor_cadence"):
        parse_config("", mode, {"run.t_end": "1e12"})
    with pytest.raises(ConfigError, match="run.monitor_cadence"):
        parse_config("", mode, {"run.t_end": "1", "run.monitor_cadence": "1e-300"})
    parse_config("", mode, {"run.t_end": "50000", "run.monitor_cadence": "0.5"})  # 100,000: allowed
    parse_config("", "criterion", {"run.t_end": "1e12"})  # no samples in this mode


# ---------------------------------------------------------------- modes

def test_lifespan_mode_writes_verdict(tmp_path):
    # a list-valued key, set though this mode reads none, is echoed as the
    # reprs of its values
    out = str(tmp_path / "v")
    cfg = parse_config(
        "damping.lambda = 1.0\ndamping.mu = 0.5\nprofile.epsilon = 0.1\n"
        f"sweep.lambda = 1,2\noutput.dir = {out}",
        "burgers-lifespan",
    )
    run_experiment(cfg)
    v = verdict_of(out)
    assert type(v).__name__ == "FiniteLifespan"
    body = read(os.path.join(out, "verdict.txt"))
    assert "damping.mu = 0.5" in body
    assert "sweep.lambda = 1.0,2.0" in body.splitlines()


def test_burgers_sim_outputs(tmp_path):
    out = str(tmp_path / "b")
    cfg = parse_config(
        "damping.lambda = 1.0\ndamping.mu = 2.0\nprofile.epsilon = 0.05\n"
        "run.t_end = 4.0\nrun.monitor_cadence = 1.0\ngrid.n_cells = 128\n"
        f"output.dir = {out}",
        "burgers-sim",
    )
    run_experiment(cfg)
    times, cols = read_series(os.path.join(out, "series.csv"))
    assert list(cols) == ["Q", "max_w", "max_dw_dx", "dt"]
    assert times[0] == 0.0 and times[-1] == 4.0
    # exact decay law holds in the emitted series
    beta = (1.0 + times) ** 2.0
    assert np.max(np.abs(cols["Q"] * beta / (cols["Q"][0]) - 1.0)) < 1e-10
    head = read(os.path.join(out, "snapshots.csv")).splitlines()[:2]
    assert head[0] == "t,x,w" and head[1].startswith("# t=")


def test_euler_sim_and_functionals_round_trip(tmp_path):
    out = str(tmp_path / "e")
    text = (
        "damping.lambda = 0.5\ndamping.mu = 1.0\nprofile.epsilon = 0.05\n"
        "run.t_end = 3.0\nrun.monitor_cadence = 0.5\ngrid.n_cells = 128\n"
        f"grid.r_max = 10.0\noutput.dir = {out}"
    )
    run_experiment(parse_config(text, "euler-sim"))
    series_path = os.path.join(out, "series.csv")
    original = read(series_path)
    header = original.splitlines()[0]
    assert header == "t,L,H,E0,min_rho,max_u,max_du_dr,dt"

    run_experiment(parse_config(text, "functionals"))
    assert read(series_path) == original  # byte-identical reproduction
    times, cols = read_series(series_path)
    assert times[-1] == 3.0 and np.all(np.isfinite(cols["E0"]))


def test_snapshot_round_trip_preserves_values(tmp_path):
    out = str(tmp_path / "s")
    text = (
        "damping.lambda = 0.5\nprofile.epsilon = 0.05\nrun.t_end = 2.0\n"
        f"run.monitor_cadence = 1.0\ngrid.n_cells = 64\ngrid.r_max = 8.0\noutput.dir = {out}"
    )
    run_experiment(parse_config(text, "euler-sim"))
    states = read_radial_snapshots(os.path.join(out, "snapshots.csv"), rho_bar=1.0)
    assert [s.t for s in states] == [0.0, 1.0, 2.0]
    assert states[0].grid.n_cells == 64
    assert np.all(states[0].rho > 0)


def test_criterion_mode(tmp_path):
    out = str(tmp_path / "c")
    cfg = parse_config(
        f"run.t_end = 10.0\nprofile.name = bump\noutput.dir = {out}", "criterion"
    )
    run_experiment(cfg)
    body = read(os.path.join(out, "criterion.txt"))
    assert "satisfied = false" in body  # bump carries zero initial velocity
    assert "H0 = 0.0" in body


def test_criterion_at_a_huge_horizon(tmp_path):
    # the integral to T* = 1e30 against mpmath (0.014329871058273749);
    # H0 = 0.655 times it stays below 1.  Quadrature in tau rather than in
    # log time returned about 1e10 here, and a satisfied verdict.
    out = str(tmp_path / "c")
    rc = main(["criterion", "--profile.name", "outgoing-shell", "--profile.epsilon", "1.0",
               "--damping.lambda", "0.5", "--run.t_end", "1e30", "--output.dir", out])
    assert rc == 0
    fields = dict(line.split(" = ") for line in read(os.path.join(out, "criterion.txt")).splitlines())
    assert float(fields["integral_value"]) == pytest.approx(0.014329871058273749, rel=1e-13)
    assert fields["satisfied"] == "false"


@pytest.mark.parametrize("name", ["bump", "outgoing-shell"])
def test_criterion_overflowing_profile_is_config_error(tmp_path, capsys, name):
    # eps^2 r^3 rho0 u0 overflows: a config error, not a quadrature of nan to its cap
    out = tmp_path / "out"
    rc = main(["criterion", "--profile.name", name, "--profile.epsilon", "1e300", "--output.dir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config-error: key 'profile.name':")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("m", ["1e-100"])
def test_criterion_tiny_support_is_config_error(tmp_path, capsys, m):
    # alpha(t) grows like (t + M)^5: at M = 1e-100 alpha(0) underflows to 0;
    # a config error, not a runtime-error
    out = tmp_path / "out"
    assert main(["criterion", "--profile.M", m, "--output.dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config-error: key 'profile.M':")
    assert list(out.iterdir()) == []


def test_criterion_tiny_support_is_integrated_in_units_of_m(tmp_path, capsys):
    # the integrand's spike of width M at t = 0 is integrated in log(1 + t/M),
    # up to T* = 1e300 too, where t/M passes the float range.  The integral
    # scales as M^-4 (L0 as M^3): M^4 times it is the same at every M and T*,
    # and the run warns of nothing
    scaled = []
    for m, t_end in [("1e-12", "10"), ("1e-14", "10"), ("1e-16", "10"), ("1e-20", "10"), ("1e-60", "10"),
                     ("1e-12", "1e300"), ("1e-20", "1e300")]:
        out = str(tmp_path / f"{m}-{t_end}")
        assert main(["criterion", "--profile.M", m, "--run.t_end", t_end, "--output.dir", out]) == 0
        fields = dict(line.split(" = ") for line in read(os.path.join(out, "criterion.txt")).splitlines())
        scaled.append(float(fields["integral_value"]) * float(m) ** 4)
    assert capsys.readouterr().err == ""
    assert scaled == pytest.approx([scaled[0]] * len(scaled), rel=1e-12)


def test_criterion_near_the_smallest_support_answers_or_is_config_error(tmp_path, capsys):
    # alpha(0) ~ M^5 nears 1/float max here: from M = 1.5e-62 to 3e-62 the
    # quadrature's sums of integrand values near 1/alpha(0) overflowed
    # (runtime-error, exit 1).  Each M answers finitely, on the M^-4 scaling
    # of the test above, or is a profile.M config error
    scaled = []
    for m in np.geomspace(1e-62, 1e-61, 12):
        for t_end in ("10", "1e300"):
            out = str(tmp_path / f"{m!r}-{t_end}")
            rc = main(["criterion", "--profile.M", repr(float(m)), "--run.t_end", t_end, "--output.dir", out])
            err = capsys.readouterr().err
            assert rc in (0, 2), err
            if rc == 2:
                assert err.startswith("config-error: key 'profile.M':")
                continue
            fields = dict(line.split(" = ") for line in read(os.path.join(out, "criterion.txt")).splitlines())
            scaled.append(float(fields["integral_value"]) * float(m) ** 4)
    assert len(scaled) >= 16
    assert scaled == pytest.approx([scaled[-1]] * len(scaled), rel=1e-12)


@pytest.mark.parametrize("eps, rc", [("1e308", 2), ("1.7e308", 2), ("1e200", 0)])
def test_burgers_sim_overflowing_series_is_an_epsilon_config_error(tmp_path, capsys, eps, rc):
    # the series' Q sums w = eps w0 over the cells before it multiplies by dx:
    # past the float range it is a config error; 1e200 stops at a CFL collapse
    out = tmp_path / "out"
    assert main(["burgers-sim", "--profile.epsilon", eps, "--run.t_end", "1", "--grid.n_cells", "64",
                 "--output.dir", str(out)]) == rc
    if rc:
        assert capsys.readouterr().err.startswith("config-error: key 'profile.epsilon':")
        assert list(out.iterdir()) == []
    else:
        assert "CflCollapse" in (out / "verdict.txt").read_text()


@pytest.mark.parametrize("name", ["bump", "outgoing-shell"])
def test_criterion_at_a_huge_epsilon(tmp_path, capsys, name):
    # H0 (order eps^2) and L0 (order eps) are finite, so the quadrature must
    # resolve them: an absolute 1e-12 tolerance lies below their round-off,
    # and the quadrature used to run to its cap and end in a runtime-error
    fields = {}
    for eps in ("1e35", "1e150", "1e154"):
        out = str(tmp_path / eps)
        assert main(["criterion", "--profile.name", name, "--profile.epsilon", eps, "--output.dir", out]) == 0
        fields[float(eps)] = dict(line.split(" = ") for line in read(os.path.join(out, "criterion.txt")).splitlines())
    assert capsys.readouterr().err == ""
    h0 = {eps: float(f["H0"]) / eps**2 for eps, f in fields.items()}
    l0 = {eps: float(f["L0"]) / eps for eps, f in fields.items()}
    assert h0[1e150] == pytest.approx(h0[1e35], rel=1e-13) and h0[1e154] == pytest.approx(h0[1e35], rel=1e-13)
    assert l0[1e150] == pytest.approx(l0[1e35], rel=1e-13) and l0[1e154] == pytest.approx(l0[1e35], rel=1e-13)
    assert (h0[1e35] > 0) == (name == "outgoing-shell")  # bump carries zero initial velocity


def test_criterion_at_a_tiny_epsilon(tmp_path, capsys):
    # H0 and L0 are resolved relative to their own size: an absolute floor of
    # 1e-12 made L0/eps read 12% high at eps = 1e-10.  L0/eps is exact in eps,
    # and H0/eps is, up to its order-eps^2 term
    fields = {}
    for eps in ("1e-4", "1e-20", "1e-60", "1e-100"):
        out = str(tmp_path / eps)
        assert main(["criterion", "--profile.name", "outgoing-shell", "--profile.M0", "0.3",
                     "--profile.epsilon", eps, "--output.dir", out]) == 0
        fields[float(eps)] = dict(line.split(" = ") for line in read(os.path.join(out, "criterion.txt")).splitlines())
    assert capsys.readouterr().err == ""
    h0 = {eps: float(f["H0"]) / eps for eps, f in fields.items()}
    l0 = {eps: float(f["L0"]) / eps for eps, f in fields.items()}
    for eps in (1e-60, 1e-100):
        assert h0[eps] == pytest.approx(h0[1e-20], rel=1e-13) and l0[eps] == pytest.approx(l0[1e-20], rel=1e-13)
    assert l0[1e-20] == pytest.approx(l0[1e-4], rel=1e-12)


def test_criterion_at_the_end_of_the_float_range(tmp_path, capsys):
    # alpha(tau) overflows to inf near T* = 1e308, its limit: the integrand
    # tends to 0 there, so the run warns of nothing and the tail adds nothing
    fields = {}
    for t_end in ("1e308", "1e30"):
        out = str(tmp_path / t_end)
        assert main(["criterion", "--run.t_end", t_end, "--output.dir", out]) == 0
        fields[t_end] = dict(line.split(" = ") for line in read(os.path.join(out, "criterion.txt")).splitlines())
    assert capsys.readouterr().err == ""
    assert fields["1e308"]["T_star"] == "1e+308" and fields["1e308"]["satisfied"] == "false"
    assert float(fields["1e308"]["integral_value"]) == pytest.approx(
        float(fields["1e30"]["integral_value"]), rel=1e-13)


def test_sweep_mode_matches_dichotomy(tmp_path):
    out = str(tmp_path / "sw")
    cfg = parse_config(
        "sweep.lambda = 0,1,2\nsweep.mu = 0.5,2\nsweep.epsilon = 0.001\n"
        f"output.dir = {out}",
        "sweep",
    )
    run_experiment(cfg)
    rows = read(os.path.join(out, "sweep.csv")).splitlines()
    assert rows[0] == "lambda,mu,epsilon,verdict,T_or_horizon"
    verdicts = {}
    for row in rows[1:]:
        lam, mu, eps, verdict, t_val = row.split(",")
        verdicts[(float(lam), float(mu))] = verdict
    for (lam, mu), verdict in verdicts.items():
        expect = "Global" if (lam < 1 or (lam == 1 and mu > 1)) else "FiniteLifespan"
        assert verdict == expect, (lam, mu, verdict)


def test_sweep_without_damping_is_exact(tmp_path):
    # mu = 0 gives I(t) = t for every lambda, so T = 1/(eps m) exactly
    out = str(tmp_path / "sw")
    run_experiment(parse_config(
        f"sweep.lambda = 0,1,1.5,3\nsweep.mu = 0\nsweep.epsilon = 0.5\noutput.dir = {out}", "sweep"))
    rows = [row.split(",") for row in read(os.path.join(out, "sweep.csv")).splitlines()[1:]]
    assert [row[0] for row in rows] == ["0.0", "1.0", "1.5", "3.0"]
    assert {row[3] for row in rows} == {"FiniteLifespan"}
    assert {float(row[4]) for row in rows} == {1.0 / (0.5 * BUMP_M1)}


def test_deterministic_outputs(tmp_path):
    text = (
        "damping.lambda = 0.5\nprofile.epsilon = 0.05\nrun.t_end = 2.0\n"
        "run.monitor_cadence = 0.5\ngrid.n_cells = 64\ngrid.r_max = 8.0\noutput.dir = {}"
    )
    blobs = []
    for name in ("d1", "d2"):
        out = str(tmp_path / name)
        run_experiment(parse_config(text.format(out), "euler-sim"))
        blobs.append((read(os.path.join(out, "series.csv")),
                      read(os.path.join(out, "snapshots.csv"))))
    assert blobs[0] == blobs[1]


# ---------------------------------------------------------------- CLI entry

def test_cli_success_and_exit_codes(tmp_path, capsys):
    out = str(tmp_path / "cli")
    rc = main(["burgers-lifespan", "--output.dir", out, "--damping.mu", "0.5",
               "--damping.lambda", "1.0", "--profile.epsilon", "0.1"])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "verdict.txt"))

    rc = main(["euler-sim", "--dampling.mu", "3.0"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config-error:") and "damping.mu" in err

    rc = main(["euler-sim", "--config", str(tmp_path / "missing.cfg")])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("io-error:")


@pytest.mark.parametrize("argv", [[], ["-h"], ["--help"]], ids=["no-argument", "-h", "--help"])
def test_cli_usage_lists_every_mode(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    message = str(exc.value.code)
    assert message.startswith("usage: critdamp <mode>")
    assert message.splitlines()[-1] == "modes: " + ", ".join(MODES)


def test_cli_config_file_plus_flag_precedence(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("damping.mu = 2.0\ndamping.lambda = 1.0\nprofile.epsilon = 0.1\n")
    out = str(tmp_path / "p")
    rc = main(["burgers-lifespan", "--config", str(cfg_path), "--damping.mu", "3.0",
               "--output.dir", out])
    assert rc == 0
    assert "damping.mu = 3.0" in read(os.path.join(out, "verdict.txt"))


@pytest.mark.parametrize("argv, key", [
    (["burgers-lifespan", "--damping.lambda", "inf"], "damping.lambda"),
    (["criterion", "--run.t_end", "inf"], "run.t_end"),
    (["euler-sim", "--run.t_end", "inf"], "run.t_end"),
    (["burgers-sim", "--run.t_end", "inf"], "run.t_end"),
])
def test_cli_non_finite_number_is_config_error(tmp_path, capsys, argv, key):
    out = str(tmp_path / "inf")
    rc = main(argv + ["--output.dir", out])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"config-error: key {key!r}:")
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv, key", [
    (["--grid.r_max", "0"], "grid.r_max"),
    (["--grid.r_max", "-1"], "grid.r_max"),
    # the auto-sized r_max = M + 2 (t_end + 1) overflows to inf
    (["--run.t_end", "1e308", "--run.monitor_cadence", "1e304"], "grid.r_max"),
    # eps**2 * rho0 overflows, and inf * (u0 = 0) makes NaN cell averages
    (["--profile.epsilon", "1e300"], "profile.name"),
    (["--profile.epsilon", "1e200"], "profile.name"),
    (["--profile.name", "shell", "--profile.M0", "0.3", "--profile.epsilon", "1e300"], "profile.name"),
    # c^2 = (rho/rho_bar)^(gamma-1) is about 1e299 in the bump: the horizon
    # check takes the wave speed alone, as (rho/rho_bar)^gamma overflows
    (["--gas.rho_bar", "1e-300"], "grid.r_max"),
    # c^2 = exp((gamma - 1) log(rho/rho_bar)) overflows in the bump: the
    # horizon check takes that wave speed as inf, with no numpy warning
    (["--gas.gamma", "1e300", "--grid.n_cells", "64"], "grid.r_max"),
    # the same away from rho_bar = 1, where A = 1/(gamma rho_bar**(gamma - 1))
    # overflows (rho_bar 2) or divides by zero (rho_bar 0.5) in Python floats
    (["--gas.gamma", "1e300", "--gas.rho_bar", "2", "--grid.n_cells", "64"], "grid.r_max"),
    (["--gas.gamma", "1e300", "--gas.rho_bar", "0.5", "--grid.n_cells", "64"], "grid.r_max"),
    # rho_bar / gamma rounds to 0, so the pressure (rho_bar / gamma) x**gamma
    # is 0 * inf: the horizon check reads only the wave speed, with no numpy warning
    (["--gas.rho_bar", "5e-324", "--grid.n_cells", "64"], "grid.r_max"),
    # r^3, the monitors' weight, overflows on the grid (H was nan in every row) ...
    (["--grid.r_max", "1e150", "--grid.n_cells", "64"], "grid.r_max"),
    (["--grid.r_max", "1e200"], "grid.r_max"),
    (["--run.t_end", "1e160", "--run.monitor_cadence", "1e156"], "grid.r_max"),  # auto r_max 2e160
    # ... or r^2 dr underflows, so 1/(r^2 dr) is inf
    (["--grid.r_max", "1e-300", "--profile.M", "1e-301", "--run.t_end", "1e-310"], "grid.r_max"),
    # 0.5 (p_l + p_r) overflows at the background pressure rho_bar / gamma
    (["--gas.rho_bar", "1.7e308", "--gas.gamma", "1.1", "--profile.epsilon", "0", "--grid.n_cells", "64"],
     "gas.rho_bar"),
], ids=["r_max-zero", "r_max-negative", "r_max-auto-overflow", "bump-1e300", "bump-1e200", "shell-1e300",
        "rho_bar-1e-300", "gamma-1e300", "gamma-1e300-rho_bar-2", "gamma-1e300-rho_bar-0.5", "rho_bar-5e-324",
        "r_max-1e150-r_cubed", "r_max-1e200", "r_max-auto-2e160", "r_max-1e-300-volume", "rho_bar-1.7e308-gamma-1.1"])
def test_euler_sim_grid_and_profile_faults_are_config_errors(tmp_path, capsys, argv, key):
    out = tmp_path / "out"
    rc = main(["euler-sim", "--run.t_end", "1", "--output.dir", str(out)] + argv)
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"config-error: key {key!r}:")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("rho_bar", ["1e160", "1e300"])
def test_euler_sim_at_a_huge_background_density(tmp_path, capsys, rho_bar):
    # the pressure A * rho**gamma overflowed in rho**gamma here, a
    # runtime-error (RuntimeWarnings are errors in this suite)
    out = str(tmp_path / "out")
    rc = main(["euler-sim", "--gas.rho_bar", rho_bar, "--run.t_end", "1", "--grid.n_cells", "64",
               "--output.dir", out])
    assert capsys.readouterr().err == ""
    assert rc == 0
    assert verdict_of(out) == Global()


def test_overflowing_e0_weight_is_a_lambda_config_error(tmp_path, capsys):
    # E0's weight (1 + t)**(2 lambda) passes the float range once
    # 2 lambda log(1 + t) > 709.78: at lambda 120 first at the sample t = 18.5
    out = str(tmp_path / "out")
    argv = ["--run.t_end", "20", "--grid.n_cells", "64", "--output.dir", out]
    message = "config-error: key 'damping.lambda': the E0 weight (1 + t)**(2 lambda) overflows at t=18.5\n"
    assert main(["euler-sim", "--damping.lambda", "120"] + argv) == 2
    assert capsys.readouterr().err == message
    assert os.listdir(out) == []
    assert main(["euler-sim", "--damping.lambda", "116"] + argv) == 0  # 232 log(21) < 709.78
    assert main(["functionals", "--damping.lambda", "116"] + argv) == 0
    assert main(["functionals", "--damping.lambda", "120"] + argv) == 2
    assert capsys.readouterr().err == message


def test_burgers_and_euler_sim_share_sample_times(tmp_path):
    times = {}
    for mode in ("burgers-sim", "euler-sim"):
        out = str(tmp_path / mode)
        rc = main([mode, "--run.t_end", "0.7", "--run.monitor_cadence", "0.1",
                   "--grid.n_cells", "64", "--output.dir", out])
        assert rc == 0
        times[mode], _ = read_series(os.path.join(out, "series.csv"))
    assert times["burgers-sim"].tolist() == times["euler-sim"].tolist()
    assert times["euler-sim"][-1] == 0.7 and len(times["euler-sim"]) == 8


@pytest.mark.parametrize("mode", ["burgers-sim", "euler-sim"])
def test_last_series_row_is_t_end_when_cadence_rounds_short(tmp_path, mode):
    out = str(tmp_path / mode)
    rc = main([mode, "--run.t_end", "0.9", "--run.monitor_cadence", "0.3",
               "--grid.n_cells", "64", "--output.dir", out])
    assert rc == 0
    times, _ = read_series(os.path.join(out, "series.csv"))
    assert times.tolist() == [0.0, 0.3, 0.6, 0.9]
    assert read(os.path.join(out, "series.csv")).splitlines()[-1].startswith("0.9,")


# ---------------------------------------------------------------- input files

def write_profile(path, header, columns):
    """A profile file with comment and empty lines before and inside the table."""
    rows = [",".join(repr(float(v)) for v in row) for row in zip(*columns)]
    half = len(rows) // 2
    path.write_text("# sampled profile\n\n# columns below\n" + header + "\n"
                    + "\n".join(rows[:half]) + "\n\n# second half\n" + "\n".join(rows[half:]) + "\n\n")


def test_line_profile_file_matches_library(tmp_path):
    xs = np.linspace(-1.0, 1.0, 41)
    ws = (1.0 - xs**2) ** 2
    write_profile(tmp_path / "line.csv", "x,w0", (xs, ws))
    out = str(tmp_path / "out")
    rc = main(["burgers-lifespan", "--profile.file", str(tmp_path / "line.csv"), "--profile.epsilon", "0.2",
               "--damping.mu", "0.5", "--damping.lambda", "1.0", "--output.dir", out])
    assert rc == 0
    value, deriv = sampled_profile(xs, ws)
    expected = classify_lifespan(BurgersProblem(value, deriv, (-1.0, 1.0), 0.2, DampingLaw(0.5, 1.0)))
    assert type(expected).__name__ == "FiniteLifespan"
    assert verdict_of(out) == expected


def test_line_profile_file_lifespan_takes_its_exact_slope(tmp_path):
    # a segment of slope -1e7, narrower than any scan spacing of the support
    (tmp_path / "line.csv").write_text("x,w0\n0,0\n1,1\n1.0000001,0\n2,0\n")
    args = ["--profile.file", str(tmp_path / "line.csv"), "--damping.mu", "0.5", "--damping.lambda", "1"]
    out = tmp_path / "out"
    assert main(["burgers-lifespan", "--profile.epsilon", "0.1", "--output.dir", str(out)] + args) == 0
    verdict = verdict_of(out)
    assert isinstance(verdict, FiniteLifespan)
    assert verdict.lifespan == pytest.approx(1e-6, rel=1e-6)
    assert main(["sweep", "--sweep.lambda", "1", "--sweep.mu", "0.5", "--sweep.epsilon", "0.1",
                 "--output.dir", str(out)] + args) == 0
    row = read(out / "sweep.csv").splitlines()[1].split(",")
    assert row[3:] == ["FiniteLifespan", repr(verdict.lifespan)]


def test_burgers_sim_span_that_cuts_the_support_is_config_error(tmp_path, capsys):
    # the bump's support is (-1, 1); a run on (-0.5, 0.5) would lose Q
    out = tmp_path / "out"
    rc = main(["burgers-sim", "--profile.epsilon", "0.1", "--damping.mu", "0", "--damping.lambda", "0",
               "--run.t_end", "10", "--run.monitor_cadence", "5", "--grid.n_cells", "512",
               "--grid.x_lo", "-0.5", "--grid.x_hi", "0.5", "--output.dir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config-error: key 'grid.x_lo':")
    assert list(out.iterdir()) == []


def test_line_modes_never_scan_a_slope(tmp_path, monkeypatch):
    # the bump's m is BUMP_M1 / M in closed form, a file's comes from its segments
    def forbidden(problem):
        raise AssertionError("max_negative_slope called")

    monkeypatch.setattr("critdamp.burgers.max_negative_slope", forbidden)
    (tmp_path / "triangle.csv").write_text("x,w0\n-1,0\n0,1\n1,0\n")
    sweep = ["--sweep.lambda", "1,2", "--sweep.mu", "0.5,2", "--sweep.epsilon", "0.1,0.5"]
    sim = ["--run.t_end", "1", "--run.monitor_cadence", "0.5", "--grid.n_cells", "64"]
    for profile in ([], ["--profile.file", str(tmp_path / "triangle.csv")]):
        out = ["--output.dir", str(tmp_path / "out")]
        assert main(["sweep"] + sweep + profile + out) == 0
        assert main(["burgers-lifespan"] + profile + out) == 0
        assert main(["burgers-sim"] + sim + profile + out) == 0


def test_bump_slope_that_overflows_is_config_error(tmp_path, capsys):
    # BUMP_M1 / M passes the float range below M of about 4.4e-309
    out = tmp_path / "out"
    for mode in ("sweep", "burgers-lifespan", "burgers-sim"):
        for m in ("1e-310", "5e-324"):
            args = ["--sweep.lambda", "2", "--sweep.mu", "1", "--sweep.epsilon", "0.5"] if mode == "sweep" else []
            assert main([mode, "--profile.M", m, "--output.dir", str(out)] + args) == 2
            assert capsys.readouterr().err.startswith("config-error: key 'profile.M':")
    assert list(out.iterdir()) == []
    assert main(["sweep", "--profile.M", "4.5e-309", "--sweep.lambda", "2", "--sweep.mu", "1",
                 "--sweep.epsilon", "0.5", "--output.dir", str(out)]) == 0


@pytest.mark.parametrize("mode, eps, M", [
    ("sweep", "1e10", "1e-300"), ("sweep", "1e300", "1e-10"), ("burgers-lifespan", "1e300", "1e-10"),
])
def test_lifespan_where_eps_m_overflows_is_one_over_eps_m(tmp_path, mode, eps, M):
    # eps * m = 8e309 overflows; T = 1/(eps m) = 1.25e-310 is a subnormal,
    # and there I(t) = t to the last bit, at every lambda
    mp = pytest.importorskip("mpmath")
    out = tmp_path / "out"
    if mode == "sweep":
        args = ["--sweep.epsilon", eps, "--sweep.lambda", "0,2", "--sweep.mu", "1"]
    else:
        args = ["--profile.epsilon", eps]
    assert main([mode, "--profile.M", M, "--output.dir", str(out)] + args) == 0
    if mode == "sweep":
        rows = [row.split(",") for row in read(out / "sweep.csv").splitlines()[1:]]
        assert [row[3] for row in rows] == ["FiniteLifespan"] * 2
        lifespans = [float(row[4]) for row in rows]
    else:
        lifespans = [verdict_of(out).lifespan]
    exact = 1 / (mp.mpf(eps) * (mp.mpf(BUMP_M1) / mp.mpf(M)))
    for t in lifespans:
        assert 0.0 < t < 2.0**-1022 and abs(t - float(exact)) <= 2.0**-1074


@pytest.mark.parametrize("mode, args, eps", [
    ("burgers-lifespan", ["--damping.lambda", "0.9999999999999999", "--damping.mu", "1"], 0.01),
    ("sweep", ["--sweep.lambda", "0.9999999999999999", "--sweep.mu", "1", "--sweep.epsilon", "1"], 1.0),
])
def test_lifespan_at_the_last_lambda_below_one(tmp_path, mode, args, eps):
    # lambda = 1 - 2^-53, mu = 1: s = 1/(1 - lambda) = 2^53 and s + 1 rounds
    # to s, so I(inf) is a quadrature.  With a = 2^-53 and L = log(1 + T),
    # I(T) = L - a L^3/6 + ..., so T is lambda = 1's expm1(1/(eps m)) to
    # a L^3/6 relative: 3.6e-11 at eps = 0.01, below an ulp at eps = 1
    out = tmp_path / "out"
    assert main([mode, "--output.dir", str(out)] + args) == 0
    if mode == "sweep":
        (row,) = [line.split(",") for line in read(out / "sweep.csv").splitlines()[1:]]
        assert row[3] == "FiniteLifespan"
        lifespan = float(row[4])
    else:
        lifespan = verdict_of(out).lifespan
    assert lifespan == pytest.approx(np.expm1(1.0 / (eps * BUMP_M1)), rel=1e-9)


def test_lifespan_below_the_float_range_is_an_epsilon_config_error(tmp_path, capsys):
    # 1/(eps m) = 1.25e-600 is no float; beside mu = 1e300 the lifespan is
    # not 1/(eps m) = 1.25e-310, and no closed form gives it
    out = tmp_path / "out"
    assert main(["burgers-lifespan", "--profile.M", "1e-300", "--profile.epsilon", "1e300",
                 "--output.dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config-error: key 'profile.epsilon':")
    assert main(["sweep", "--profile.M", "1e-300", "--sweep.epsilon", "1,1e300", "--sweep.lambda", "0,2",
                 "--sweep.mu", "1", "--output.dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config-error: key 'sweep.epsilon':")
    assert main(["burgers-lifespan", "--profile.M", "1e-10", "--profile.epsilon", "1e300", "--damping.mu", "1e300",
                 "--output.dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config-error: key 'profile.epsilon':")
    assert list(out.iterdir()) == []


def test_too_small_automatic_r_max_says_it_was_sized_automatically(tmp_path, capsys):
    # the automatic r_max = M + 2 (t_end + 1) = 23 assumes wave speeds near
    # 2, and the eps = 3 shell's are near 2.5: the error names the rule and
    # the key to set, which an r_max the user set does not need
    args = ["euler-sim", "--profile.name", "outgoing-shell", "--profile.M0", "0.3", "--run.t_end", "10",
            "--grid.n_cells", "256", "--output.dir", str(tmp_path / "out")]
    assert main(args + ["--profile.epsilon", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config-error: key 'grid.r_max': grid.r_max=23.0 too small:")
    assert err.rstrip().endswith("; grid.r_max is unset and was sized automatically as support + 2 (run.t_end + 1): "
                                 "set grid.r_max")
    assert main(args + ["--profile.epsilon", "3", "--grid.r_max", "23"]) == 2
    assert "automatically" not in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []
    assert main(args + ["--profile.epsilon", "1"]) == 0


def test_radial_profile_file_ends_at_its_last_r(tmp_path, capsys):
    # rho0 = cos(pi r / 6)^2 on 0 <= r <= 2.95, far past the default profile.M = 1
    rs = np.arange(60) * 0.05
    write_profile(tmp_path / "radial.csv", "r,rho0,u0", (rs, np.cos(np.pi * rs / 6) ** 2, 0.0 * rs))
    args = ["--profile.file", str(tmp_path / "radial.csv"), "--profile.epsilon", "0.3", "--run.t_end", "5",
            "--output.dir", str(tmp_path / "out")]
    # from r = 2.95 the wave reaches r_max = 8.2 before t = 5 (from r = 1 it did not)
    assert main(["euler-sim", "--grid.r_max", "8.2", "--grid.n_cells", "256"] + args) == 2
    assert capsys.readouterr().err.startswith("config-error: key 'grid.r_max':")
    # L0 over the whole table, not over r < 1 (1.0629)
    assert main(["criterion"] + args) == 0
    fields = dict(line.split(" = ") for line in read(tmp_path / "out" / "criterion.txt").splitlines())
    assert float(fields["L0"]) == pytest.approx(6.65315, rel=1e-6)


def test_radial_profile_file_matches_library(tmp_path):
    rs = np.linspace(0.0, 1.0, 41)
    rho0s, u0s = (1.0 - rs**2) ** 3, 0.5 * rs * (1.0 - rs**2) ** 2
    write_profile(tmp_path / "radial.csv", "r,rho0,u0", (rs, rho0s, u0s))
    out = str(tmp_path / "out")
    rc = main(["euler-sim", "--profile.file", str(tmp_path / "radial.csv"), "--profile.epsilon", "0.1",
               "--grid.r_max", "8", "--grid.n_cells", "64", "--run.t_end", "1",
               "--output.dir", out])
    assert rc == 0
    (rho0, _), (u0, _) = sampled_profile(rs, rho0s), sampled_profile(rs, u0s)
    gas = GasModel(2.0, 1.0)
    state = init_state(gas, InitialProfile(rho0, u0, 0.1, 1.0), RadialGrid(8.0, 64))
    law = DampingLaw(1.0, 1.0)
    snapshots, _ = run(gas, law, state, 1.0, snapshot_times=sample_times(1.0, 0.5))
    expected = euler.series(snapshots, gas, law, 0.4)
    times, cols = read_series(os.path.join(out, "series.csv"))
    assert times.tolist() == [s.t for s in snapshots]
    assert list(cols) == list(expected)
    for name, values in expected.items():
        assert cols[name].tolist() == values.tolist()


SNAPSHOT_HEAD = "t,r,rho,mom\n# t=0.0\n"
NEGATIVE_PROFILE = "r,rho0,u0\n0,0,0\n0.5,-50,0\n1,0,0\n"  # rho_bar + 0.1 * rho0 < 0 mid-support


def snapshot_32(rho):
    """A valid 32-cell snapshot block (dr = 1) whose density at r = 15.5 is ``rho``."""
    rows = [f"0.0,{i + 0.5!r},{rho if i == 15 else '1.0'},0.0" for i in range(32)]
    return SNAPSHOT_HEAD + "\n".join(rows) + "\n"


@pytest.mark.parametrize("mode, file, text, key", [
    ("burgers-lifespan", "profile", "x,w0\n0,abc\n", "profile.file"),
    ("burgers-lifespan", "profile", "x,w0\n", "profile.file"),
    ("burgers-lifespan", "profile", "x,w0\n0,1\n", "profile.file"),
    # w0 would jump to 0 past the samples
    ("burgers-lifespan", "profile", "x,w0\n0,0\n1,1\n", "profile.file"),
    ("sweep", "profile", "x,w0\n0,1\n1,0\n", "profile.file"),
    ("euler-sim", "profile", "r,rho0,u0\n0,1,0\n1,1,0\n1,1,0\n", "profile.file"),
    ("functionals", "snapshots.csv", SNAPSHOT_HEAD + "0.0,0.5,1.0,0.0\n0.0,1.5,1.0\n", "output.dir"),
    ("functionals", "snapshots.csv", "t,r,rho,mom\n0.0,0.5,1.0,0.0\n0.0,1.5,1.0,0.0\n", "output.dir"),
    ("euler-sim", "profile", NEGATIVE_PROFILE, "profile.file"),
    ("criterion", "profile", NEGATIVE_PROFILE, "profile.file"),
    ("functionals", "snapshots.csv", snapshot_32("nan"), "output.dir"),
    ("functionals", "snapshots.csv", snapshot_32("-1.0"), "output.dir"),
    # a line of spaces is skipped before the first data row, and malformed after it
    ("functionals", "snapshots.csv", snapshot_32("1.0").replace("\n0.0,1.5,", "\n   \n0.0,1.5,"), "output.dir"),
    # non-finite samples, and a slope past the float range, in every 1-D mode
    ("burgers-lifespan", "profile", "x,w0\n0,0\n0.5,nan\n1,0\n", "profile.file"),
    ("sweep", "profile", "x,w0\n0,0\n0.5,nan\n1,0\n", "profile.file"),
    ("burgers-sim", "profile", "x,w0\n0,0\n0.5,nan\n1,0\n", "profile.file"),
    ("burgers-lifespan", "profile", "x,w0\n0,0\n0.5,inf\n1,0\n", "profile.file"),
    ("burgers-lifespan", "profile", "x,w0\n0,0\n1e-300,1e300\n1,0\n", "profile.file"),
    ("euler-sim", "profile", "r,rho0,u0\n0,1,0\n0.5,nan,0\n1,0,0\n", "profile.file"),
    # a radial table ends at its last r, which must be positive
    ("criterion", "profile", "r,rho0,u0\n-1,0,0\n0,0,0\n", "profile.file"),
], ids=["non-numeric-cell", "header-only", "single-row", "last-w0-not-zero", "first-w0-not-zero",
        "radial-repeated-abscissa", "three-field-row", "no-block-marker",
        "negative-initial-density", "negative-initial-mass", "snapshot-nan-density", "snapshot-negative-density",
        "snapshot-whitespace-only-row", "nan-w0-lifespan", "nan-w0-sweep", "nan-w0-sim", "inf-w0-lifespan",
        "overflowing-slope", "nan-rho0", "nonpositive-last-r"])
def test_malformed_input_file_is_config_error(tmp_path, capsys, mode, file, text, key):
    out = tmp_path / "out"
    out.mkdir()
    path = out / file
    path.write_text(text)
    argv = [mode, "--output.dir", str(out)]
    if key == "profile.file":
        argv += ["--profile.file", str(path), "--profile.epsilon", "0.1"]
    if mode == "sweep":
        argv += ["--sweep.lambda", "1", "--sweep.mu", "1", "--sweep.epsilon", "0.1"]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"config-error: key {key!r}:")
    assert str(path) in err


@pytest.mark.parametrize("argv, files, key", [
    (["burgers-sim", "--grid.x_lo", "-1"], {}, "grid.x_lo"),
    (["euler-sim", "--grid.n_cells", "1.5"], {}, "grid.n_cells"),
    (["euler-sim", "--config", "{dir}/exp.cfg"], {"in/exp.cfg": "gas.gamma =\n"}, "gas.gamma"),
    (["sweep", "--sweep.lambda", ","], {}, "sweep.lambda"),
    (["euler-sim", "stray"], {}, "stray"),
    (["euler-sim", "--run.t_end"], {}, "run.t_end"),
    (["burgers-lifespan", "--profile.file", "{dir}/profile.csv"], {"in/profile.csv": "x,w\n0,0\n0.5,1\n1,0\n"},
     "profile.file"),
    (["functionals"], {"out/snapshots.csv": snapshot_32("1.0").replace("t,r,rho,mom", "t,r,rho,u")},
     "output.dir"),
    # the damping integral left unresolved at its caps: lambda > 1 past
    # SERIES_MAX_C, where 1/beta is a spike of width about 1/mu at tau = 0 ...
    (["burgers-lifespan", "--damping.lambda", "2", "--damping.mu", "1e13"], {}, "keys 'damping.lambda'/'damping.mu':"),
    # a sweep names the failing combo after its keys
    (["sweep", "--sweep.lambda", "2", "--sweep.mu", "1e300", "--sweep.epsilon", "1"], {},
     "keys 'sweep.lambda'/'sweep.mu': at lambda=2.0, mu=1e+300, epsilon=1.0:"),
    (["sweep", "--sweep.lambda", "0,2", "--sweep.mu", "1,1e300", "--sweep.epsilon", "1"], {},
     "keys 'sweep.lambda'/'sweep.mu': at lambda=2.0, mu=1e+300, epsilon=1.0:"),
    # 1/(eps m) = 1.25e-600 is no float
    (["sweep", "--profile.M", "1e-300", "--sweep.epsilon", "1,1e300", "--sweep.lambda", "0,2", "--sweep.mu", "1"],
     {}, "key 'sweep.epsilon': at lambda=0.0, mu=1.0, epsilon=1e+300:"),
    (["burgers-sim", "--damping.lambda", "2", "--damping.mu", "1e16", "--run.t_end", "1", "--grid.n_cells", "64"], {},
     "keys 'damping.lambda'/'damping.mu':"),
    # ... and lambda just below 1 at mu near 1, where the gamma expansions of
    # I(inf) hit their term cap and its quadrature cannot resolve the integrand
    (["burgers-lifespan", "--damping.lambda", "0.9999997", "--damping.mu", "0.99"], {},
     "keys 'damping.lambda'/'damping.mu':"),
], ids=["x_lo-without-x_hi", "fractional-n_cells", "empty-config-value", "empty-lambda-list",
        "stray-argument", "flag-without-value", "profile-header", "snapshot-header", "lifespan-law-spike",
        "sweep-law-spike", "sweep-law-spike-combo", "sweep-epsilon-combo", "burgers-sim-law-spike",
        "lifespan-law-lambda-near-1"])
def test_documented_config_error_names_its_key_and_writes_nothing(tmp_path, capsys, argv, files, key):
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    out = tmp_path / "out"
    rc = main([argv[0], "--output.dir", str(out)] + [a.format(dir=tmp_path / "in") for a in argv[1:]])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config-error:") and key in err
    written = sorted(p.name for p in out.iterdir()) if out.exists() else []
    assert written == sorted(Path(name).name for name in files if name.startswith("out/"))


def test_functionals_reproduces_series_on_any_grid(tmp_path):
    # r_max = 10, 33 cells: r[-1] + (r[1] - r[0]) / 2 misses 10 by an ulp, so
    # a grid inferred that way changes dr and the last digits of every column
    out = str(tmp_path / "g")
    argv = ["--grid.r_max", "10", "--grid.n_cells", "33", "--run.t_end", "1",
            "--profile.epsilon", "0.05", "--output.dir", out]
    assert main(["euler-sim"] + argv) == 0
    original = read(os.path.join(out, "series.csv"))
    assert main(["functionals"] + argv) == 0
    assert read(os.path.join(out, "series.csv")) == original


def test_cli_import_loads_no_scipy_or_mpmath():
    # every CLI run pays its imports; mpmath is a test-only oracle, the CLI
    # starts no thread, so it needs no concurrent.futures, and only an
    # unknown key's hint needs difflib
    modules = "{'scipy', 'mpmath', 'concurrent.futures', 'difflib'}"
    code = f"import sys, critdamp.cli; print(sorted({modules} & set(sys.modules)))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def test_public_names_resolve():
    # __all__ names every public non-module attribute of the package, once
    import critdamp

    public = {name for name, value in vars(critdamp).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(set(critdamp.__all__)) == len(critdamp.__all__)
    assert set(critdamp.__all__) == public


def test_sweep_zero_epsilon_is_config_error(tmp_path, capsys):
    # a zero amplitude has no lifespan to classify; BurgersProblem rejects it
    rc = main(["sweep", "--sweep.lambda", "1", "--sweep.mu", "1", "--sweep.epsilon", "0",
               "--output.dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config-error: key 'sweep.epsilon':")


def test_euler_sim_builds_initial_state_once(tmp_path, monkeypatch):
    calls = []
    build = euler.init_state

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(euler, "init_state", counted)
    assert main(["euler-sim", "--grid.n_cells", "64", "--run.t_end", "1", "--output.dir", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_readme_library_example_runs(capsys):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    [block] = re.findall(r"```python\n(.*?)```", text, re.S)
    exec(compile(block, "README.md", "exec"), {})
    lifespan, radial = capsys.readouterr().out.splitlines()
    assert lifespan == "FiniteLifespan(lifespan=35.0)"
    assert radial.startswith("Global() ")
