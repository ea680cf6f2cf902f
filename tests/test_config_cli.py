import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from critdamp import (
    BurgersProblem,
    DampingLaw,
    GasModel,
    InitialProfile,
    RadialGrid,
    classify_lifespan,
    max_negative_slope,
    run,
)
from critdamp.cli import main, run_experiment
from critdamp.config import ConfigError, parse_config
from critdamp.csvio import read_radial_snapshots, read_series
from critdamp.profiles import line_bump, sampled_profile
from helpers import parse_verdict_label


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
    out = str(tmp_path / "v")
    cfg = parse_config(
        "damping.lambda = 1.0\ndamping.mu = 0.5\nprofile.epsilon = 0.1\n"
        f"output.dir = {out}",
        "burgers-lifespan",
    )
    run_experiment(cfg)
    v = verdict_of(out)
    assert type(v).__name__ == "FiniteLifespan"
    body = read(os.path.join(out, "verdict.txt"))
    assert "damping.mu = 0.5" in body


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
    w0, w0p, support = line_bump(1.0)
    m = max_negative_slope(BurgersProblem(w0, w0p, support, 1.0, DampingLaw(0.0, 0.0)))
    rows = [row.split(",") for row in read(os.path.join(out, "sweep.csv")).splitlines()[1:]]
    assert [row[0] for row in rows] == ["0.0", "1.0", "1.5", "3.0"]
    assert {row[3] for row in rows} == {"FiniteLifespan"}
    assert {float(row[4]) for row in rows} == {1.0 / (0.5 * m)}


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
    expected = run(GasModel(2.0, 1.0), DampingLaw(1.0, 1.0), InitialProfile(rho0, u0, 0.1, 1.0),
                   RadialGrid(8.0, 64), 1.0)
    times, cols = read_series(os.path.join(out, "series.csv"))
    assert times.tolist() == expected.times.tolist()
    assert list(cols) == list(expected.columns)
    for name, values in expected.columns.items():
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
    ("euler-sim", "profile", "r,rho0,u0\n0,1,0\n1,1,0\n1,1,0\n", "profile.file"),
    ("functionals", "snapshots.csv", SNAPSHOT_HEAD + "0.0,0.5,1.0,0.0\n0.0,1.5,1.0\n", "output.dir"),
    ("functionals", "snapshots.csv", "t,r,rho,mom\n0.0,0.5,1.0,0.0\n0.0,1.5,1.0,0.0\n", "output.dir"),
    ("euler-sim", "profile", NEGATIVE_PROFILE, "profile.file"),
    ("criterion", "profile", NEGATIVE_PROFILE, "profile.file"),
    ("functionals", "snapshots.csv", snapshot_32("nan"), "output.dir"),
    ("functionals", "snapshots.csv", snapshot_32("-1.0"), "output.dir"),
], ids=["non-numeric-cell", "header-only", "single-row", "radial-repeated-abscissa", "three-field-row", "no-block-marker",
        "negative-initial-density", "negative-initial-mass", "snapshot-nan-density", "snapshot-negative-density"])
def test_malformed_input_file_is_config_error(tmp_path, capsys, mode, file, text, key):
    out = tmp_path / "out"
    out.mkdir()
    path = out / file
    path.write_text(text)
    argv = [mode, "--output.dir", str(out)]
    if key == "profile.file":
        argv += ["--profile.file", str(path), "--profile.epsilon", "0.1"]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"config-error: key {key!r}:")
    assert str(path) in err


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
    # every CLI run pays its imports; mpmath is a test-only oracle, and the
    # CLI starts no thread, so it needs no concurrent.futures
    code = "import sys, critdamp.cli; print(sorted({'scipy', 'mpmath', 'concurrent.futures'} & set(sys.modules)))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
