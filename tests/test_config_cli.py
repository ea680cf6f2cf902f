import os

import numpy as np
import pytest

from critdamp.cli import main, run_experiment
from critdamp.config import ConfigError, parse_config
from critdamp.csvio import read_radial_snapshots, read_series
from critdamp.outcome import parse_verdict_label


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


def test_sweep_insensitive_to_thread_count(tmp_path):
    text = "sweep.lambda = 0,1,2\nsweep.mu = 0.5,2\nsweep.epsilon = 0.001\noutput.dir = {}"
    outputs = []
    for threads in ("1", "4"):
        out = str(tmp_path / f"t{threads}")
        os.environ["CRITDAMP_THREADS"] = threads
        try:
            run_experiment(parse_config(text.format(out), "sweep"))
        finally:
            del os.environ["CRITDAMP_THREADS"]
        outputs.append(read(os.path.join(out, "sweep.csv")))
    assert outputs[0] == outputs[1]


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


def test_cli_bad_thread_count_is_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CRITDAMP_THREADS", "abc")
    rc = main(["sweep", "--sweep.lambda", "0,2", "--sweep.mu", "1", "--sweep.epsilon", "0.1",
               "--output.dir", str(tmp_path / "thr")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config-error:") and "CRITDAMP_THREADS" in err


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
