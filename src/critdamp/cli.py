"""Experiment orchestration and the ``critdamp`` command line.

Modes: burgers-lifespan, burgers-sim, euler-sim, functionals, criterion,
sweep.  All artifacts are plain CSV/text with deterministic, byte-stable
formatting; sweeps fan out over a thread pool sized by CRITDAMP_THREADS
(default: logical CPU count) with results emitted in input order regardless
of scheduling.
"""

from __future__ import annotations

import os
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np

from . import burgers, csvio, euler, monitors, profiles
from .config import MODES, ConfigError, ExperimentConfig, parse_config
from .damping import DampingLaw
from .numerics import adaptive_quad
from .outcome import FiniteLifespan, Global, Verdict, sample_times


def _line_profile(cfg: ExperimentConfig):
    if cfg["profile.file"] is not None:
        xs, cols = _load_samples(cfg["profile.file"], ("x", "w0"))
        value, deriv = profiles.sampled_profile(xs, cols[0])
        support = (float(xs[0]), float(xs[-1]))
        return value, deriv, support
    return profiles.line_profile_callables(cfg["profile.name"], cfg["profile.M"])


def _radial_profile(cfg: ExperimentConfig) -> euler.InitialProfile:
    if cfg["profile.file"] is not None:
        rs, cols = _load_samples(cfg["profile.file"], ("r", "rho0", "u0"))
        rho0, _ = profiles.sampled_profile(rs, cols[0])
        u0, _ = profiles.sampled_profile(rs, cols[1])
    else:
        rho0, u0 = profiles.radial_profile_callables(
            cfg["profile.name"], cfg["profile.M0"], cfg["profile.M"]
        )
    return euler.InitialProfile(
        rho0=rho0, u0=u0, epsilon=cfg["profile.epsilon"], M=cfg["profile.M"], M0=cfg["profile.M0"]
    )


def _load_samples(path: str, expected_header: tuple[str, ...]):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rows = [line.strip() for line in fh if line.strip() and not line.startswith("#")]
    except OSError as exc:
        raise ConfigError(f"key 'profile.file': cannot read {path!r}: {exc}") from exc
    if not rows or tuple(rows[0].split(",")) != expected_header:
        raise ConfigError(f"key 'profile.file': expected header {','.join(expected_header)!r}")
    data = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    return data[:, 0], [data[:, j] for j in range(1, data.shape[1])]


def _burgers_problem(cfg: ExperimentConfig) -> burgers.BurgersProblem:
    value, deriv, support = _line_profile(cfg)
    return burgers.BurgersProblem(
        w0=value,
        w0_prime=deriv,
        support=support,
        epsilon=cfg["profile.epsilon"],
        damping=cfg.damping(),
    )


def _finite_time(verdict: Verdict) -> float:
    if isinstance(verdict, FiniteLifespan):
        return verdict.lifespan
    if isinstance(verdict, Global):
        return verdict.horizon if verdict.horizon is not None else np.inf
    return verdict.time


def _run_burgers_lifespan(cfg: ExperimentConfig, out: str) -> None:
    verdict = burgers.classify_lifespan(_burgers_problem(cfg))
    csvio.write_verdict(os.path.join(out, "verdict.txt"), verdict, cfg.echo_params())


def _run_sweep(cfg: ExperimentConfig, out: str) -> None:
    value, deriv, support = _line_profile(cfg)
    slope_max = burgers.max_negative_slope(
        burgers.BurgersProblem(value, deriv, support, 1.0, DampingLaw(mu=0.0, lam=0.0))
    )
    combos = [
        (lam, mu, eps)
        for lam in cfg["sweep.lambda"]
        for mu in cfg["sweep.mu"]
        for eps in cfg["sweep.epsilon"]
    ]

    def one(combo):
        lam, mu, eps = combo
        problem = burgers.BurgersProblem(value, deriv, support, eps, DampingLaw(mu=mu, lam=lam))
        verdict = burgers.classify_lifespan(problem, slope_max=slope_max)
        return (lam, mu, eps, verdict, _finite_time(verdict))

    workers = os.environ.get("CRITDAMP_THREADS") or str(os.cpu_count() or 1)
    if not workers.strip().isdecimal() or int(workers) < 1:
        raise ConfigError("CRITDAMP_THREADS must be a positive integer")
    with ThreadPoolExecutor(max_workers=int(workers)) as pool:
        rows = list(pool.map(one, combos))
    csvio.write_sweep(os.path.join(out, "sweep.csv"), rows)


def _run_burgers_sim(cfg: ExperimentConfig, out: str) -> None:
    problem = _burgers_problem(cfg)
    t_end = cfg["run.t_end"]
    span = None
    if cfg["grid.x_lo"] is not None:
        span = (cfg["grid.x_lo"], cfg["grid.x_hi"])
    snapshots, verdict = burgers.simulate_fv(
        problem, cfg["grid.n_cells"], t_end, cfg["run.cfl"],
        snapshot_times=sample_times(t_end, cfg["run.monitor_cadence"]), x_span=span,
    )
    csvio.write_series(
        os.path.join(out, "series.csv"), np.array([s.t for s in snapshots]), burgers.series(snapshots)
    )
    csvio.write_line_snapshots(os.path.join(out, "snapshots.csv"), snapshots)
    csvio.write_verdict(os.path.join(out, "verdict.txt"), verdict, cfg.echo_params())


def _euler_grid(cfg: ExperimentConfig) -> euler.RadialGrid:
    r_max = cfg["grid.r_max"]
    if r_max is None:
        r_max = cfg["profile.M"] + 2.0 * (cfg["run.t_end"] + 1.0)
    return euler.RadialGrid(r_max=r_max, n_cells=cfg["grid.n_cells"])


def _run_euler_sim(cfg: ExperimentConfig, out: str) -> None:
    gas = cfg.gas()
    damping = cfg.damping()
    profile = _radial_profile(cfg)
    grid = _euler_grid(cfg)
    try:
        euler.validate_horizon(gas, profile, grid, cfg["run.t_end"])
    except ValueError as exc:
        raise ConfigError(f"key 'grid.r_max': {exc}") from exc
    result = euler.run(
        gas, damping, profile, grid, cfg["run.t_end"], cfg["run.cfl"],
        monitor_cadence=cfg["run.monitor_cadence"], check_horizon=False,
    )
    csvio.write_series(os.path.join(out, "series.csv"), result.times, result.columns)
    csvio.write_radial_snapshots(os.path.join(out, "snapshots.csv"), result.snapshots)
    csvio.write_verdict(os.path.join(out, "verdict.txt"), result.verdict, cfg.echo_params())


def _run_functionals(cfg: ExperimentConfig, out: str) -> None:
    """Recompute the monitor series from snapshots.csv (round-trip path)."""
    gas = cfg.gas()
    damping = cfg.damping()
    path = os.path.join(out, "snapshots.csv")
    try:
        states = csvio.read_radial_snapshots(path, gas.rho_bar)
    except OSError as exc:
        raise ConfigError(f"key 'output.dir': cannot read {path!r}: {exc}") from exc
    csvio.write_series(
        os.path.join(out, "series.csv"), np.array([s.t for s in states]),
        euler.series(states, gas, damping, cfg["run.cfl"]),
    )


def _run_criterion(cfg: ExperimentConfig, out: str) -> None:
    """Initial functionals by quadrature of the smooth profile, then the
    criterion integral up to T* = run.t_end."""
    gas = cfg.gas()
    profile = _radial_profile(cfg)
    eps, m = profile.epsilon, profile.M

    def mom_integrand(r):
        rho = gas.rho_bar + eps * np.asarray(profile.rho0(r))
        return r**3 * rho * eps * np.asarray(profile.u0(r))

    h0 = monitors.FOUR_PI * adaptive_quad(mom_integrand, 0.0, m)
    l0 = monitors.FOUR_PI * adaptive_quad(
        lambda r: r**2 * eps * np.asarray(profile.rho0(r)), 0.0, m
    )
    if l0 < 0:
        raise ConfigError("key 'profile.name': initial mass excess L0 is negative")
    report = monitors.blowup_criterion(h0, l0, m, cfg.damping(), gas, cfg["run.t_end"])
    csvio.write_text(os.path.join(out, "criterion.txt"), report.text_block())


def run_experiment(cfg: ExperimentConfig) -> str:
    """Dispatch the configured mode; returns the output directory."""
    out = cfg["output.dir"]
    os.makedirs(out, exist_ok=True)
    dispatch = {
        "burgers-lifespan": _run_burgers_lifespan,
        "burgers-sim": _run_burgers_sim,
        "euler-sim": _run_euler_sim,
        "functionals": _run_functionals,
        "criterion": _run_criterion,
        "sweep": _run_sweep,
    }
    dispatch[cfg.mode](cfg, out)
    return out


def _parse_argv(argv: Sequence[str]) -> tuple[str, str | None, dict[str, str]]:
    if not argv or argv[0] in ("-h", "--help"):
        raise SystemExit(
            "usage: critdamp <mode> [--config path] [--key value ...]\n"
            f"modes: {', '.join(MODES)}"
        )
    mode = argv[0]
    config_path = None
    overrides: dict[str, str] = {}
    i = 1
    while i < len(argv):
        arg = argv[i]
        if not arg.startswith("--"):
            raise ConfigError(f"unexpected argument {arg!r}; flags look like --key value")
        if i + 1 >= len(argv):
            raise ConfigError(f"flag {arg!r} is missing a value")
        if arg == "--config":
            config_path = argv[i + 1]
        else:
            overrides[arg[2:]] = argv[i + 1]
        i += 2
    return mode, config_path, overrides


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        mode, config_path, overrides = _parse_argv(argv)
        text = ""
        if config_path is not None:
            try:
                with open(config_path, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                print(f"io-error: cannot read config {config_path!r}: {exc}", file=sys.stderr)
                return 2
        cfg = parse_config(text, mode, overrides)
        run_experiment(cfg)
        return 0
    except ConfigError as exc:
        print(f"config-error: {exc}", file=sys.stderr)
        return 2
    except SystemExit:
        raise
    except Exception as exc:  # pragma: no cover - defensive catch-all
        print(f"runtime-error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
