"""Experiment orchestration and the ``critdamp`` command line.

Modes: burgers-lifespan, burgers-sim, euler-sim, functionals, criterion,
sweep.  All artifacts are plain CSV/text with deterministic, byte-stable
formatting; a sweep classifies its combos one after another, in input order.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import sys
from typing import Sequence

import numpy as np

from . import burgers, csvio, euler, monitors, profiles
from .config import MODES, ConfigError, ExperimentConfig, parse_config
from .damping import DampingLaw
from .numerics import adaptive_quad
from .outcome import FiniteLifespan, Global, Verdict, sample_times


@contextlib.contextmanager
def _as_config_error(key: str):
    """Report a bad value (ValueError) or an unreadable file (OSError) met in
    the block as a config error on ``key``."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise ConfigError(f"key {key!r}: {exc}") from exc


def _profile_error(cfg: ExperimentConfig, problem) -> ConfigError:
    """A config error for a fault of the initial profile itself: it names
    ``profile.file`` and the file when one is set, else ``profile.name``."""
    path = cfg["profile.file"]
    if path is None:
        return ConfigError(f"key 'profile.name': {problem}")
    return ConfigError(f"key 'profile.file': {path}: {problem}")


def _sampled_profiles(path: str, header: str):
    """The abscissae of a ``profile.file`` and a (value, derivative) pair of
    callables for each further column; errors name the file."""
    names, data = csvio.read_csv(path)
    if ",".join(names) != header:
        raise ValueError(f"{path}: expected header {header!r}")
    xs, *columns = data.T
    try:
        return xs, [profiles.sampled_profile(xs, ys) for ys in columns]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _line_profile(cfg: ExperimentConfig):
    if cfg["profile.file"] is not None:
        with _as_config_error("profile.file"):
            xs, [(value, deriv)] = _sampled_profiles(cfg["profile.file"], "x,w0")
        return value, deriv, (float(xs[0]), float(xs[-1]))
    return profiles.LINE_PROFILES[cfg["profile.name"]](cfg["profile.M"])


def _radial_profile(cfg: ExperimentConfig) -> euler.InitialProfile:
    if cfg["profile.file"] is not None:
        with _as_config_error("profile.file"):
            _, [(rho0, _), (u0, _)] = _sampled_profiles(cfg["profile.file"], "r,rho0,u0")
    else:
        rho0, u0 = profiles.RADIAL_PROFILES[cfg["profile.name"]](cfg["profile.M0"], cfg["profile.M"])
    return euler.InitialProfile(
        rho0=rho0, u0=u0, epsilon=cfg["profile.epsilon"], M=cfg["profile.M"], M0=cfg["profile.M0"]
    )


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
    rows = []
    for lam, mu, eps in itertools.product(cfg["sweep.lambda"], cfg["sweep.mu"], cfg["sweep.epsilon"]):
        problem = burgers.BurgersProblem(value, deriv, support, eps, DampingLaw(mu=mu, lam=lam))
        verdict = burgers.classify_lifespan(problem, slope_max=slope_max)
        rows.append((lam, mu, eps, verdict, _finite_time(verdict)))
    csvio.write_sweep(os.path.join(out, "sweep.csv"), rows)


def _run_burgers_sim(cfg: ExperimentConfig, out: str) -> None:
    problem = _burgers_problem(cfg)
    t_end = cfg["run.t_end"]
    span = (cfg["grid.x_lo"], cfg["grid.x_hi"]) if cfg["grid.x_lo"] is not None else None
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
        state = euler.init_state(gas, profile, grid)
    except ValueError as exc:
        raise _profile_error(cfg, exc) from exc
    with _as_config_error("grid.r_max"):
        euler.validate_horizon(gas, profile, grid, cfg["run.t_end"], state)
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
    with _as_config_error("output.dir"):
        states = csvio.read_radial_snapshots(path, gas.rho_bar)
        for s in states:  # the monitors need rho > 0; the reader takes any finite rho
            if s.rho.min() <= 0:
                raise ValueError(f"{path}: the block at t={s.t!r} holds a density that is not positive")
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
        raise _profile_error(cfg, "initial mass excess L0 is negative")
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
    except Exception as exc:  # pragma: no cover - defensive catch-all
        print(f"runtime-error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
