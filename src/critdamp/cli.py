"""Experiment orchestration and the ``critdamp`` command line.

Modes: burgers-lifespan, burgers-sim, euler-sim, functionals, criterion,
sweep.  All artifacts are plain CSV/text with deterministic, byte-stable
formatting; a sweep classifies its combos one after another, in input order.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import os
import sys
from typing import Sequence

import numpy as np

from . import burgers, csvio, euler, monitors, profiles
from .config import MODES, ConfigError, ExperimentConfig, parse_config
from .damping import DampingLaw
from .numerics import ConvergenceError, adaptive_quad
from .outcome import sample_times


@contextlib.contextmanager
def _as_config_error(key: str | tuple[str, str], errors=(OSError, ValueError)):
    """Report ``errors`` met in the block (by default a bad value, ValueError,
    or an unreadable file, OSError) as a config error on ``key``, or on a pair of keys."""
    try:
        yield
    except errors as exc:
        named = f"key {key!r}" if isinstance(key, str) else f"keys {key[0]!r}/{key[1]!r}"
        raise ConfigError(f"{named}: {exc}") from exc


def _profile_error(cfg: ExperimentConfig, problem) -> ConfigError:
    """A config error for a fault of the initial profile itself: it names
    ``profile.file`` and the file when one is set, else ``profile.name``."""
    path = cfg["profile.file"]
    if path is None:
        return ConfigError(f"key 'profile.name': {problem}")
    return ConfigError(f"key 'profile.file': {path}: {problem}")


def _sampled_profiles(path: str, header: str):
    """The abscissae of a ``profile.file``, its further columns and a (value,
    derivative) pair of callables for each; errors name the file."""
    names, data = csvio.read_csv(path)
    if ",".join(names) != header:
        raise ValueError(f"{path}: expected header {header!r}")
    xs, *columns = data.T
    try:
        return xs, columns, [profiles.sampled_profile(xs, ys) for ys in columns]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _radial_profile(cfg: ExperimentConfig) -> euler.InitialProfile:
    """The builtin's profile on profile.M0 < r < profile.M, or a file's, which
    ends at its last r: that is its M, with M0 = 0."""
    path = cfg["profile.file"]
    if path is None:
        rho0, u0 = profiles.RADIAL_PROFILES[cfg["profile.name"]](cfg["profile.M0"], cfg["profile.M"])
        return euler.InitialProfile(rho0, u0, cfg["profile.epsilon"], cfg["profile.M"], cfg["profile.M0"])
    with _as_config_error("profile.file"):
        rs, _, [(rho0, _), (u0, _)] = _sampled_profiles(path, "r,rho0,u0")
        if not rs[-1] > 0.0:
            raise ValueError(f"{path}: the last r, where the profile ends, must be positive")
    return euler.InitialProfile(rho0, u0, cfg["profile.epsilon"], M=float(rs[-1]))


def _burgers_problem(cfg: ExperimentConfig) -> burgers.BurgersProblem:
    """The 1-D problem, with its exact m = max(-w0'): a builtin's in closed
    form, a file's over its segments."""
    path = cfg["profile.file"]
    if path is None:
        build, m1 = profiles.LINE_PROFILES[cfg["profile.name"]]
        value, deriv, support = build(cfg["profile.M"])
        m = m1 / cfg["profile.M"]
        if m == np.inf:
            raise ConfigError(f"key 'profile.M': {cfg['profile.M']!r} is too small: max(-w0') = {m1!r}/M overflows")
    else:
        with _as_config_error("profile.file"):
            xs, [ys], [(value, deriv)] = _sampled_profiles(path, "x,w0")
            if ys[0] != 0.0 or ys[-1] != 0.0:
                raise ValueError(f"{path}: w0 must be 0 at the first and last x, where the profile ends")
        support = (float(xs[0]), float(xs[-1]))
        m = max(0.0, float(np.max(-np.diff(ys) / np.diff(xs))))
    return burgers.BurgersProblem(value, deriv, support, cfg["profile.epsilon"], cfg.damping(), m)


def _run_burgers_lifespan(cfg: ExperimentConfig, out: str) -> None:
    problem = _burgers_problem(cfg)
    # a lifespan below the float range, or a law whose I(t) or I(inf) is left unresolved at its caps
    with _as_config_error("profile.epsilon", OverflowError), \
            _as_config_error(("damping.lambda", "damping.mu"), ConvergenceError):
        verdict = burgers.classify_lifespan(problem)
    csvio.write_verdict(os.path.join(out, "verdict.txt"), verdict, cfg.echo_params())


def _run_sweep(cfg: ExperimentConfig, out: str) -> None:
    problem = _burgers_problem(cfg)  # m depends on the profile only
    rows = []
    for lam, mu, eps in itertools.product(cfg["sweep.lambda"], cfg["sweep.mu"], cfg["sweep.epsilon"]):
        combo = dataclasses.replace(problem, epsilon=eps, damping=DampingLaw(mu=mu, lam=lam))
        try:
            rows.append((lam, mu, eps, burgers.classify_lifespan(combo)))
        except (OverflowError, ConvergenceError) as exc:  # as in burgers-lifespan, naming the combo
            keys = "key 'sweep.epsilon'" if isinstance(exc, OverflowError) else "keys 'sweep.lambda'/'sweep.mu'"
            raise ConfigError(f"{keys}: at lambda={lam!r}, mu={mu!r}, epsilon={eps!r}: {exc}") from exc
    csvio.write_sweep(os.path.join(out, "sweep.csv"), rows)


def _run_burgers_sim(cfg: ExperimentConfig, out: str) -> None:
    problem = _burgers_problem(cfg)
    t_end = cfg["run.t_end"]
    span = (cfg["grid.x_lo"], cfg["grid.x_hi"]) if cfg["grid.x_lo"] is not None else None
    # simulate_fv's only ValueError on a validated config: a span that cuts the support;
    # a ConvergenceError is I(t_end) left unresolved at its caps, as in burgers-lifespan
    with _as_config_error(("damping.lambda", "damping.mu"), ConvergenceError), \
            _as_config_error("grid.x_lo", ValueError):
        snapshots, verdict = burgers.simulate_fv(
            problem, cfg["grid.n_cells"], t_end, cfg["run.cfl"],
            snapshot_times=sample_times(t_end, cfg["run.monitor_cadence"]), x_span=span,
        )
    with np.errstate(over="ignore", invalid="ignore"):
        columns = burgers.series(snapshots)
    if not all(np.isfinite(column).all() for column in columns.values()):
        raise ConfigError(f"key 'profile.epsilon': {cfg['profile.epsilon']!r} overflows the run's series "
                          "(Q sums w over the cells)")
    csvio.write_series(os.path.join(out, "series.csv"), np.array([s.t for s in snapshots]), columns)
    csvio.write_line_snapshots(os.path.join(out, "snapshots.csv"), snapshots)
    csvio.write_verdict(os.path.join(out, "verdict.txt"), verdict, cfg.echo_params())


def _euler_grid(cfg: ExperimentConfig, profile: euler.InitialProfile) -> euler.RadialGrid:
    r_max = cfg["grid.r_max"]
    if r_max is None:
        r_max = profile.M + 2.0 * (cfg["run.t_end"] + 1.0)
    return euler.RadialGrid(r_max=r_max, n_cells=cfg["grid.n_cells"])


def _write_radial_series(out: str, states, gas, damping: DampingLaw, cfl: float) -> None:
    """Write series.csv of radial states: euler-sim's snapshots, or those functionals reads."""
    with _as_config_error("damping.lambda", OverflowError):  # the E0 weight
        columns = euler.series(states, gas, damping, cfl)
    csvio.write_series(os.path.join(out, "series.csv"), np.array([s.t for s in states]), columns)


def _run_euler_sim(cfg: ExperimentConfig, out: str) -> None:
    gas, damping = cfg.gas(), cfg.damping()
    profile = _radial_profile(cfg)
    t_end, cfl = cfg["run.t_end"], cfg["run.cfl"]
    with _as_config_error("grid.r_max"):
        grid = _euler_grid(cfg, profile)
    try:
        state = euler.init_state(gas, profile, grid)
    except ValueError as exc:
        raise _profile_error(cfg, exc) from exc
    try:
        euler.validate_horizon(gas, state, profile.M, t_end)
    except ValueError as exc:
        auto = "" if cfg["grid.r_max"] is not None else (
            "; grid.r_max is unset and was sized automatically as support + 2 (run.t_end + 1): set grid.r_max")
        raise ConfigError(f"key 'grid.r_max': {exc}{auto}") from exc
    with _as_config_error("gas.rho_bar"):  # run's only ValueError on a validated config
        snapshots, verdict = euler.run(gas, damping, state, t_end, cfl,
                                       snapshot_times=sample_times(t_end, cfg["run.monitor_cadence"]))
    _write_radial_series(out, snapshots, gas, damping, cfl)
    csvio.write_radial_snapshots(os.path.join(out, "snapshots.csv"), snapshots)
    csvio.write_verdict(os.path.join(out, "verdict.txt"), verdict, cfg.echo_params())


def _run_functionals(cfg: ExperimentConfig, out: str) -> None:
    """Recompute the monitor series from snapshots.csv (round-trip path)."""
    gas = cfg.gas()
    with _as_config_error("output.dir"):
        states = csvio.read_radial_snapshots(os.path.join(out, "snapshots.csv"), gas.rho_bar)
    _write_radial_series(out, states, gas, cfg.damping(), cfg["run.cfl"])


def _run_criterion(cfg: ExperimentConfig, out: str) -> None:
    """Initial functionals by quadrature of the smooth profile, then the
    criterion integral up to T* = run.t_end."""
    gas = cfg.gas()
    profile = _radial_profile(cfg)
    eps, m = profile.epsilon, profile.M

    def mom_integrand(r):
        rho = gas.rho_bar + eps * np.asarray(profile.rho0(r))
        return r**3 * rho * eps * np.asarray(profile.u0(r))

    def quad(integrand):  # eps near the float range: a profile error, not a quadrature of nan
        with np.errstate(over="ignore", invalid="ignore"):
            probe = integrand(np.linspace(0.0, m, 1025))
            if not np.isfinite(probe).all():
                raise _profile_error(cfg, "an initial functional's integrand is not finite")
        # relative to the integral's size, m max|f|: an absolute tolerance lies
        # below the round-off of an integral of order eps^2 at a huge eps, and
        # above the whole integral at a tiny eps or M
        abs_tol = 1e-12 * m * float(np.abs(probe).max())
        return monitors.FOUR_PI * adaptive_quad(integrand, 0.0, m, abs_tol=abs_tol)

    h0 = quad(mom_integrand)
    l0 = quad(lambda r: r**2 * eps * np.asarray(profile.rho0(r)))
    if l0 < 0:
        raise _profile_error(cfg, "initial mass excess L0 is negative")
    # alpha(t) grows like (t + M)^5 near t = 0: a tiny M underflows alpha(0), and
    # a quadrature left unresolved at its caps is no answer
    with _as_config_error("profile.file" if cfg["profile.file"] else "profile.M", (ValueError, ConvergenceError)):
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
