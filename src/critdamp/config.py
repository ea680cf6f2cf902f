"""Experiment configuration: line-based `key = value` files with `#` comments,
dotted keys, and command-line overrides.

Unknown keys are hard errors (with a nearest-key suggestion); all module-level
preconditions are validated before any run starts, and every failure names the
offending key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .damping import DampingLaw
from .gas import GasModel

MAX_SAMPLES = 100_000  # cap on run.t_end / run.monitor_cadence: each sample keeps a snapshot

MODES = ("burgers-lifespan", "burgers-sim", "euler-sim", "functionals", "criterion", "sweep")
LINE_MODES = ("burgers-lifespan", "burgers-sim", "sweep")  # the 1-D (Burgers) modes


class ConfigError(ValueError):
    pass


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {text!r}") from exc


def _parse_float_list(text: str) -> tuple[float, ...]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ConfigError("expected a comma-separated list of numbers")
    return tuple(_parse_float(item) for item in items)


def _parse_str(text: str) -> str:
    return text.strip()


# key -> (parser, default); None default means "unset".
KEY_SPECS: dict[str, tuple] = {
    "gas.gamma": (_parse_float, 2.0),
    "gas.rho_bar": (_parse_float, 1.0),
    "damping.mu": (_parse_float, 1.0),
    "damping.lambda": (_parse_float, 1.0),
    "profile.name": (_parse_str, "bump"),
    "profile.file": (_parse_str, None),
    "profile.epsilon": (_parse_float, 0.01),
    "profile.M": (_parse_float, 1.0),
    "profile.M0": (_parse_float, 0.0),
    "grid.r_max": (_parse_float, None),
    "grid.n_cells": (_parse_int, 512),
    "grid.x_lo": (_parse_float, None),
    "grid.x_hi": (_parse_float, None),
    "run.t_end": (_parse_float, 10.0),
    "run.cfl": (_parse_float, 0.4),
    "run.monitor_cadence": (_parse_float, 0.5),
    "sweep.lambda": (_parse_float_list, None),
    "sweep.mu": (_parse_float_list, None),
    "sweep.epsilon": (_parse_float_list, None),
    "output.dir": (_parse_str, "critdamp-out"),
}


@dataclass
class ExperimentConfig:
    mode: str
    values: dict = field(default_factory=dict)

    def __getitem__(self, key: str):
        return self.values[key]

    def echo_params(self) -> dict[str, object]:
        """Resolved settings for verdict files, skipping unset optionals."""
        out: dict[str, object] = {"mode": self.mode}
        for key in sorted(self.values):
            if self.values[key] is not None:
                value = self.values[key]
                if isinstance(value, tuple):
                    value = ",".join(repr(v) for v in value)
                out[key] = value
        return out

    def gas(self) -> GasModel:
        return GasModel(gamma=self["gas.gamma"], rho_bar=self["gas.rho_bar"])

    def damping(self) -> DampingLaw:
        return DampingLaw(mu=self["damping.mu"], lam=self["damping.lambda"])


def _unknown_key_error(key: str) -> ConfigError:
    import difflib  # only this hint needs it; every CLI start would pay its import

    close = difflib.get_close_matches(key, KEY_SPECS.keys(), n=1)
    hint = f" (did you mean {close[0]!r}?)" if close else ""
    return ConfigError(f"unknown key {key!r}{hint}")


def parse_entries(text: str) -> dict[str, str]:
    """Raw `key = value` pairs from file text; syntax errors carry line numbers."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KEY_SPECS:
            raise _unknown_key_error(f"{key}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for key {key!r}")
        entries[key] = value
    return entries


def parse_config(text: str, mode: str, overrides: Mapping[str, str] | None = None) -> ExperimentConfig:
    """Build a validated config from file text plus `--key value` overrides
    (overrides win)."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {', '.join(MODES)}")
    entries = parse_entries(text)
    for key, value in (overrides or {}).items():
        if key not in KEY_SPECS:
            raise _unknown_key_error(key)
        entries[key] = value

    values: dict = {key: default for key, (_, default) in KEY_SPECS.items()}
    for key, raw in entries.items():
        parser, _ = KEY_SPECS[key]
        try:
            values[key] = parser(raw)
        except ConfigError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from exc

    cfg = ExperimentConfig(mode=mode, values=values)
    _validate(cfg)
    return cfg


def _require(condition: bool, key: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"key {key!r}: {message}")


def _validate(cfg: ExperimentConfig) -> None:
    v = cfg.values
    _require(v["gas.gamma"] > 1, "gas.gamma", "must exceed 1")
    _require(v["gas.rho_bar"] > 0, "gas.rho_bar", "must be positive")
    _require(v["damping.mu"] >= 0, "damping.mu", "must be nonnegative")
    _require(v["damping.lambda"] >= 0, "damping.lambda", "must be nonnegative")
    _require(v["profile.epsilon"] >= 0, "profile.epsilon", "must be nonnegative")
    _require(v["profile.M"] > 0, "profile.M", "must be positive")
    _require(0 <= v["profile.M0"] < v["profile.M"], "profile.M0", "must satisfy 0 <= M0 < M")
    _require(v["run.t_end"] > 0, "run.t_end", "must be positive")
    _require(0 < v["run.cfl"] <= 0.9, "run.cfl", "must lie in (0, 0.9]")
    _require(v["run.monitor_cadence"] > 0, "run.monitor_cadence", "must be positive")

    from .profiles import LINE_PROFILES, RADIAL_PROFILES

    if v["profile.file"] is None:
        if cfg.mode in LINE_MODES:
            _require(v["profile.name"] in LINE_PROFILES, "profile.name",
                     f"must be one of {tuple(LINE_PROFILES)} for mode {cfg.mode!r}")
        else:
            _require(v["profile.name"] in RADIAL_PROFILES, "profile.name",
                     f"must be one of {tuple(RADIAL_PROFILES)}")

    if cfg.mode in LINE_MODES:
        _require(v["profile.epsilon"] > 0, "profile.epsilon", "must be positive for Burgers modes")
    if cfg.mode == "burgers-sim":
        _require(v["grid.n_cells"] >= 16, "grid.n_cells", "must be at least 16")
        if (v["grid.x_lo"] is None) != (v["grid.x_hi"] is None):
            raise ConfigError("keys 'grid.x_lo'/'grid.x_hi': set both or neither")
        if v["grid.x_lo"] is not None:
            _require(v["grid.x_lo"] < v["grid.x_hi"], "grid.x_lo", "must be below grid.x_hi")
    if cfg.mode in ("euler-sim",):
        _require(v["grid.n_cells"] >= 32, "grid.n_cells", "must be at least 32")
    if cfg.mode in ("euler-sim", "burgers-sim"):
        _require(v["run.t_end"] / v["run.monitor_cadence"] <= MAX_SAMPLES, "run.monitor_cadence",
                 f"must be at least run.t_end / {MAX_SAMPLES}")
    if cfg.mode == "sweep":
        for key in ("sweep.lambda", "sweep.mu", "sweep.epsilon"):
            _require(v[key] is not None, key, "required for sweep mode")
            _require(all(x >= 0 for x in v[key]), key, "entries must be nonnegative")
        _require(all(x > 0 for x in v["sweep.epsilon"]), "sweep.epsilon", "entries must be positive")
