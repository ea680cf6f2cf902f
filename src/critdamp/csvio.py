"""Deterministic CSV emission and ingestion for experiment artifacts.

Numbers are written with Python's shortest round-trip float representation,
so identical configs on the same build produce byte-identical files and
re-ingestion loses no precision.
"""

from __future__ import annotations

import os
from typing import Iterable, Mapping, Sequence

import numpy as np

from .euler import RadialGrid, RadialState
from .outcome import Verdict, verdict_label


def fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _reprs(values: np.ndarray):
    """:func:`fmt` of each element of a float array."""
    return map(repr, values.tolist())


def write_series(path: str, times: np.ndarray, columns: Mapping[str, np.ndarray]) -> None:
    lines = ["t," + ",".join(columns.keys())]
    for i, t in enumerate(times):
        lines.append(",".join([fmt(t)] + [fmt(col[i]) for col in columns.values()]))
    _write(path, lines)


def read_series(path: str) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.strip() for line in fh if line.strip()]
    header = rows[0].split(",")
    data = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    return data[:, 0], {name: data[:, j + 1] for j, name in enumerate(header[1:])}


def write_radial_snapshots(path: str, snapshots: Sequence[RadialState]) -> None:
    lines = ["t,r,rho,mom"]
    for snap in snapshots:
        t = fmt(snap.t)
        lines.append(f"# t={t}")
        lines.extend(f"{t},{r},{rho},{mom}" for r, rho, mom in zip(
            _reprs(snap.grid.centers), _reprs(snap.rho), _reprs(snap.mom)))
    _write(path, lines)


def read_radial_snapshots(path: str, rho_bar: float) -> list[RadialState]:
    """Rebuild states from a snapshot file; the uniform grid is inferred from
    the r column."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.strip() for line in fh if line.strip()]
    if not rows or rows[0] != "t,r,rho,mom":
        raise ValueError(f"{path}: expected a radial snapshot file with header t,r,rho,mom")
    blocks: list[list[tuple[float, float, float, float]]] = []
    for row in rows[1:]:
        if row.startswith("#"):
            blocks.append([])
            continue
        t, r, rho, mom = (float(v) for v in row.split(","))
        if not blocks:
            raise ValueError(f"{path}: data row before the first block marker")
        blocks[-1].append((t, r, rho, mom))

    states = []
    for block in blocks:
        arr = np.array(block)
        r = arr[:, 1]
        dr = r[1] - r[0]
        grid = RadialGrid(r_max=float(r[-1] + 0.5 * dr), n_cells=len(r))
        states.append(RadialState(float(arr[0, 0]), arr[:, 2] - rho_bar, arr[:, 3], grid, rho_bar))
    return states


def write_line_snapshots(path: str, snapshots) -> None:
    lines = ["t,x,w"]
    for snap in snapshots:
        t = fmt(snap.t)
        lines.append(f"# t={t}")
        lines.extend(f"{t},{x},{w}" for x, w in zip(_reprs(snap.x), _reprs(snap.w)))
    _write(path, lines)


def write_sweep(path: str, rows: Iterable[tuple[float, float, float, Verdict, float]]) -> None:
    lines = ["lambda,mu,epsilon,verdict,T_or_horizon"]
    for lam, mu, eps, verdict, t_val in rows:
        kind = verdict_label(verdict).split(":")[0]
        lines.append(f"{fmt(lam)},{fmt(mu)},{fmt(eps)},{kind},{fmt(t_val)}")
    _write(path, lines)


def write_verdict(path: str, verdict: Verdict, params: Mapping[str, object]) -> None:
    lines = [f"verdict = {verdict_label(verdict)}"]
    for key in sorted(params):
        lines.append(f"{key} = {params[key]}")
    _write(path, lines)


def write_text(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write(path: str, lines: list[str]) -> None:
    write_text(path, "\n".join(lines) + "\n")
