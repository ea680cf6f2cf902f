"""Deterministic CSV emission and ingestion for experiment artifacts.

Numbers are written with Python's shortest round-trip float representation,
so identical configs on the same build produce byte-identical files and
re-ingestion loses no precision.

Snapshot files hold one block of rows per state.  The coordinate column is
formatted once per grid, and so are the background rows: ``(r, rho_bar, 0.0)``
for a radial state, ``(x, 0.0)`` for a line one.  Every row after the last one
whose values differ in their bits from the background row is written from
those fixed strings.  The test is on bits, so a ``-0.0`` momentum (written
``-0.0``) or a ``nan`` keeps its row live, while a density perturbation too
small to move ``rho`` off ``rho_bar`` writes the same bytes as the background.
The writer holds the text of one block at a time, not of the whole file, so a
raise mid-write (bad input or an I/O error) leaves a truncated file behind.
"""

from __future__ import annotations

import os
from typing import Iterable, Mapping, Sequence, TextIO

import numpy as np

from .euler import RadialGrid, RadialState
from .outcome import FiniteLifespan, Verdict, verdict_label


def fmt(value) -> str:
    return repr(float(value))


def _reprs(values: np.ndarray) -> list[str]:
    """:func:`fmt` of each element of a float array."""
    return list(map(repr, np.asarray(values).tolist()))


def write_series(path: str, times: np.ndarray, columns: Mapping[str, np.ndarray]) -> None:
    lines = ["t," + ",".join(columns.keys())]
    lines.extend(map(",".join, zip(*map(_reprs, (times, *columns.values())))))
    _write(path, lines)


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    """Header names and float rows of a CSV file.  Empty lines and lines
    starting with ``#`` are skipped anywhere.  Before the first data row a
    line holding only whitespace is skipped too; from that row on,
    ``np.loadtxt`` reads the file by its path, in chunks, and such a line is
    a malformed row.  Raises ValueError naming ``path`` when the header is
    missing, a row is ragged or holds a non-number, or there are no data
    rows."""
    with open(path, "r", encoding="utf-8") as fh:
        content = ((i, s) for i, s in enumerate(map(str.strip, fh)) if s and not s.startswith("#"))
        (_, header), (first, row) = next(content, (0, "")), next(content, (0, ""))
    try:
        if not row:
            raise ValueError("no data rows" if header else "no header line")
        data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2, skiprows=first, encoding="utf-8")
        if data.shape[1] != header.count(",") + 1:
            raise ValueError(f"rows of {data.shape[1]} fields under the header {header!r}")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return header.split(","), data


def write_radial_snapshots(path: str, snapshots: Sequence[RadialState]) -> None:
    _write_blocks(path, "t,r,rho,mom",
                  ((s.t, s.grid, s.grid.centers, (s.rho, s.mom), (s.rho_bar, 0.0)) for s in snapshots))


def read_radial_snapshots(path: str, rho_bar: float) -> list[RadialState]:
    """States from a snapshot file, one per run of rows with equal ``t`` and
    increasing ``r`` (``t`` never decreases).  Each grid has dr = 2 r[0] (the
    first centre is dr / 2 exactly) and r_max = dr * n_cells; a block whose
    ``r`` column that grid does not reproduce bit for bit is rejected, and so
    is a non-finite value."""
    names, data = read_csv(path)
    if names != ["t", "r", "rho", "mom"]:
        raise ValueError(f"{path}: expected a radial snapshot file with header t,r,rho,mom")
    finite = np.isfinite(data)
    if not finite.all():
        t = float(data[np.argmin(finite.all(axis=1)), 0])
        raise ValueError(f"{path}: the block at t={t!r} holds a non-finite value")
    steps = np.diff(data[:, 0])
    if not np.all(steps >= 0):
        raise ValueError(f"{path}: snapshot times must not decrease")
    states = []
    for block in np.split(data, np.flatnonzero((steps != 0) | (np.diff(data[:, 1]) <= 0)) + 1):
        t, r = float(block[0, 0]), block[:, 1]
        try:
            grid = RadialGrid(r_max=float(2.0 * r[0] * len(r)), n_cells=len(r))
        except ValueError as exc:
            raise ValueError(f"{path}: the block at t={t!r}: {exc}") from exc
        if not np.array_equal(grid.centers, r):
            raise ValueError(f"{path}: the r column at t={t!r} is not a uniform cell-centred grid")
        states.append(RadialState(t, block[:, 2] - rho_bar, block[:, 3], grid, rho_bar))
    return states


def write_line_snapshots(path: str, snapshots) -> None:
    _write_blocks(path, "t,x,w", ((s.t, s.x.tobytes(), s.x, (s.w,), (0.0,)) for s in snapshots))


def _write_blocks(path: str, header: str, blocks) -> None:
    """One block of rows per ``(t, key, coords, values, background)``, led by
    a ``# t=<t>`` comment.  ``key`` names the grid whose coordinate column is
    ``coords``; ``values`` are float arrays on it, and ``background`` holds
    their values in a background row (see the module notes).  The strings of
    ``coords`` and of the background rows are made once per ``key`` and
    ``background``.

    Each block is written as soon as its rows are formatted, so one block's
    text is held at a time.  A raise mid-write leaves the file truncated
    after the last block written."""
    grids: dict = {}
    with _create(path) as fh:
        fh.write(header + "\n")
        for t, key, coords, values, background in blocks:
            bg = tuple(map(fmt, background))
            if (key, bg) not in grids:
                r = _reprs(coords)
                grids[key, bg] = r, [",".join((x, *bg)) for x in r]
            r, tail = grids[key, bg]
            columns = [np.asarray(v, dtype=float) for v in values]
            live = np.zeros(len(r), dtype=bool)
            for col, value in zip(columns, background):
                live |= col.view(np.int64) != np.float64(value).view(np.int64)
            end = len(r) - int(np.argmax(live[::-1])) if live.any() else 0
            rows = list(map(",".join, zip(r[:end], *(_reprs(col[:end]) for col in columns))))
            rows += tail[end:]
            t = fmt(t)
            fh.write(f"# t={t}\n")
            if rows:
                fh.writelines((t, ",", f"\n{t},".join(rows), "\n"))


def write_sweep(path: str, rows: Iterable[tuple[float, float, float, Verdict]]) -> None:
    """Rows ``(lam, mu, eps, verdict)``; ``T_or_horizon`` is T for FiniteLifespan, else inf."""
    lines = ["lambda,mu,epsilon,verdict,T_or_horizon"]
    for lam, mu, eps, verdict in rows:
        kind = verdict_label(verdict).split(":")[0]
        t_val = verdict.lifespan if isinstance(verdict, FiniteLifespan) else np.inf
        lines.append(f"{fmt(lam)},{fmt(mu)},{fmt(eps)},{kind},{fmt(t_val)}")
    _write(path, lines)


def write_verdict(path: str, verdict: Verdict, params: Mapping[str, object]) -> None:
    lines = [f"verdict = {verdict_label(verdict)}"]
    for key in sorted(params):
        lines.append(f"{key} = {params[key]}")
    _write(path, lines)


def write_text(path: str, text: str) -> None:
    with _create(path) as fh:
        fh.write(text)


def _create(path: str) -> TextIO:
    """``path`` opened for writing UTF-8 text with \\n line ends, its directory made if missing."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


def _write(path: str, lines: list[str]) -> None:
    write_text(path, "\n".join(lines) + "\n")
