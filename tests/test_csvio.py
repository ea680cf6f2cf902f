import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from critdamp import RadialGrid, RadialState
from critdamp.csvio import (
    read_csv,
    read_radial_snapshots,
    read_series,
    write_radial_snapshots,
    write_series,
)

# Finite floats, with the values a float parser most easily gets wrong drawn
# often: signed zero, subnormals, the extremes and 17-significant-digit values.
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308, 0.30000000000000004, -1.2345678901234567e-5]
VALUES = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False))


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64).tolist()


def column(draw, n):
    return np.array(draw(st.lists(VALUES, min_size=n, max_size=n)))


@st.composite
def snapshot_files(draw):
    """(states, rho_bar) on one grid, at nondecreasing times."""
    grid = RadialGrid(draw(st.floats(1e-3, 1e4)), draw(st.integers(32, 48)))
    rho_bar = draw(st.sampled_from([0.0, 1.0, 2.5]))
    times = sorted(draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1e6), min_size=1, max_size=3)))
    n = grid.n_cells
    return [RadialState(t, column(draw, n), column(draw, n), grid, rho_bar) for t in times], rho_bar


@settings(max_examples=60, deadline=None)
@given(snapshot_files())
# r[-1] + (r[1] - r[0]) / 2 misses r_max = 10 by an ulp on 33 cells
@example(([RadialState(0.5, np.full(33, -0.0), np.full(33, 5e-324), RadialGrid(10.0, 33), 0.0)], 0.0))
def test_radial_snapshots_round_trip_is_exact(case):
    snaps, rho_bar = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "snapshots.csv")
        write_radial_snapshots(path, snaps)
        back = read_radial_snapshots(path, rho_bar)
    assert [s.t for s in back] == [s.t for s in snaps]
    for snap, got in zip(snaps, back):
        # dr, and with it every centre and face, comes back exactly; r_max may
        # differ in its last bit where two r_max values share one dr.
        grid = snap.grid
        assert got.grid.n_cells == grid.n_cells and got.grid.dr == grid.dr
        assert bits(got.grid.centers) == bits(grid.centers)
        assert bits(got.grid.faces) == bits(grid.faces)
        # the file holds rho; the reader subtracts rho_bar from the parsed value
        assert bits(got.rho_pert) == bits(snap.rho - rho_bar)
        assert bits(got.mom) == bits(snap.mom)


@settings(max_examples=60, deadline=None)
@given(n_rows=st.integers(1, 20), data=st.data())
def test_series_round_trip_is_exact(n_rows, data):
    times = column(data.draw, n_rows)
    columns = {"L": column(data.draw, n_rows), "max_du_dr": column(data.draw, n_rows)}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "series.csv")
        write_series(path, times, columns)
        back_times, back = read_series(path)
    assert bits(back_times) == bits(times)
    assert list(back) == list(columns)
    for name in columns:
        assert bits(back[name]) == bits(columns[name])


def test_block_markers_are_comments(tmp_path):
    grid = RadialGrid(4.0, 32)
    snaps = [RadialState(t, np.full(32, t), np.zeros(32), grid, 1.0) for t in (0.0, 0.5)]
    path = tmp_path / "snapshots.csv"
    write_radial_snapshots(str(path), snaps)
    text = path.read_text()
    stripped = tmp_path / "stripped.csv"
    stripped.write_text("".join(line for line in text.splitlines(True) if not line.startswith("#")))
    for a, b in zip(read_radial_snapshots(str(path), 1.0), read_radial_snapshots(str(stripped), 1.0)):
        assert a.t == b.t and a.grid == b.grid
        assert bits(a.rho_pert) == bits(b.rho_pert) and bits(a.mom) == bits(b.mom)


def test_read_csv_skips_comments_and_empty_lines(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("# note\n\n# another\nx,w0\n0,1.5\n\n# mid\n1,-0.0 # trailing\n2,3e-5\n")
    names, data = read_csv(str(path))
    assert names == ["x", "w0"]
    assert bits(data) == bits([[0.0, 1.5], [1.0, -0.0], [2.0, 3e-5]])


@pytest.mark.parametrize("text", [
    "",
    "# only a comment\n\n",
    "x,w0\n",
    "x,w0\n# no rows\n\n",
    "x,w0\n0,abc\n",
    "x,w0\n0,1\n1\n",
    "x,w0\n0,1,2\n",
    "x,w0\n0;1\n",
], ids=["empty", "comments-only", "header-only", "no-rows", "non-numeric", "ragged",
        "wider-than-header", "wrong-delimiter"])
def test_read_csv_rejects_malformed_files_naming_the_path(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's "input contained no data" included
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_csv(str(path))


@pytest.mark.parametrize("body", [
    "# t=0.5\n0.5,0.5,1,0\n# t=0.0\n0.0,0.5,1,0\n",  # times decrease
    "# t=0.0\n" + "".join(f"0.0,{i + 0.5!r},1,0\n" for i in range(31)) + "0.0,40.0,1,0\n",
], ids=["times-decrease", "r-off-grid"])
def test_read_radial_snapshots_rejects_bad_blocks(tmp_path, body):
    path = tmp_path / "snapshots.csv"
    path.write_text("t,r,rho,mom\n" + body)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read_radial_snapshots(str(path), 1.0)
