import math
import os
import re
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from critdamp import DampingLaw, GasModel, InitialProfile, RadialGrid, RadialState, init_state, step
from critdamp.burgers import Snapshot1D
from critdamp.cli import main
from critdamp.csvio import (
    _CHUNK,
    _repr_tables,
    _reprs,
    fmt,
    read_csv,
    read_radial_snapshots,
    write_line_snapshots,
    write_radial_snapshots,
    write_series,
)
from critdamp.profiles import radial_outgoing_shell
from helpers import (
    line_fed_read_csv,
    naive_line_snapshot_text,
    naive_radial_snapshot_text,
    read_series,
    repr_line_snapshots,
    repr_radial_snapshots,
)
from helpers import write_series as repr_write_series

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


# Values the snapshot writer must keep apart from the background: -0.0 and nan
# have their own reprs, and 1e-17 moves no rho of order one.
TAIL_QUIRKS = [-0.0, 1e-17, -1e-17, 5e-324]
WRITER_VALUES = VALUES | st.just(math.nan) | st.sampled_from(TAIL_QUIRKS)


def live_then_background(draw, n):
    """A column of ``n`` values: drawn ones up to a drawn cell, +0.0 after it,
    with a few tail cells set to a value from TAIL_QUIRKS."""
    out = np.zeros(n)
    end = draw(st.integers(0, n))
    out[:end] = draw(st.lists(WRITER_VALUES, min_size=end, max_size=end))
    if end < n:
        for i in draw(st.lists(st.integers(end, n - 1), max_size=3)):
            out[i] = draw(st.sampled_from(TAIL_QUIRKS))
    return out


@st.composite
def radial_snapshot_sets(draw):
    """States on one or two grids, each live up to some cell and background
    (possibly with quirks) after it."""
    grids = draw(st.lists(st.builds(RadialGrid, st.floats(1e-3, 1e4), st.integers(32, 40)),
                          min_size=1, max_size=2))
    rho_bar = draw(st.sampled_from([0.7, 1.0, 2.5]))
    states = []
    for t in sorted(draw(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=4))):
        grid = draw(st.sampled_from(grids))
        n = grid.n_cells
        states.append(RadialState(t, live_then_background(draw, n), live_then_background(draw, n), grid, rho_bar))
    return states


def shell_after_steps(rho_bar, n_steps=5):
    """A rarefied, inward shell after a few steps: negative density
    perturbations and momenta, then the background past the wave."""
    gas = GasModel(gamma=2.0, rho_bar=rho_bar)
    rho0, u0 = radial_outgoing_shell(0.3, 1.0)
    prof = InitialProfile(lambda r: -rho0(r), lambda r: -u0(r), epsilon=0.3, M=1.0, M0=0.3)
    s = init_state(gas, prof, RadialGrid(12.0, 128))
    for _ in range(n_steps):
        s = step(gas, DampingLaw(1.0, 2.0), s, 0.4)
    return s


def radial_case(rho_bar, grid, rho_pert=None, mom=None, t=0.5):
    n = grid.n_cells
    pert = np.zeros(n)
    moms = np.zeros(n)
    for col, cells in ((pert, rho_pert), (moms, mom)):
        for i, v in (cells or {}).items():
            col[i] = v
    return RadialState(t, pert, moms, grid, rho_bar)


G32, G40 = RadialGrid(3.0, 32), RadialGrid(7.5, 40)


@settings(max_examples=50, deadline=None)
@given(radial_snapshot_sets())
# -0.0 momentum inside the background tail; real shells on either side of rho_bar = 1
@example([radial_case(1.0, G32, {0: 0.25}, {0: 0.5, 20: -0.0})])
@example([shell_after_steps(0.7), shell_after_steps(2.5, 9)])
# rho_pert too small to move rho off rho_bar, in and after the live part
@example([radial_case(1.0, G32, {0: 0.1, 3: 1e-17, 9: -1e-17, 30: 1e-17})])
# all background; live to the last cell
@example([radial_case(2.5, G32), radial_case(0.7, G32, {31: 0.125})])
@example([RadialState(1.0, np.full(40, 0.5), np.full(40, -0.25), G40, 1.0)])
# two grids in one file, and back to the first
@example([radial_case(1.0, G32, {5: 0.1}), radial_case(1.0, G40, {5: 0.1}, t=1.0),
          radial_case(1.0, G32, {}, {7: -0.0}, t=2.0)])
# nan in the live part
@example([radial_case(0.7, G32, {2: math.nan, 4: 0.5}, {3: math.nan})])
def test_radial_snapshot_bytes_match_naive_writer(tmp_path_factory, snaps):
    path = tmp_path_factory.mktemp("radial") / "snapshots.csv"
    write_radial_snapshots(str(path), snaps)
    assert path.read_bytes() == naive_radial_snapshot_text(snaps).encode()


@st.composite
def line_snapshot_sets(draw):
    """Line snapshots on one or two x arrays; the two may differ only in the
    sign of a zero coordinate, which the file writes apart."""
    n = draw(st.integers(0, 40))
    x = np.array(draw(st.lists(VALUES, min_size=n, max_size=n)))
    xs = [x, np.where(x == 0.0, np.where(np.signbit(x), 0.0, -0.0), x)]
    return [Snapshot1D(t, draw(st.sampled_from(xs)), live_then_background(draw, n), 1.0)
            for t in sorted(draw(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=4)))]


@settings(max_examples=50, deadline=None)
@given(line_snapshot_sets())
@example([Snapshot1D(0.0, np.array([-0.0, 1.0]), np.array([1.0, 0.0]), 1.0),
          Snapshot1D(1.0, np.array([0.0, 1.0]), np.array([-0.0, 0.0]), 1.0)])
def test_line_snapshot_bytes_match_naive_writer(tmp_path_factory, snaps):
    path = tmp_path_factory.mktemp("line") / "snapshots.csv"
    write_line_snapshots(str(path), snaps)
    assert path.read_bytes() == naive_line_snapshot_text(snaps).encode()


def test_snapshot_writer_holds_one_block_at_a_time(tmp_path):
    # 128 blocks of 1,024 cells, live in the first 256 and background after:
    # the writer's traced peak is the grid's cached strings plus one block,
    # far below the file it writes (a writer that held the text of the whole
    # file peaked above the file's size).  The formatter's tables are built
    # inside the traced write, as in the first write of a process.
    _repr_tables.cache_clear()
    x = np.linspace(-1.0, 1.0, 1024)
    w = np.zeros(1024)
    w[:256] = np.sin(np.arange(256))
    snaps = [Snapshot1D(0.01 * k, x, (1.0 + k) * w, 1.0) for k in range(128)]
    path = tmp_path / "snapshots.csv"
    tracemalloc.start()
    try:
        write_line_snapshots(str(path), snaps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * path.stat().st_size


def assert_reprs_match_fmt(values):
    values = np.asarray(values, dtype=float)
    assert _reprs(values) == [fmt(v).encode() for v in values.tolist()]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_reprs_match_fmt_on_bit_patterns(patterns):
    assert_reprs_match_fmt(np.array(patterns, dtype=np.uint64).view(np.float64))


def test_reprs_match_fmt_on_random_bit_patterns():
    # many chunks of mixed signs, exponents and specials
    assert_reprs_match_fmt(np.random.default_rng(7).integers(0, 2**64, 30_000, dtype=np.uint64).view(np.float64))


def nudged(values):
    """``values`` with both their float neighbours, where those are finite."""
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore"):
        near = np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])
    return near[np.isfinite(near)]


@pytest.mark.parametrize("edges", [
    [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 1.0, -1.0],
    np.arange(1, 65537, dtype=np.uint64).view(np.float64),  # the smallest subnormals
    nudged(np.ldexp(1.0, np.arange(-1074, 1024))),  # powers of two
    nudged([float(f"1e{e}") for e in range(-323, 309)]),  # powers of ten
    # where repr turns from fixed to exponent notation, with longer digits
    nudged([1e-4, 1e-5, 1e16, 1.2345e-4, 9.87654321e-5, 9999999999999998.0, 123456789012345.67,
            -1e-4, -1e16, 0.00012345678901234567, 1e15, 1e17]),
    np.concatenate([nudged([5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]), [math.nan, 0.5]]),
], ids=["specials", "subnormals", "powers-of-two", "powers-of-ten", "layout-boundaries", "extremes"])
def test_reprs_match_fmt_on_edge_values(edges):
    edges = np.asarray(edges, dtype=float)
    assert_reprs_match_fmt(edges if len(edges) > 10_000 else np.concatenate([edges, -edges]))


# one value of each special layout, subnormals, and both sides of the 1e-4 and
# 1e16 boundaries between fixed and exponent notation
LAYOUT_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1e-310, 2.225073858507201e-308,
                1e-4, -9.999999999999999e-05, 9999999999999998.0, -1e16, 0.5, -123.456]


def layout_mix(n, seed):
    """``n`` values of random sign and decade in [1e-300, 1e301), with the
    layout edges spread among them."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(-10.0, 10.0, n) * 10.0 ** rng.integers(-300, 301, n)
    spots = rng.choice(n, min(n, 4 * len(LAYOUT_EDGES)), replace=False)
    values[spots] = np.resize(LAYOUT_EDGES, len(spots))
    return values


@pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7])
def test_reprs_match_fmt_across_pass_boundaries(n):
    assert_reprs_match_fmt(layout_mix(n, n))


def test_formatter_pass_memory_is_bounded():
    # one pass over _CHUNK values of every layout, its tables built first,
    # holds at most 130 bytes a value, the text it returns included
    _repr_tables()
    values = layout_mix(_CHUNK, 0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _reprs(values)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 130 * _CHUNK


def random_radial_snapshots(rng):
    """States on two grids of a few hundred to a thousand cells, some live up
    to a random cell, some to the last cell, some all background, with -0.0
    momenta and nan in the live part."""
    rho_bar = float(rng.choice([0.7, 1.0, 1e160]))
    grids = [RadialGrid(float(rng.uniform(0.5, 50.0)), int(rng.integers(300, 1100))) for _ in range(2)]
    states = []
    for t in np.sort(rng.uniform(0.0, 10.0, 6)):
        grid = grids[int(rng.integers(2))]
        n = grid.n_cells
        end = int(rng.choice([0, n, rng.integers(0, n)]))
        pert, mom = np.zeros(n), np.zeros(n)
        pert[:end] = rng.standard_normal(end) * 10.0 ** rng.integers(-18, 1, end) * rho_bar
        mom[:end] = rng.standard_normal(end) * 10.0 ** rng.integers(-300, 300, end)
        mom[rng.integers(0, n, 5)] = -0.0
        if end:
            pert[rng.integers(0, end)] = math.nan
            mom[rng.integers(0, end)] = math.nan
        states.append(RadialState(float(t), pert, mom, grid, rho_bar))
    return states


@pytest.mark.parametrize("seed", range(3))
def test_writers_match_the_repr_writers(tmp_path, seed):
    rng = np.random.default_rng(seed)
    snaps = random_radial_snapshots(rng)
    write_radial_snapshots(str(tmp_path / "a.csv"), snaps)
    repr_radial_snapshots(str(tmp_path / "b.csv"), snaps)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    lines = [Snapshot1D(s.t, s.grid.centers - 1.0, s.mom, 1.0) for s in snaps]
    write_line_snapshots(str(tmp_path / "a.csv"), lines)
    repr_line_snapshots(str(tmp_path / "b.csv"), lines)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    n = int(rng.integers(1, 3000))
    times = np.cumsum(rng.uniform(0.0, 1.0, n))
    columns = {"L": rng.standard_normal(n) * 1e-9, "H": -rng.standard_normal(n) * 1e200, "dt": rng.uniform(0, 1, n)}
    write_series(str(tmp_path / "a.csv"), times, columns)
    repr_write_series(str(tmp_path / "b.csv"), times, columns)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_snapshot_writer_peak_is_bounded_at_4096_cells(tmp_path):
    # two 4,096-cell blocks, live to the last cell: the writer holds the grid's
    # strings and one chunk of values, under half the traced peak of the
    # writer that held a block's values as lists of strings
    grid = RadialGrid(9.0, 4096)
    rng = np.random.default_rng(3)
    snaps = [RadialState(0.5 * k, rng.standard_normal(4096) * 1e-3, rng.standard_normal(4096) * 1e-5, grid, 1.0)
             for k in range(2)]
    peaks = []
    for writer in (write_radial_snapshots, repr_radial_snapshots):
        tracemalloc.start()
        try:
            writer(str(tmp_path / "snapshots.csv"), snaps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 0.5 * peaks[1]


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
    # before the first data row a line of spaces and tabs is skipped too
    path = tmp_path / "f.csv"
    path.write_text("# note\n\n \t\n# another\nx,w0\n  \n0,1.5\n\n# mid\n1,-0.0 # trailing\n2,3e-5\n")
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


# ---------------------------------------------------------------- path-fed reader against line-fed

def spaced_first_row(text):
    """``text`` with spaces and tabs around the fields of its first data row."""
    lines = text.splitlines(True)
    content = [i for i, line in enumerate(lines) if line.strip() and not line.strip().startswith("#")]
    first = content[1]
    lines[first] = "  " + " , ".join(lines[first].strip().split(",")) + " \t\n"
    return "".join(lines)


def comments_between_rows(text):
    """``text`` with a comment and a blank line after every third line."""
    lines = text.splitlines(True)
    return "".join(line + ("# between rows\n\n" if i % 3 == 2 else "") for i, line in enumerate(lines))


READ_VARIANTS = {
    "leading-blank-and-comment-lines": lambda text: "\n# written by hand\n   \n#\n" + text,
    "comments-between-rows": comments_between_rows,
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "spaced-first-row": spaced_first_row,
    "all": lambda text: spaced_first_row(comments_between_rows("\n# by hand\n\n" + text)).replace("\n", "\r\n"),
}


def assert_reads_as_line_fed(path):
    names, data = read_csv(str(path))
    ref_names, ref_data = line_fed_read_csv(str(path))
    assert names == ref_names
    assert data.shape == ref_data.shape and bits(data) == bits(ref_data)


@pytest.mark.parametrize("variant", READ_VARIANTS)
def test_read_radial_snapshots_matches_the_line_fed_reader(tmp_path, variant):
    states = [shell_after_steps(1.0, n) for n in (0, 3, 6)]
    for t, s in zip((0.0, 0.5, 1.0), states):
        s.t = t
    plain, path = tmp_path / "plain.csv", tmp_path / "snapshots.csv"
    write_radial_snapshots(str(plain), states)
    path.write_bytes(READ_VARIANTS[variant](plain.read_text()).encode())
    assert_reads_as_line_fed(path)
    back, expected = read_radial_snapshots(str(path), 1.0), read_radial_snapshots(str(plain), 1.0)
    assert len(back) == len(expected) == 3
    for got, want in zip(back, expected):
        assert got.t == want.t and got.grid == want.grid
        assert bits(got.rho_pert) == bits(want.rho_pert) and bits(got.mom) == bits(want.mom)


@pytest.mark.parametrize("variant", READ_VARIANTS)
def test_profile_file_matches_the_line_fed_reader(tmp_path, variant):
    rs = np.linspace(0.0, 1.0, 41).tolist()
    rows = "".join(f"{r!r},{(1.0 - r * r) ** 3!r},{0.5 * r * (1.0 - r * r) ** 2!r}\n" for r in rs)
    plain, path = tmp_path / "plain.csv", tmp_path / "profile.csv"
    plain.write_text("r,rho0,u0\n" + rows)
    path.write_bytes(READ_VARIANTS[variant](plain.read_text()).encode())
    assert_reads_as_line_fed(path)
    outputs = []
    for name, profile in (("a", plain), ("b", path)):
        out = tmp_path / name
        assert main(["euler-sim", "--profile.file", str(profile), "--profile.epsilon", "0.1", "--grid.r_max", "8",
                     "--grid.n_cells", "64", "--run.t_end", "1", "--output.dir", str(out)]) == 0
        outputs.append([(out / f).read_bytes() for f in ("series.csv", "snapshots.csv")])
    assert outputs[0] == outputs[1]


READ_ERRORS = {  # (header, a row, a short row, a row with a non-number)
    "snapshots": ("t,r,rho,mom", "0.0,0.5,1.0,0.0", "0.0,1.5,1.0", "0.0,1.5,abc,0.0"),
    "profile": ("r,rho0,u0", "0,1,0", "1,1", "1,abc,0"),
}


@pytest.mark.parametrize("kind", ["no-header-line", "no-data-rows", "ragged-rows", "non-number"])
@pytest.mark.parametrize("geometry", READ_ERRORS)
@pytest.mark.parametrize("crlf", [False, True])
def test_read_errors_match_the_line_fed_reader(tmp_path, capsys, kind, geometry, crlf):
    header, row, short, bad = READ_ERRORS[geometry]
    text = {
        "no-header-line": "# only comments\n\n   \n",
        "no-data-rows": f"# before\n{header}\n# none\n\n",
        "ragged-rows": f"{header}\n{row}\n# between\n\n{short}\n",
        "non-number": f"\n{header}\n {row} \n{row}\n{bad}\n",
    }[kind]
    path = tmp_path / "input.csv"
    path.write_bytes((text.replace("\n", "\r\n") if crlf else text).encode())
    with pytest.raises(ValueError) as ref:
        line_fed_read_csv(str(path))
    message = str(ref.value)
    assert message.startswith(f"{path}: ")
    with pytest.raises(ValueError) as raised:
        read_csv(str(path))
    assert str(raised.value) == message
    if geometry == "snapshots":
        with pytest.raises(ValueError) as raised:
            read_radial_snapshots(str(path), 1.0)
        assert str(raised.value) == message
    else:
        capsys.readouterr()
        assert main(["euler-sim", "--profile.file", str(path), "--profile.epsilon", "0.1",
                     "--output.dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config-error: key 'profile.file': {message}\n"
