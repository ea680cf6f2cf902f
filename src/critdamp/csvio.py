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
The writer formats the live values of consecutive blocks together, in batches
of at most ``_CHUNK`` values, and writes a batch's rows before it forms the
next.  Beside the grid's fixed strings it holds one batch's values and text
and one block's background rows, not the whole file, so a raise mid-write
(bad input or an I/O error) leaves a truncated file behind.

Every float column (series and snapshot files) goes through :func:`_reprs`.
Its contract: for every float64 value, the bytes of :func:`fmt`,
``repr(float(value))``, which stays the reference for single values.  Those
are the shortest digits that round-trip, nearest the value (ties to even
digits), in repr's layout: fixed notation for ``1e-4 <= |x| < 1e16``, else
``d.ddde-XX`` with two or three exponent digits; ``-0.0``, ``inf``, ``-inf``
and ``nan`` as repr writes them.  It computes them with numpy integer
arithmetic on the bit patterns, at most ``_CHUNK`` = 1,536 values per pass
instead of one ``repr`` call per value.  A pass's arrays, numpy's buffers and
the strings it returns peak at about 115 bytes a value (at most 130), so a
writer's peak memory is bounded by the chunk and the grid's strings, not by
the size of a block or a file.
"""

from __future__ import annotations

import functools
import itertools
import os
from typing import BinaryIO, Iterable, Mapping, Sequence

import numpy as np

from .euler import RadialGrid, RadialState
from .outcome import FiniteLifespan, Verdict, verdict_label


def fmt(value) -> str:
    return repr(float(value))


def write_series(path: str, times: np.ndarray, columns: Mapping[str, np.ndarray]) -> None:
    cols = [np.asarray(c, dtype=float) for c in (times, *columns.values())]
    text = iter(_reprs(np.concatenate(cols)))
    cells = [list(itertools.islice(text, len(c))) for c in cols]
    rows = b"".join(b",".join(row) + b"\n" for row in zip(*cells))
    write_text(path, "t," + ",".join(columns) + "\n" + rows.decode())


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
    first centre is dr / 2 exactly) and r_max = dr * n_cells, and consecutive
    blocks with the same r[0] and length share one grid; a block whose ``r``
    column that grid does not reproduce bit for bit is rejected, and so are a
    non-finite value and a density rho_bar + (rho - rho_bar) <= 0, the one a
    state carries."""
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
    states, key = [], None
    for block in np.split(data, np.flatnonzero((steps != 0) | (np.diff(data[:, 1]) <= 0)) + 1):
        t, r = float(block[0, 0]), block[:, 1]
        if (r[0], len(r)) != key:
            key = (r[0], len(r))
            try:
                grid = RadialGrid(r_max=float(2.0 * r[0] * len(r)), n_cells=len(r))
            except ValueError as exc:
                raise ValueError(f"{path}: the block at t={t!r}: {exc}") from exc
        if not np.array_equal(grid.centers, r):
            raise ValueError(f"{path}: the r column at t={t!r} is not a uniform cell-centred grid")
        states.append(RadialState(t, block[:, 2] - rho_bar, block[:, 3], grid, rho_bar))
    for s in states:  # after every grid check, as the monitors need rho > 0
        if s.rho.min() <= 0:
            raise ValueError(f"{path}: the block at t={s.t!r} holds a density that is not positive")
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

    The live rows of consecutive blocks are cut into pieces of at most
    ``_CHUNK`` values and batched, and each batch's values are formatted in
    one pass and written before the next batch is formed.  A raise
    mid-write leaves the file truncated after the last batch written."""
    grids: dict = {}
    batch: list = []
    size = 0
    with _create(path) as fh:
        fh.write(header.encode() + b"\n")
        for t, key, coords, values, background in blocks:
            bg = tuple(fmt(v).encode() for v in background)
            if (key, bg) not in grids:
                grids[key, bg] = _grid_text(coords, bg)
            r = grids[key, bg][0]
            columns = [np.asarray(v, dtype=float) for v in values]
            live = np.zeros(len(r), dtype=bool)
            for col, value in zip(columns, background):
                live |= col.view(np.int64) != np.float64(value).view(np.int64)
            end = len(r) - int(np.argmax(live[::-1])) if live.any() else 0
            t = fmt(t).encode()
            marker, lo = b"# t=" + t + b"\n", 0
            while True:  # pieces that fill the batch up to _CHUNK values
                hi = min(end, lo + (_CHUNK - size) // len(columns))
                batch.append((marker, t, grids[key, bg], lo, hi, hi == end, [col[lo:hi] for col in columns]))
                size += (hi - lo) * len(columns)
                if size + len(columns) > _CHUNK:
                    _write_rows(fh, batch)
                    batch, size = [], 0
                if hi == end:
                    break
                marker, lo = b"", hi
        _write_rows(fh, batch)


def _grid_text(coords: np.ndarray, background: tuple[bytes, ...]) -> tuple[list[bytes], bytes, np.ndarray]:
    """The strings of ``coords``, and the background rows as one string, each
    row ``\\0,coord,background...\\n`` with a NUL that stands for t, row i
    from ``starts[i]``.  The rows are joined _CHUNK at a time, so that the
    buffer table of bytes.join (80 bytes an item) stays small."""
    r = _reprs(coords)
    suffix = b"".join(b"," + v for v in background) + b"\n"
    rows = b"".join(b"\0," + (suffix + b"\0,").join(r[i:i + _CHUNK]) + suffix for i in range(0, len(r), _CHUNK))
    sizes = np.fromiter(map(len, r), dtype=np.intp, count=len(r)) + len(suffix) + 2
    return r, rows, np.append(0, np.cumsum(sizes))


def _write_rows(fh: BinaryIO, batch: list) -> None:
    """Write pieces ``(marker, t, grid, lo, hi, last, columns)``, ``grid`` as
    :func:`_grid_text` returns it: the marker, then a row ``t,coord,values...``
    for coordinates ``lo:hi``, joined ``_ROWS`` at a time, then, in the last
    piece of a block, the background rows from ``hi`` on.  The values of all
    pieces are formatted in one pass."""
    text = iter(_reprs(np.concatenate([c for piece in batch for c in piece[-1]] or [[]])))
    for marker, t, (coords, tail, starts), lo, hi, last, columns in batch:
        cells = [list(itertools.islice(text, hi - lo)) for _ in columns]
        fh.write(marker)
        rows = map(b",".join, zip(coords[lo:hi], *cells))
        while part := list(itertools.islice(rows, _ROWS)):
            fh.writelines((t, b",", (b"\n" + t + b",").join(part), b"\n"))
        if last:
            fh.write(tail[starts[hi]:].replace(b"\0", t))


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
        fh.write(text.encode("utf-8"))


def _create(path: str) -> BinaryIO:
    """``path`` opened for writing bytes, its directory made if missing."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return open(path, "wb")


def _write(path: str, lines: list[str]) -> None:
    write_text(path, "\n".join(lines) + "\n")


# Shortest round-trip float text, a chunk of values at a time.
#
# Digits: Schubfach (R. Giulietti, "The Schubfach way to render doubles",
# 2020; the reference is OpenJDK's DoubleToDecimal) finds the shortest decimal
# D 10^k in a value's rounding interval, the nearest one if several are that
# short (ties to even D).  It scales the value and the interval ends by 10^-k,
# taken from a 126-bit table g(k), with products rounded to odd; those products
# are formed here from 32-bit limbs in uint64 exactly as the reference forms
# them from 64-bit words.  D, padded to 17 digits, becomes ASCII in three
# little-endian uint64 words, and a layout code (sign, and the decimal point's
# place, or the exponent form) shifts and masks those words into repr's text.

_CHUNK = 1536  # values per pass: numpy call overhead falls with it, memory and cache misses grow
_ROWS = 512  # rows per join: bytes.join holds an 80-byte buffer per row beside the rows
_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_INF_BITS = _U(0x7FF0000000000000)
_SHAPES = 21  # the fixed layouts, decimal exponent -3..16, then the exponent form
_SPECIAL = (b"0.0", b"-0.0", b"inf", b"-inf", b"nan")  # layout codes 0..4
_POW10 = 10 ** np.arange(18, dtype=_U)


def _reprs(values: np.ndarray) -> list[bytes]:
    """The bytes of :func:`fmt` of each element of a float array, in order."""
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    out: list[bytes] = []
    for i in range(0, x.size, _CHUNK):
        out += _repr_chunk(x[i:i + _CHUNK])
    return out


def _flog2pow10(e):
    return (e * 913124641741) >> 38  # floor(log2(10^e)) for |e| <= 1233


def _words(rows: Iterable[bytes]) -> np.ndarray:
    """Byte strings of at most 24 bytes as (3, len) little-endian uint64 words."""
    buf = b"".join(r.ljust(24, b"\0") for r in rows)
    return np.frombuffer(buf, dtype="<u8").reshape(-1, 3).T.copy()


@functools.cache
def _repr_tables() -> tuple:
    """The tables :func:`_repr_chunk` reads, built on the first call, one
    group at a time so that each group's work arrays are freed before the next."""
    return (_pow10_limbs(), *_exponent_rows(), *_decpt_rows(), *_repr_layouts())


def _pow10_limbs() -> np.ndarray:
    """g(k) = floor(10^-k 2^-r) + 1 with r = flog2pow10(-k) - 125, for k =
    -324..292, as the 32-bit limbs of g mod 2^63 and of g >> 63."""
    halves, p = [], 10**324  # p = 10^|k|
    for k in range(-324, 293):
        r = _flog2pow10(-k) - 125
        g = (p >> r if r >= 0 else p << -r) + 1 if k <= 0 else (1 << -r) // p + 1
        halves.append((g & (2**63 - 1)).to_bytes(8, "little") + (g >> 63).to_bytes(8, "little"))
        p = p // 10 if k < 0 else p * 10
    g = np.frombuffer(b"".join(halves), dtype="<u8").reshape(-1, 2).T
    return np.stack([g[0] & _M32, g[0] >> _U(32), g[1] & _M32, g[1] >> _U(32)])


def _exponent_rows() -> tuple:
    """By row = 2 * biased exponent + (fraction == 0): k + 324, the shift h,
    and the lower half-gap, halved below a power of two (an irregular interval)."""
    be = np.arange(2048)
    q = np.maximum(be, 1) - 1075
    k = np.stack([q * 661971961083 >> 41, q * 661971961083 - 274743187321 >> 41], axis=1)
    irregular = be > 1
    k[:, 1] = np.where(irregular, k[:, 1], k[:, 0])
    k = k.ravel()
    h = q.repeat(2) + _flog2pow10(-k) + 2
    lower = np.stack([np.full(2048, 2), 2 - irregular], axis=1).ravel()
    return (k + 324).astype(np.int16), h.astype(np.uint8), lower.astype(np.uint8)


def _decpt_rows() -> tuple:
    """By decimal exponent + 350: the layout, and the exponent text (0 in
    fixed layouts)."""
    decpt = np.arange(-350, 350)
    shape = np.where((decpt > -4) & (decpt < 17), decpt + 3, _SHAPES - 1)
    tails = [b"e%+03d" % (d - 1) if s == _SHAPES - 1 else b"" for s, d in zip(shape.tolist(), decpt.tolist())]
    return shape.astype(np.int8), np.frombuffer(b"".join(t.ljust(8, b"\0") for t in tails), dtype="<u8")


def _repr_layouts() -> tuple:
    """By layout code: the byte shift of the digits (and 64 bits less it), the
    masks of the digits before and after a decimal point, which move one byte
    further, and the constant bytes; the text length by (code, digit count);
    and by length L, the mask of the first L bytes and the bit shifts that
    put an exponent word at byte L, as one (9, 25) table."""
    shifts, mask_a, mask_b, const, length = [], [], [], [], []
    for code in range(5 + 2 * _SHAPES):
        sign, shape = divmod(code - 5, _SHAPES)
        if code < 5:  # zero, inf, nan: constant text
            a = 0
            text, keep = _SPECIAL[code], (0, 0, 0, 0)
            lens = [len(text)] * 18
        elif shape > 3:  # dd.ddd, or d.ddd before e+XX
            p = 1 if shape == _SHAPES - 1 else shape - 3  # digits before the point
            a = sign
            text, keep = b"-"[:sign] + bytes(p) + b".", (sign, sign + p, sign + p + 1, 24)
            lens = [sign + (n + (n > 1) if shape == _SHAPES - 1 else max(n, p + 1) + 1) for n in range(18)]
        else:  # 0.000ddd
            a = sign + 5 - shape
            text, keep = b"-"[:sign] + b"0." + b"0" * (3 - shape), (a, 24, 0, 0)
            lens = [a + n for n in range(18)]
        shifts.append([8 * a, 64 - 8 * a])
        mask_a.append(bytes(keep[0]) + b"\xff" * (keep[1] - keep[0]))
        mask_b.append(bytes(keep[2]) + b"\xff" * (keep[3] - keep[2]))
        const.append(text)
        length.append(lens)
    sh = 8 * np.arange(25) - 64 * np.arange(3)[:, None]  # bit offset of byte L in word j
    by_length = np.concatenate([_words(b"\xff" * n for n in range(25)),
                                np.where(sh >= 0, sh, 64).astype(_U), np.where(sh < 0, -sh, 64).astype(_U)])
    return (np.array(shifts, dtype=_U).T.copy(), _words(mask_a), _words(mask_b), _words(const),
            np.array(length, dtype=np.int8).ravel(), by_length)


def _times(limbs: np.ndarray, table: np.ndarray, ki: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out`` = ``limbs * table[ki]``, one row at a time: numpy copies an
    operand broadcast over all rows to a buffer of the rows' size."""
    t = table.take(ki)
    for a, o in zip(limbs, out):
        np.multiply(a, t, out=o)
    return out


def _repr_chunk(x: np.ndarray) -> list[bytes]:
    """:func:`_reprs` of one chunk, a contiguous float64 array.  The work
    arrays are deleted as soon as they are spent, to keep the peak low."""
    (g, kidx, hshift, lower, shapes, tails,
     shifts, mask_a, mask_b, const, length, by_length) = _repr_tables()
    bits = x.view(_U)
    mag = bits & _U(2**63 - 1)
    regular = (mag - _U(1)) < _INF_BITS - _U(1)  # finite and nonzero
    special = not regular.all()
    if special:  # format 1.0 in their place; their layout codes below ignore the digits
        mag = np.where(regular, mag, _U(0x3FF0000000000000))
    row = (mag >> _U(52)).astype(np.intp)
    row <<= 1
    row |= (mag << _U(12)) == 0
    # cp: the significand c times 4, minus its lower and plus its upper
    # half-gap, shifted by h; then its 32-bit limbs
    c = mag & _U(2**52 - 1)
    c |= (mag >= _U(2**52)).astype(_U) << _U(52)
    cp = np.empty((3, len(x)), _U)
    np.left_shift(c, _U(2), out=cp[1])
    np.subtract(cp[1], lower[row], out=cp[0])
    np.add(cp[1], _U(2), out=cp[2])
    cp <<= hshift[row]
    ki = kidx[row].astype(np.intp)
    del c, row, mag
    # T = floor(cp g1 / 2) + floor(cp g0 / 2^64) from the 32-bit limbs c0, c1
    # of cp and g[0..3] of g, as the reference forms it; v = floor(T / 2^63),
    # rounded to odd.  As cp < 2^60 and g[1], g[3] < 2^31, a column sum of
    # whole limb products stays below 2^64, and its carry is its high half.
    c1 = cp >> _U(32)
    cp &= _M32
    c0 = cp
    del cp
    z = _times(c0, g[0], ki, np.empty_like(c0))
    z >>= _U(32)
    p = _times(c0, g[1], ki, np.empty_like(c0))
    z += p
    z += _times(c1, g[0], ki, p)
    z >>= _U(32)
    z += _times(c1, g[1], ki, p)  # floor(cp g0 / 2^64)
    _times(c0, g[2], ki, p)
    col = _times(c0, g[3], ki, c0)
    del c0
    for j in range(3):  # row by row, as p >> 32 would be one more (3, n) array
        col[j] += p[j] >> _U(32)
    p &= _M32
    p >>= _U(1)
    z += p
    col += _times(c1, g[2], ki, p)  # floor(cp g1 / 2^32) - c1 g[3] 2^32
    v = _times(c1, g[3], ki, c1)
    del c1
    np.left_shift(col, _U(32), out=p)
    p >>= _U(1)
    z += p  # T mod 2^64 = (cp g1 mod 2^64) / 2 + floor(cp g0 / 2^64)
    col >>= _U(32)
    v += col  # floor(cp g1 / 2^64)
    np.right_shift(z, _U(63), out=p)
    v += p
    z <<= _U(1)
    np.minimum(z, _U(1), out=z)
    v |= z
    del z, p, col
    vbl, vb, vbr = v
    # the candidates s, s + 1 (units of 10^k) and the multiples of ten around s
    odd = bits & _U(1)  # the interval ends belong to it when c is even
    vbl += odd
    vbr -= odd
    s = vb >> _U(2)
    s10 = s // _U(10)
    s10 *= _U(10)
    s40 = s10 << _U(2)
    u10_in = vbl <= s40
    s40 += _U(40)
    w10_in = s40 <= vbr
    rem = vb & _U(3)
    vb -= rem
    u_in = vbl <= vb
    vb += _U(4)
    w_in = vb <= vbr
    del v, vbl, vb, vbr, s40, odd
    rem += s & _U(1)
    up = rem > _U(2)  # s + 1 is nearer, or as near and s is odd
    up |= ~u_in
    up &= w_in
    s += up
    np.copyto(s, s10, where=u10_in)
    s10 += _U(10)
    np.copyto(s, s10, where=w10_in)
    del s10, rem, up, u_in, w_in, u10_in, w10_in
    # D = s to 17 digits; a normal value's has 16 or 17
    if special or s.min() < _U(10**15):
        n_digits = np.searchsorted(_POW10, s, side="right")
        s *= _POW10[17 - n_digits]
    else:
        n_digits = (s >= _U(10**16)).astype(np.intp)
        n_digits += 16
        s *= _POW10.take(17 - n_digits)
    decpt = ki
    decpt += n_digits - 324  # the value is 0.ddd 10^decpt
    del ki, n_digits
    # D = first digit, then two 8-digit halves, each spread into its 8 bytes
    # (first digit lowest) by halving it into 4-, 2- and 1-digit lanes
    first = s // _U(10**16)
    s -= first * _U(10**16)
    lanes = np.empty((2, len(x)), _U)
    np.floor_divide(s, _U(10**8), out=lanes[0])
    np.subtract(s, lanes[0] * _U(10**8), out=lanes[1])
    del s
    high = lanes // _U(10**4)
    lanes -= high * _U(10**4)
    lanes <<= _U(32)
    lanes |= high
    np.multiply(lanes, _U(5243), out=high)  # x // 100 = x * 5243 >> 19 for x < 10^4
    high >>= _U(19)
    high &= _U(0x0000007F0000007F)
    lanes -= high * _U(100)
    lanes <<= _U(16)
    lanes |= high
    np.multiply(lanes, _U(103), out=high)  # x // 10 = x * 103 >> 10 for x < 100
    high >>= _U(10)
    high &= _U(0x000F000F000F000F)
    lanes -= high * _U(10)
    lanes <<= _U(8)
    lanes |= high
    del high
    # significant digits: 1 + the place of the last nonzero byte
    used = np.frexp(lanes.astype(np.float64))[1]
    used += 7
    used >>= 3  # nonzero bytes up to the last one, per half
    n = np.where(used[1] > 0, used[1] + 9, used[0] + 1)
    del used
    lanes += _U(0x3030303030303030)
    digits = np.empty((3, len(x)), _U)
    np.add(first, _U(48), out=digits[0])
    digits[0] |= lanes[0] << _U(8)
    np.right_shift(lanes[0], _U(56), out=digits[1])
    digits[1] |= lanes[1] << _U(8)
    np.right_shift(lanes[1], _U(56), out=digits[2])
    del lanes, first
    # the layout code, the exponent text and the text length
    negative = (bits >> _U(63)).astype(np.intp)
    code = shapes[decpt + 350].astype(np.intp)
    code += negative * _SHAPES + 5
    if special:
        mag = bits & _U(2**63 - 1)
        code = np.where(regular, code, np.where(mag == 0, negative, np.where(mag == _INF_BITS, 2 + negative, 4)))
    tail = tails[decpt + 350]
    cut = length.take(code * 18 + n)
    del decpt, n, negative, regular
    # the digits moved by the code's byte shift, and moved one byte further
    # for the digits after a decimal point, each masked, and the constant bytes
    sh = shifts.take(code, axis=1)
    out = digits << sh[0]
    digits >>= sh[1]
    out[1:] |= digits[:2]
    del digits, sh
    after = out << _U(8)
    after[1:] |= out[:2] >> _U(56)
    after &= mask_b.take(code, axis=1)
    out &= mask_a.take(code, axis=1)
    out |= after
    del after
    out |= const.take(code, axis=1)
    del code
    # cut at the text's length, then put the exponent text there ("clip": a
    # take that may raise fills a copy of its out array first)
    cut = cut.astype(np.intp)
    words = by_length[:3].take(cut, axis=1)
    out &= words
    np.take(by_length[3:6], cut, axis=1, out=words, mode="clip")
    np.left_shift(tail, words, out=words)
    out |= words
    np.take(by_length[6:], cut, axis=1, out=words, mode="clip")
    np.right_shift(tail, words, out=words)
    out |= words
    del tail, cut, words
    text = np.ascontiguousarray(out.T)
    del out
    return text.view("S24").ravel().tolist()
