"""Outside-in span recording for one traced CLI invocation.

``install`` replaces the module attributes and class methods that each layer
of ``critdamp`` is called through with wrappers that record a span per call:
name, thread, start, end and parent span.  Parents are tracked per thread,
because ``sweep`` classifies on pool threads.  Spans stay in memory and are
written out by :meth:`Recorder.dump` after the invocation returns.  Nothing
in ``critdamp`` itself is modified on disk.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np


class Recorder:
    """In-memory span list plus named counters for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, thread, start, end, parent record]
        self.counters: Counter = Counter()
        self.laws: set[tuple[float, float]] = set()
        self.snapshots: list = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def add(self, counter: str, amount: int) -> None:
        """Thread-safe counter increment (pool threads count too)."""
        with self._lock:
            self.counters[counter] += amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        rec = [name, threading.get_ident(), time.perf_counter(), 0.0, stack[-1] if stack else None]
        stack.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self._stack().pop()
        self.spans.append(rec)

    def wrap(self, name: str, fn, hook=None):
        """Wrap ``fn`` in a span; ``hook(args, kwargs)`` updates counters first."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self.open(name)
            try:
                if hook is not None:
                    hook(args, kwargs)
                return fn(*args, **kwargs)
            finally:
                self.close(rec)

        return wrapper

    def dump(self, path: str) -> None:
        """Write spans (parent as an index) and counters as JSON."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        spans = [
            [name, tid, start, end, index[id(parent)] if parent is not None else -1]
            for name, tid, start, end, parent in self.spans
        ]
        off = total = 0
        for snap in self.snapshots:
            off += int(np.count_nonzero((snap.rho_pert != 0.0) | (snap.mom != 0.0)))
            total += snap.rho_pert.size
        counters = dict(self.counters)
        counters["euler.snapshot_cells"] = total
        counters["euler.snapshot_cells_off_background"] = off
        counters["damping.distinct_laws"] = len(self.laws)
        counters["main_thread"] = threading.main_thread().ident
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "counters": counters}, fh)


def install(rec: Recorder):
    """Wrap every traced layer boundary; returns the wrapped ``cli.main``."""
    from critdamp import burgers, cli, csvio, damping, euler, monitors, numerics
    from critdamp.damping import DampingLaw
    from critdamp.gas import GasModel

    def patch(owner, attr: str, name: str, hook=None) -> None:
        setattr(owner, attr, rec.wrap(name, getattr(owner, attr), hook))

    def on_step(args, kwargs):
        rec.add("euler.cell_updates", args[2].grid.n_cells)

    def on_radial_write(args, kwargs):
        rec.snapshots.extend(args[1])

    def on_read(args, kwargs):
        rec.add("csvio.bytes_read", os.path.getsize(args[0]))

    def on_limit(args, kwargs):
        rec.laws.add((args[0].mu, args[0].lam))

    patch(cli, "parse_config", "config.parse_config")
    patch(euler, "step", "euler.step", on_step)
    for attr in ("stable_dt", "max_velocity_gradient", "init_state", "run"):
        patch(euler, attr, f"euler.{attr}")
    for attr in ("pressure", "sound_speed_sq", "enthalpy", "pressure_excess"):
        patch(GasModel, attr, f"gas.{attr}")
    for attr in ("mass_excess", "weighted_momentum", "weighted_potential_energy", "blowup_criterion"):
        patch(monitors, attr, f"monitors.{attr}")
    patch(csvio, "write_radial_snapshots", "csvio.write_radial_snapshots", on_radial_write)
    patch(csvio, "read_radial_snapshots", "csvio.read_radial_snapshots", on_read)
    for attr in ("write_line_snapshots", "write_series", "write_sweep", "write_verdict"):
        patch(csvio, attr, f"csvio.{attr}")
    patch(DampingLaw, "reciprocal_integral_limit", "damping.reciprocal_integral_limit", on_limit)
    patch(DampingLaw, "log_integrating_factor", "damping.log_integrating_factor")
    for attr in ("classify_lifespan", "simulate_fv", "max_negative_slope"):
        patch(burgers, attr, f"burgers.{attr}")
    patch(burgers, "scan_maximum", "numerics.scan_maximum")
    patch(burgers, "solve_bracketed", "numerics.solve_bracketed")

    # csvio writes every file through write_text: count rows and bytes there,
    # without a span, so csvio self time stays with the write_* callers.
    write_text = csvio.write_text

    def counted_write_text(path, text):
        rec.add("csvio.rows_written", text.count("\n"))
        rec.add("csvio.bytes_written", len(text.encode("utf-8")))
        return write_text(path, text)

    csvio.write_text = counted_write_text

    # adaptive_quad is imported by name into several modules; wrap each copy
    # and count integrand abscissae by wrapping ``f``.
    quad = numerics.adaptive_quad

    def counted_quad(f, *args, **kwargs):
        def f_counted(x):
            rec.add("numerics.adaptive_quad.evals", int(np.size(x)))
            return f(x)

        return quad(f_counted, *args, **kwargs)

    traced_quad = rec.wrap("numerics.adaptive_quad", counted_quad)
    for module in (numerics, damping, monitors, cli):
        module.adaptive_quad = traced_quad

    class TracedPool(ThreadPoolExecutor):
        """Records the sweep pool size and the span it is open for."""

        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            rec.counters["cli.sweep.threads"] = max_workers or 0

        def __enter__(self):
            self._span = rec.open("cli.sweep.pool")
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                rec.close(self._span)

    cli.ThreadPoolExecutor = TracedPool
    return rec.wrap("cli.main", cli.main)
