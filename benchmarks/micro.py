"""Warm micro-benchmarks of single layers on fixed inputs.

Usage: python3 micro.py <work dir>   (critdamp importable on PYTHONPATH)

Prints one JSON object of per-layer metrics.  Every input is fixed, so the
numbers do not depend on the workload or seed of the run that asks for them.
Each figure is the median over repeats of the mean time per call.
"""

import json
import os
import statistics
import sys
import time

import numpy as np

from critdamp import burgers, csvio, euler, monitors
from critdamp.damping import DampingLaw
from critdamp.gas import GasModel
from critdamp.profiles import line_bump, radial_outgoing_shell

GAS = GasModel(gamma=2.0, rho_bar=1.0)
DAMPING = DampingLaw(mu=1.0, lam=2.0)
CFL = 0.4


def per_call(fn, repeats: int, number: int) -> float:
    """Median over ``repeats`` of the mean seconds per call of ``fn``."""
    fn()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - t0) / number)
    return statistics.median(samples)


def mid_run_state(n_cells: int, t_mid: float) -> euler.RadialState:
    """Outgoing-shell state advanced to ``t_mid`` on the radial-step domain."""
    rho0, u0 = radial_outgoing_shell(0.3, 1.0)
    profile = euler.InitialProfile(rho0, u0, epsilon=0.3, M=1.0, M0=0.3)
    state = euler.init_state(GAS, profile, euler.RadialGrid(r_max=9.0, n_cells=n_cells))
    while state.t < t_mid:
        state = euler.step(GAS, DAMPING, state, CFL)
    return state


def main() -> None:
    work_dir = sys.argv[1]
    out = {}
    for n in (1024, 8192):
        state = mid_run_state(n, 0.25)
        sec = per_call(lambda: euler.step(GAS, DAMPING, state, CFL), repeats=7, number=81920 // n)
        out[f"euler.step.ns_per_cell.n{n}"] = sec / n * 1e9

    rho = 1.0 + 0.3 * np.sin(np.linspace(0.0, 20.0, 8192))
    for name in ("pressure", "sound_speed_sq"):
        kernel = getattr(GAS, name)
        out[f"gas.{name}.ns_per_elem"] = per_call(lambda: kernel(rho), repeats=7, number=1000) / rho.size * 1e9

    def classify():
        # Fresh callables give a fresh cache key, so every call classifies.
        value, deriv, support = line_bump(1.0)
        problem = burgers.BurgersProblem(value, deriv, support, 0.5, DampingLaw(mu=0.3, lam=0.7))
        return burgers.classify_lifespan(problem)

    out["burgers.classify_lifespan.ms.lam0_7"] = per_call(classify, repeats=3, number=1) * 1e3
    out["monitors.blowup_criterion.ms"] = per_call(
        lambda: monitors.blowup_criterion(1.0, 0.5, 1.0, DampingLaw(mu=1.0, lam=1.0), GAS, 10.0),
        repeats=5, number=10,
    ) * 1e3

    snaps = [mid_run_state(1024, 1.0)] * 40
    path = os.path.join(work_dir, "micro_snapshots.csv")
    write_s = per_call(lambda: csvio.write_radial_snapshots(path, snaps), repeats=3, number=1)
    read_s = per_call(lambda: csvio.read_radial_snapshots(path, GAS.rho_bar), repeats=3, number=1)
    megabytes = os.path.getsize(path) / 1e6
    os.remove(path)
    out["csvio.write.mb_per_s"] = megabytes / write_s
    out["csvio.read.mb_per_s"] = megabytes / read_s
    print(json.dumps(out))


if __name__ == "__main__":
    main()
