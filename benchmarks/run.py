"""Benchmark of the critdamp command line, one fresh process per invocation.

Usage, from the repository root:

    python3 benchmarks/run.py --workload radial-step --seed 1 --seconds 20 --trace 0

``--workload`` is ``radial-step``, ``radial-io``, ``line`` or ``all``.  The seed
draws the workload's CLI parameters; the program only sees the generated
argv.  Iterations run back to back (a closed loop with one client) until
``--seconds`` have passed.  Each invocation runs ``critdamp.cli.main`` in its
own child process with a fresh output directory, and its artifacts are
checked and hashed before the directory is removed.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` it reports per-layer metrics from span-traced iterations,
interleaved with untraced ones to measure the tracing overhead, plus warm
micro-benchmarks.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
CHILD_TIMEOUT_S = 150
CPUS = sorted(os.sched_getaffinity(0))
NPROC = len(CPUS)
SWEEP_THREADS = min(2, NPROC)
# Seconds child.reference_loop takes on an uncontended vCPU of the machine
# described in README.md.  Times are rescaled to that speed (see Runner.invoke).
REFERENCE_S = 0.040

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
LAYERS = ("cli", "config", "euler", "gas", "monitors", "csvio", "damping", "numerics", "burgers")
# Spans during which the main thread only waits for the sweep's pool threads.
WAIT_SPANS = ("cli.sweep.pool",)
MICRO = {
    "euler.step.ns_per_cell.n1024": "ns",
    "euler.step.ns_per_cell.n8192": "ns",
    "gas.pressure.ns_per_elem": "ns",
    "gas.sound_speed_sq.ns_per_elem": "ns",
    "burgers.classify_lifespan.ms.lam0_7": "ms",
    "monitors.blowup_criterion.ms": "ms",
    "csvio.write.mb_per_s": "MB/s",
    "csvio.read.mb_per_s": "MB/s",
}
PER_LAYER = {
    "euler.step.calls": "count",
    "euler.step.self_s": "s",
    "euler.stable_dt.calls": "count",
    "euler.stable_dt.s": "s",
    "euler.max_velocity_gradient.calls": "count",
    "euler.max_velocity_gradient.s": "s",
    "euler.init_state.calls": "count",
    "euler.run.self_s": "s",
    "euler.cell_updates": "count",
    "euler.support_fraction": "ratio",
    "gas.pressure.calls": "count",
    "gas.pressure.s": "s",
    "gas.sound_speed_sq.calls": "count",
    "gas.sound_speed_sq.s": "s",
    "gas.enthalpy.s": "s",
    "gas.pressure_excess.s": "s",
    "monitors.mass_excess.s": "s",
    "monitors.weighted_momentum.s": "s",
    "monitors.weighted_potential_energy.s": "s",
    "monitors.calls": "count",
    "csvio.write_radial_snapshots.s": "s",
    "csvio.read_radial_snapshots.s": "s",
    "csvio.write_line_snapshots.s": "s",
    "csvio.write_series.s": "s",
    "csvio.rows_written": "count",
    "csvio.bytes_written": "B",
    "csvio.bytes_read": "B",
    "damping.reciprocal_integral_limit.calls": "count",
    "damping.reciprocal_integral_limit.s": "s",
    "damping.reciprocal_integral_limit.distinct_ratio": "ratio",
    "damping.log_integrating_factor.calls": "count",
    "numerics.adaptive_quad.calls": "count",
    "numerics.adaptive_quad.s": "s",
    "numerics.adaptive_quad.evals": "count",
    "numerics.scan_maximum.s": "s",
    "numerics.solve_bracketed.calls": "count",
    "burgers.classify_lifespan.calls": "count",
    "burgers.classify_lifespan.s": "s",
    "burgers.classify_lifespan.max_ms": "ms",
    "burgers.simulate_fv.s": "s",
    "burgers.max_negative_slope.calls": "count",
    "config.parse_config.s": "s",
    "cli.sweep.threads": "count",
    "cli.sweep.pool_util": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    **MICRO,
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Invocation:
    """One CLI call: mode plus ``--key value`` parameters."""

    mode: str
    params: dict[str, str]
    # functionals recomputes the series from the previous call's snapshots.
    from_previous: bool = False

    def argv(self, out_dir: str) -> list[str]:
        argv = [self.mode]
        for key, value in self.params.items():
            argv += [f"--{key}", value]
        return argv + ["--output.dir", out_dir]

    def value(self, key: str) -> float:
        return float(self.params[key])

    def values(self, key: str) -> list[float]:
        return [float(v) for v in self.params[key].split(",")]


def _num(x: float) -> str:
    return f"{x:.4f}"


def _radial_params(rng: random.Random) -> dict[str, str]:
    return {
        "profile.name": "outgoing-shell",
        "profile.M0": "0.3",
        "profile.epsilon": _num(rng.uniform(0.2, 0.4)),
        "damping.lambda": _num(rng.uniform(1.5, 3.0)),
        "damping.mu": _num(rng.uniform(0.5, 1.5)),
    }


def radial_step(rng: random.Random, tiny: bool) -> list[Invocation]:
    n, t_end, cadence = ("128", "0.5", "0.25") if tiny else ("4096", "3", "1")
    params = {**_radial_params(rng), "grid.n_cells": n, "run.t_end": t_end, "run.monitor_cadence": cadence}
    return [Invocation("euler-sim", params)]


def radial_io(rng: random.Random, tiny: bool) -> list[Invocation]:
    n, t_end, cadence = ("128", "2", "0.5") if tiny else ("1024", "20", "0.1")
    params = {**_radial_params(rng), "grid.n_cells": n, "run.t_end": t_end, "run.monitor_cadence": cadence}
    return [Invocation("euler-sim", params), Invocation("functionals", params, from_previous=True)]


def line(rng: random.Random, tiny: bool) -> list[Invocation]:
    # lambda spans the four regimes 0, (0, 1), 1 and > 1.  The law (0.7, 0.3)
    # classifies about 10x slower than the rest; it is fixed so that every
    # seed pays it.  Interior-lambda laws with mu < 0.5 are slow or fast
    # unpredictably, so the seed only draws mu >= 0.5, where the cost is flat.
    sweep = {
        "sweep.lambda": ",".join(["0", "0.7", "1", _num(rng.uniform(1.5, 3.0))]),
        "sweep.mu": ",".join(["0.3", _num(rng.uniform(0.5, 0.9)), _num(rng.uniform(1.1, 2.0))]),
        "sweep.epsilon": ",".join(sorted(_num(rng.uniform(0.1, 0.6)) for _ in range(3))),
    }
    # eps <= 0.1 keeps the crossing time above I^-1(12.5) > 10 = t_end.
    sim = {
        "profile.epsilon": _num(rng.uniform(0.08, 0.1)),
        "damping.lambda": _num(rng.uniform(1.5, 3.0)),
        "damping.mu": _num(rng.uniform(0.5, 1.5)),
        "grid.n_cells": "256" if tiny else "4096",
        "run.t_end": "10",
        "run.monitor_cadence": "5",
    }
    return [Invocation("sweep", sweep), Invocation("burgers-sim", sim)]


WORKLOADS = {"radial-step": radial_step, "radial-io": radial_io, "line": line}


def check_outputs(inv: Invocation, out: Path, digest: dict[str, str],
                  previous: dict[str, str] | None) -> list[str]:
    """Artifact checks for one invocation; ``digest`` holds its artifacts'
    digests and ``previous`` those of the invocation before it."""
    if inv.mode in ("euler-sim", "functionals"):
        problems = checks.check_radial_series(
            out / "series.csv", inv.value("run.t_end"), inv.value("run.monitor_cadence")
        )
        if inv.mode == "euler-sim":
            problems += checks.check_no_nonfinite(out / "snapshots.csv")
            problems += checks.check_global_verdict(out / "verdict.txt")
        elif previous is None or digest.get("series.csv") != previous.get("series.csv"):
            problems.append("functionals series.csv differs from the one euler-sim wrote")
        return problems
    if inv.mode == "sweep":
        return checks.check_sweep(
            out / "sweep.csv", inv.values("sweep.lambda"), inv.values("sweep.mu"),
            inv.values("sweep.epsilon"), checks.bump_max_negative_slope(),
        )
    if inv.mode == "burgers-sim":
        return (
            checks.check_line_series(
                out / "series.csv", inv.value("run.t_end"), inv.value("run.monitor_cadence"),
                inv.value("damping.mu"), inv.value("damping.lambda"),
            )
            + checks.check_no_nonfinite(out / "snapshots.csv")
            + checks.check_global_verdict(out / "verdict.txt")
        )
    raise ValueError(f"no checks for mode {inv.mode!r}")


def corrupt_series(path: Path) -> None:
    """Flip one digit of L in the last row (used only by the self-check)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[-1].split(",")
    digits = [i for i, ch in enumerate(fields[1]) if ch.isdigit()]
    i = digits[3]
    fields[1] = fields[1][:i] + str((int(fields[1][i]) + 1) % 10) + fields[1][i + 1:]
    lines[-1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass
class Sample:
    """One workload iteration: sums over its invocations."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    unscaled_wall_s: float = 0.0
    peak_kib: int = 0
    traces: list[dict] = field(default_factory=list)


class InvocationError(RuntimeError):
    pass


class Runner:
    """Runs one workload's iterations and keeps the failure and digest books."""

    def __init__(self, workload: str, seed: int, *, tiny: bool = False, corrupt: bool = False):
        self.invocations = WORKLOADS[workload](random.Random(f"{workload}:{seed}"), tiny)
        self.corrupt = corrupt
        self.reference: list[dict[str, str] | None] = [None] * len(self.invocations)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_s: list[float] = []
        self.speeds: list[float] = []
        # Children run here and get relative output directories, so that
        # verdict.txt (which echoes output.dir) hashes the same in any checkout.
        self.base = WORK / str(os.getpid())

    def new_dir(self, name: str) -> Path:
        path = self.base / name
        path.mkdir(parents=True)
        return path

    def spawn(self, script: str, arg: str, threads: int) -> tuple[float, dict]:
        """Run a child script; returns its spawn time and its last stdout line."""
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            CRITDAMP_THREADS=str(threads),
        )
        t_spawn = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / script), arg],
            cwd=self.base, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise InvocationError(f"{script} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
        return t_spawn, json.loads(lines[-1])

    def invoke(self, j: int, out: Path, *, traced: bool, threads: int,
               previous: dict[str, str] | None) -> tuple[dict | None, dict[str, str] | None]:
        """One checked invocation; returns the child's report and the digests."""
        inv = self.invocations[j]
        spans_path = out.with_name(out.name + ".spans.json") if traced else None
        # sweep classifies on a thread pool; every other mode runs on one
        # thread, pinned so that the reference loop times the CPU it runs on.
        cpus = CPUS if inv.mode == "sweep" else CPUS[-1:]
        spec = {"argv": inv.argv(out.name), "spans": str(spans_path) if traced else None,
                "cpus": cpus}
        self.attempted += 1
        report = digest = None
        try:
            t_spawn, report = self.spawn("child.py", json.dumps(spec), threads)
            # The host slows each CPU on its own, for seconds to minutes at a
            # time and at worst to half its speed or less.  Rescale each time
            # by the speed of the reference loop timed on the same CPUs next
            # to it: set-up by the run right after it, the call by the mean of
            # the runs before and after it.
            speed = 2.0 * REFERENCE_S / (report["ref_before"] + report["ref_after"])
            report["unscaled_wall_s"] = report["wall_s"]
            report["wall_s"] *= speed
            report["cpu_s"] *= speed
            report["setup_s"] = (report["ready"] - t_spawn) * REFERENCE_S / report["ref_before"]
            self.speeds.append(speed)
            if report["rc"] != 0 or report["error"] is not None:
                raise InvocationError(f"main returned {report['rc']}, raised {report['error']}")
            if traced:
                report["trace"] = json.loads(spans_path.read_text(encoding="utf-8"))
            if self.corrupt and inv.mode == "euler-sim":
                corrupt_series(out / "series.csv")
            digest = checks.digests(out)
            problems = check_outputs(inv, out, digest, previous)
            if self.reference[j] is None:
                self.reference[j] = digest
            elif digest != self.reference[j]:
                changed = sorted(k for k in digest.keys() | self.reference[j].keys()
                                 if digest.get(k) != self.reference[j].get(k))
                problems.append(f"artifacts differ from the first run of this seed: {changed}")
            if problems:
                raise InvocationError("; ".join(problems))
        except (InvocationError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
            self.failed += 1
            self.problems.append(f"{inv.mode} (threads={threads}): {exc}")
        finally:
            if spans_path is not None:
                spans_path.unlink(missing_ok=True)
        return report, digest

    def iteration(self, traced: bool) -> Sample:
        sample = Sample()
        dirs: list[Path] = []
        previous = None
        try:
            for j, inv in enumerate(self.invocations):
                out = self.new_dir(f"inv{j}")
                dirs.append(out)
                if inv.from_previous and (dirs[-2] / "snapshots.csv").is_file():
                    shutil.copyfile(dirs[-2] / "snapshots.csv", out / "snapshots.csv")
                report, previous = self.invoke(j, out, traced=traced, threads=SWEEP_THREADS,
                                               previous=previous)
                if report is None:
                    continue
                sample.wall_s += report["wall_s"]
                sample.cpu_s += report["cpu_s"]
                sample.unscaled_wall_s += report["unscaled_wall_s"]
                sample.peak_kib = max(sample.peak_kib, report["peak_kib"])
                if traced and "trace" in report:
                    sample.traces.append(report["trace"])
                elif not traced:
                    self.setup_s.append(report["setup_s"])
        finally:
            for path in dirs:
                shutil.rmtree(path, ignore_errors=True)
        return sample

    def thread_check(self) -> None:
        """Every sweep must write the same bytes with one pool thread."""
        for j, inv in enumerate(self.invocations):
            if inv.mode == "sweep":
                out = self.new_dir(f"inv{j}")
                try:
                    self.invoke(j, out, traced=False, threads=1, previous=None)
                finally:
                    shutil.rmtree(out, ignore_errors=True)

    def micro(self) -> dict[str, float]:
        out = self.new_dir("micro")
        try:
            return self.spawn("micro.py", str(out), 1)[1]
        finally:
            shutil.rmtree(out, ignore_errors=True)


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration from its invocations' spans."""
    calls: Counter = Counter()
    total: Counter = Counter()
    own: Counter = Counter()
    longest: Counter = Counter()
    counters: Counter = Counter()
    pool_busy = pool_capacity = 0.0
    threads = 0
    for trace in traces:
        spans = trace["spans"]
        tally = dict(trace["counters"])
        main_thread = tally.pop("main_thread")
        threads = max(threads, tally.pop("cli.sweep.threads", 0))
        counters.update(tally)
        durations = [end - start for _, _, start, end, _ in spans]
        covered = [0.0] * len(spans)
        for i, span in enumerate(spans):
            if span[4] >= 0:
                covered[span[4]] += durations[i]
        for i, (name, thread, _, _, _) in enumerate(spans):
            calls[name] += 1
            total[name] += durations[i]
            own[name] += durations[i] - covered[i]
            longest[name] = max(longest[name], durations[i])
            if name == "burgers.classify_lifespan" and thread != main_thread:
                pool_busy += durations[i]
            if name == "cli.sweep.pool":
                pool_capacity += durations[i] * max(1, threads)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {name: float(calls[name.removesuffix(".calls")]) for name in PER_LAYER if name.endswith(".calls")}
    m.update({name: total[name.removesuffix(".s")] for name in PER_LAYER if name.endswith(".s")})
    m.update({name: own[name.removesuffix(".self_s")] for name in PER_LAYER if name.endswith(".self_s")})
    m["monitors.calls"] = float(sum(calls[f"monitors.{f}"] for f in (
        "mass_excess", "weighted_momentum", "weighted_potential_energy", "blowup_criterion")))
    m["burgers.classify_lifespan.max_ms"] = longest["burgers.classify_lifespan"] * 1e3
    for name in ("euler.cell_updates", "csvio.rows_written", "csvio.bytes_written",
                 "csvio.bytes_read", "numerics.adaptive_quad.evals"):
        m[name] = float(counters[name])
    m["euler.support_fraction"] = ratio(counters["euler.snapshot_cells_off_background"],
                                        counters["euler.snapshot_cells"])
    m["damping.reciprocal_integral_limit.distinct_ratio"] = ratio(
        counters["damping.distinct_laws"], calls["damping.reciprocal_integral_limit"])
    m["cli.sweep.threads"] = float(threads)
    m["cli.sweep.pool_util"] = ratio(pool_busy, pool_capacity)

    by_layer: Counter = Counter()
    for name, seconds in own.items():
        if name not in WAIT_SPANS:
            by_layer[name.split(".")[0]] += seconds
    busy = sum(by_layer.values())
    for layer in LAYERS:
        m[f"{layer}.self_s"] = by_layer[layer]
        m[f"{layer}.self_share"] = ratio(by_layer[layer], busy)
    return m


def median_of(dicts: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def measure(runner: Runner, seconds: float, trace: bool) -> tuple[dict[str, float], int]:
    """Iterate until ``seconds`` pass; return the run's metrics and the
    number of iterations they summarize."""
    plain: list[Sample] = []
    traced: list[Sample] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not plain or (trace and not traced):
        is_traced = trace and len(traced) < len(plain)
        (traced if is_traced else plain).append(runner.iteration(is_traced))
    runner.thread_check()
    plain_wall = statistics.median(s.wall_s for s in plain)
    if not trace:
        return {
            "wall_s": plain_wall,
            "cpu_s": statistics.median(s.cpu_s for s in plain),
            "setup_s": statistics.median(runner.setup_s) if runner.setup_s else 0.0,
            "peak_rss_mib": statistics.median(s.peak_kib / 1024.0 for s in plain),
            # Not in the result line: the unscaled wall time and host speed.
            "unscaled_wall_s": statistics.median(s.unscaled_wall_s for s in plain),
            "host_speed": statistics.median(runner.speeds) if runner.speeds else 0.0,
        }, len(plain)
    layers = [layer_metrics(s.traces) for s in traced if s.traces]
    metrics = median_of(layers) if layers else {}
    try:
        metrics.update(runner.micro())
    except (InvocationError, subprocess.TimeoutExpired, ValueError) as exc:
        runner.failed += 1
        runner.problems.append(f"micro-benchmarks: {exc}")
    if plain_wall:
        metrics["trace.overhead_ratio"] = statistics.median(s.wall_s for s in traced) / plain_wall
    return metrics, len(traced)


def _commit() -> str | None:
    """HEAD commit read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for entry in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if entry.endswith(" " + ref):
                return entry.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict[str, object]:
    digest = hashlib.sha256()
    for path in sorted((SRC / "critdamp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": NPROC,
        "sweep_threads": SWEEP_THREADS,
    }


def main(argv: list[str] | None = None, *, tiny: bool = False, corrupt: bool = False) -> int:
    """Command-line entry; ``tiny`` and ``corrupt`` serve selfcheck.py only."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "critdamp" / "cli.py").is_file():
        print(f"error: no critdamp sources under {SRC}", file=sys.stderr)
        return 2

    units = PER_LAYER if args.trace else END_TO_END
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    info = {"provenance": provenance(), "seed": args.seed, "workloads": {}}
    try:
        for name in names:
            runner = Runner(name, args.seed, tiny=tiny, corrupt=corrupt)
            metrics, samples = measure(runner, args.seconds, bool(args.trace))
            for problem in runner.problems[:10]:
                print(f"{name}: FAILED {problem}", file=sys.stderr)
            fail_ratio = runner.failed / runner.attempted
            shown = ", ".join(f"{k} {metrics[k]:.6g} {units[k]}" for k in units if k in metrics)
            if "unscaled_wall_s" in metrics:
                shown += (f", unscaled wall_s {metrics['unscaled_wall_s']:.6g} s"
                          f" at host speed {metrics['host_speed']:.4g}")
            print(f"{name} (seed {args.seed}, {samples} iterations): {shown}, "
                  f"fail_ratio {fail_ratio:.6g} ratio ({runner.failed}/{runner.attempted} invocations)")
            info["workloads"][name] = {
                "argv": [inv.argv("<out>") for inv in runner.invocations],
                "digests": runner.reference,
                "samples": samples,
                "fail_ratio": fail_ratio,
                "unscaled_wall_s": metrics.get("unscaled_wall_s"),
                "host_speed": metrics.get("host_speed"),
            }
            prefix = f"{name}." if len(names) > 1 else ""
            result["attempted"] += runner.attempted
            result["failed"] += runner.failed
            result["metrics"].update({
                prefix + key: {"value": float(metrics.get(key, 0.0)), "unit": unit}
                for key, unit in units.items()
            })
    finally:
        shutil.rmtree(WORK / str(os.getpid()), ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    result["correct"] = result["failed"] == 0
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
