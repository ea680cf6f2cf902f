"""Self-check of the benchmark itself.

Usage, from the repository root:  python3 benchmarks/selfcheck.py

1. BENCHMARK.json names exactly the workloads and metrics run.py reports.
2. A tiny-size run of every workload, untraced and traced, reports every
   named metric, finite and with its unit, and no failure.
3. One flipped byte in the benchmark's own temporary series.csv is counted
   as a failed invocation, so the output checks catch a bad artifact.
4. Without the critdamp sources next to it, run.py exits nonzero and prints
   no result.
"""

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys

import run


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selfcheck failed: {message}")


def run_tiny(workload: str, trace: int, corrupt: bool = False) -> dict:
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    # The corrupted run's failure report on stderr is expected; keep it quiet.
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO() if corrupt else sys.stderr):
        code = run.main(argv, tiny=True, corrupt=corrupt)
    require(code == 0, f"{workload} trace={trace}: exit code {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_contract() -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    require([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workload names")
    for key, units in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        require(listed == units, f"{key} in BENCHMARK.json differs from run.py")
    return spec


def check_metrics(result: dict, units: dict, where: str) -> None:
    require(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: result keys")
    require(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{where}: {result}")
    require(set(result["metrics"]) == set(units), f"{where}: metric names")
    for name, metric in result["metrics"].items():
        require(metric["unit"] == units[name], f"{where}: unit of {name}")
        require(isinstance(metric["value"], float) and math.isfinite(metric["value"]), f"{where}: {name}")


def check_without_sources() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copyfile(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "line", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    require(proc.returncode != 0 and not proc.stdout.strip(), "run.py must fail without sources")


def main() -> None:
    spec = check_contract()
    for workload in run.WORKLOADS:
        untraced = run_tiny(workload, 0)
        check_metrics(untraced, run.END_TO_END, f"{workload} untraced")
        require(all(m["value"] > 0 for m in untraced["metrics"].values()), f"{workload}: a zero metric")
        check_metrics(run_tiny(workload, 1), run.PER_LAYER, f"{workload} traced")
    corrupted = run_tiny("radial-step", 0, corrupt=True)
    require(corrupted["failed"] > 0 and not corrupted["correct"], "corrupted series.csv was not caught")
    check_without_sources()
    print(f"selfcheck passed: {len(spec['workloads'])} workloads, "
          f"{len(spec['end_to_end'])} end-to-end and {len(spec['per_layer'])} per-layer metrics")


if __name__ == "__main__":
    main()
