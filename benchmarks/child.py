"""One benchmarked CLI invocation in a fresh process.

Usage: python3 child.py '<json spec>'  with spec keys ``argv`` (the critdamp
argument list), ``spans`` (path for the span file, or null for an untraced
run) and ``cpus`` (the CPUs the invocation runs on).  Prints one JSON line:
the monotonic time at which the process was ready to call
``critdamp.cli.main``, the wall and user+sys CPU seconds of that call, the
process's peak RSS, the exit code and any exception, and the seconds of the
reference loop timed right before and right after the call.
"""

import json
import os
import resource
import sys
import time


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def reference_loop() -> float:
    """Fixed work in the program's style: numpy ufuncs on 32,768 elements
    driven from a Python loop, then floats formatted as CSV text and parsed
    back."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 32768)
    acc = 0.0
    for _ in range(80):
        y = np.sqrt(x * x + 1.0) - x
        acc += float((np.minimum(y[1:], y[:-1]) * np.diff(x)).sum())
    # In blocks, so that the loop raises the peak RSS of no workload.
    for start in range(0, 12000, 1000):
        block = (x[start:start + 1000] * np.pi).tolist()
        text = "\n".join(f"{v!r},{v * 1.5!r}" for v in block)
        for row in text.splitlines():
            first, second = row.split(",")
            acc += float(first) - float(second)
    return acc


def reference_seconds(cpus: list[int]) -> float:
    """Mean seconds of the reference loop, run on each of ``cpus`` in turn.

    The host slows each CPU on its own, for seconds to minutes at a time;
    run.py rescales the invocation's times by this to cancel that."""
    times = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


def main() -> None:
    spec = json.loads(sys.argv[1])
    cpus = spec["cpus"]
    os.sched_setaffinity(0, cpus)
    import critdamp.cli

    entry = critdamp.cli.main
    recorder = None
    if spec["spans"] is not None:
        import spans

        recorder = spans.Recorder()
        entry = spans.install(recorder)

    ready = time.perf_counter()
    ref_before = reference_seconds(cpus)
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    rc, error = None, None
    try:
        rc = entry(spec["argv"])
    except (Exception, SystemExit) as exc:
        error = repr(exc)
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ref_after = reference_seconds(cpus)
    if recorder is not None:
        recorder.dump(spec["spans"])
    print(json.dumps({
        "ready": ready, "wall_s": wall, "cpu_s": cpu, "peak_kib": peak_kib,
        "rc": rc, "error": error, "ref_before": ref_before, "ref_after": ref_after,
    }))


if __name__ == "__main__":
    main()
