"""detsieve benchmark: one workload per run, end-to-end or per-layer figures.

    python3 perfbench/run.py --workload cover --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and imports the program from ``src``.
A run is one fresh process with no extra threads.  It writes the
workload's configs under ``.bench_work/``, then repeats passes over the
workload's ops (a closed loop: each op starts when the previous one has
finished) until another pass would overrun ``--seconds``; at least one
pass always runs.  After each pass it times set-up once in a fresh child
process.  Every op's output is checked against ``references.json``; a
failed check counts as a failed op and the run goes on.

Times are reported in reference seconds: seconds on a host where the
reference kernel (exact elimination of a fixed integer matrix with
``fractions.Fraction``, stdlib only) takes ``KERNEL_REF_S``.  The kernel
runs before the first op, and after the ops for about a tenth of their
time; a pass's wall and CPU times are scaled by ``KERNEL_REF_S`` over
the mean kernel time of that pass, and a set-up sample by the kernel times
just before and after it.  On a shared two-vCPU virtual machine every op
ran up to twice as slow for stretches of 10 s to several minutes, in CPU
time as much as in wall time, so raw times moved with whatever stretch a
run fell in.  The kernel slows with the ops: over ten 30-s runs the
interquartile range of the scaled times stayed within 2-7% of their median
on every workload.  The kernel is not the program's code, so any change to
the program's own cost shows in full.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` and ``cpu_s``,
the median over passes of a pass's scaled time; ``setup_s``, the median of
the scaled set-up samples; and ``peak_rss_mb``.  ``--trace 1`` alternates
untraced and traced passes (see ``layertrace.py``) and reports the
per-layer metrics: times are medians of scaled traced-pass figures, counts
those of the first traced pass, and ``trace.overhead_s`` is the median
scaled traced pass minus the median scaled untraced pass.  The last line of
standard output is the JSON result; the lines before it give the
environment fingerprint and a readable summary with the raw times.

The ops repeat in one process, so a cache kept between calls would show
as a gain here that one CLI invocation per report never sees.

Two deliberate choices: ``--threads`` is never passed, so the CLI runs
at its default and the flag can be replaced or removed without editing
this benchmark; and an in-program stage trace should reuse the layer and
metric names of ``layertrace.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath

import layertrace
import workloads

ROOT = Path(__file__).resolve().parent.parent

# Set-up is timed after every pass, and at least this many times per run.
SETUP_RUNS = 5

# The reference kernel's time on the unit host: close to its time on an
# idle core of the machine above (Python 3.11), where the fastest tenth of
# 1500 runs took 6.5-7.4 ms and the median, under other tenants' load, 12.5 ms.
KERNEL_REF_S = 0.007

# The kernel runs for about this share of the ops' time, right after the
# ops that ran up that time, so a pass's samples follow where its time went.
KERNEL_SHARE = 0.1

_rng = random.Random(20240821)
_KERNEL_MATRIX = [[_rng.randrange(-50, 51) for _ in range(16)] for _ in range(16)]
del _rng

UNITS = dict({"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"},
             **{name: unit for name, unit, _ in layertrace.METRICS})

_SETUP_CHILD = """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
import detsieve, detsieve.cli
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        json.load(fh)
print(time.clock_gettime(time.CLOCK_MONOTONIC))
"""


def fingerprint() -> dict:
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
    }


def _eliminate(rows) -> int:
    """Rank of an integer matrix by Fraction Gaussian elimination."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(m[0])):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][col] / m[rank][col]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def kernel_time() -> tuple:
    """(wall, cpu) seconds of one reference-kernel run."""
    w0, c0 = time.perf_counter(), time.process_time()
    _eliminate(_KERNEL_MATRIX)
    return time.perf_counter() - w0, time.process_time() - c0


def setup_sample(config_paths) -> float:
    """Scaled time from process start through importing detsieve and loading
    the workload's configs, in a fresh child process."""
    before = kernel_time()[0]
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    child = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, str(ROOT / "src"),
         *map(str, config_paths)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    raw = float(child.stdout.split()[-1]) - t0
    return raw * 2 * KERNEL_REF_S / (before + kernel_time()[0])


class Pass:
    """The outcome of one pass over a workload's ops, with the kernel times
    taken around them."""

    def __init__(self, results, kernels):
        self.results = results
        self.wall = sum(r.wall for r in results)
        self.cpu = sum(r.cpu for r in results)
        self.failed = sum(1 for r in results if r.error is not None)
        self.kernel = statistics.fmean(w for w, _ in kernels)
        self.scale = KERNEL_REF_S / self.kernel
        self.cpu_scale = KERNEL_REF_S / statistics.fmean(c for _, c in kernels)


def run_pass(ops, program, tracer=None) -> Pass:
    results, kernels = [], [kernel_time()]
    owed = 0.0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        result = op.run(program)
        results.append(result)
        owed += KERNEL_SHARE * result.wall
        while owed > 0:
            kernels.append(kernel_time())
            owed -= KERNEL_REF_S
    return Pass(results, kernels)


def _summary(passes) -> list:
    lines = []
    errors = [(r.name, r.error) for p in passes for r in p.results if r.error]
    for name, error in errors[:10]:
        lines.append(f"FAILED {name}: {error}")
    per_op: dict = {}
    for p in passes:
        seen: dict = {}
        for r in p.results:
            seen[r.name] = seen.get(r.name, 0.0) + r.wall
        for name, wall in seen.items():
            per_op.setdefault(name, []).append(wall)
    lines.append("raw passes (s): " + " ".join(f"{p.wall:.3f}" for p in passes))
    lines.append("kernel (ms): " + " ".join(f"{1000 * p.kernel:.2f}" for p in passes))
    lines.append("raw ops (median s per pass): " + ", ".join(
        f"{name} {statistics.median(w):.3f}" for name, w in per_op.items()))
    return lines


def measure(ops, program, seconds: float, trace: bool):
    """Run the passes of one benchmark run; returns (passes, metrics)."""
    configs = [op.config_path for op in ops if hasattr(op, "config_path")]
    start = time.perf_counter()
    plain, traced, traces, setups = [], [], [], []
    while True:
        plain.append(run_pass(ops, program))
        if trace:
            tracer = layertrace.Tracer()
            with tracer.installed():
                traced.append(run_pass(ops, program, tracer))
            traces.append(layertrace.layer_metrics(tracer.spans))
        else:
            setups.append(setup_sample(configs))
        elapsed = time.perf_counter() - start
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            break
    passes = plain + traced

    def scaled(ps):
        return statistics.median(p.wall * p.scale for p in ps)

    if trace:
        # counts repeat exactly from pass to pass; times are scaled medians
        metrics = {name: statistics.median(t[name] * p.scale for t, p in zip(traces, traced))
                   if UNITS[name] == "s" else value
                   for name, value in traces[0].items()}
        metrics["trace.overhead_s"] = scaled(traced) - scaled(plain)
        return passes, metrics
    while len(setups) < SETUP_RUNS:
        setups.append(setup_sample(configs))
    return passes, {
        "wall_s": scaled(plain),
        "cpu_s": statistics.median(p.cpu * p.cpu_scale for p in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setups),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        program = workloads.load_program(ROOT)
    except workloads.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(fingerprint(), sort_keys=True), flush=True)

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        ops = workloads.make_ops(workloads.WORKLOADS[args.workload], args.seed,
                                 workdir, workloads.load_references())
        passes, metrics = measure(ops, program, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    attempted = sum(len(p.results) for p in passes)
    failed = sum(p.failed for p in passes)
    for line in _summary(passes):
        print(line)
    units = dict(UNITS, fail_frac="ratio")
    shown = dict(metrics, fail_frac=failed / attempted)
    print(f"{args.workload}: {len(passes)} passes, " + ", ".join(
        f"{name} {value:.6g} {units[name]}" for name, value in shown.items()))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
