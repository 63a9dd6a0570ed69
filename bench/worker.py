"""One workload process: set up, run timed passes, check every output.

Started by run.py, one fresh process per set-up measurement and per
measured run. Prints one JSON document as the last line of its stdout.

A pass runs the workload's operations one after another in this process
(one client, closed loop). Each operation is timed on its own, wall and
CPU; the checks run after the timer stops. In a traced run the first half
of the time budget runs untraced passes and the second half traced ones,
so the tracing overhead is measured in the same process; the scaling fits
follow.

Speed normalisation: on a shared machine the speed of the CPU this process
gets drifts by 10-20% over tens of seconds, far more than a regression
bound. A fixed calibration loop (benchmark code only: exact Fraction
recursion and a numpy scatter, the two kinds of work the package does)
runs between consecutive operations. Each operation's time is scaled by
CALIBRATION_REFERENCE_S over the mean of the calibration times on either
side of it, which reports it in seconds at the reference speed. Raw times
are kept next to the scaled ones in the result document.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from resistnet import cli, graphs  # noqa: E402

WORK_DIR = os.path.join(ROOT, ".bench_work")

# Calibration loop time on an idle 2-CPU reference box (x86-64, 2.1 GHz).
CALIBRATION_REFERENCE_S = 0.065
_CAL_INDEX = np.random.default_rng(12345).integers(0, 1 << 20, 100_000)


def calibration_work():
    """Fixed work, independent of resistnet, whose time tracks machine speed."""
    for _ in range(3):
        xi = Fraction(1, 3)
        p, q, xi_pow = Fraction(0), Fraction(1), Fraction(1)
        for _n in range(120):
            xi_pow *= xi
            p += q
            q += xi_pow * p
        buf = np.zeros(1 << 20)
        np.add.at(buf, _CAL_INDEX, 1.0)
        np.flatnonzero(buf)


def calibrate():
    """(wall, cpu) seconds of one calibration loop."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    calibration_work()
    return time.perf_counter() - t0, time.process_time() - c0


def environment(seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
    }


def run_op(op, tracer):
    """Time one operation (up to its return or its failure), then check it."""
    gc.collect()
    span = tracer.open(f"op:{op.name}") if tracer else None
    output = error = None
    if tracer:
        tracer.enabled = True
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        output = op.call()
    except Exception as exc:   # a failing operation is a result, not a crash
        error = exc
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    if tracer:
        tracer.enabled = False
        span.start, span.end = t0, t0 + wall
        tracer.close(span)
    record = {"name": op.name, "wall_s": wall, "cpu_s": cpu, "ok": True,
              "error": None, "message": None, "exit_code": None,
              "known_failure": op.known_failure}
    if error is not None:
        record.update(ok=False, error=type(error).__name__, message=str(error)[:300])
        return record
    if isinstance(output, tuple):
        record["exit_code"] = output[0]
    try:
        op.check(output)
    except workloads.CheckFailed as exc:
        record.update(ok=False, error=exc.kind, message=str(exc)[:300])
    except Exception as exc:   # output in an unexpected shape fails the check
        record.update(ok=False, error="CheckError",
                      message=f"{type(exc).__name__}: {exc}"[:300])
    return record


def run_pass(ops, tracer=None):
    first_span = len(tracer.spans) if tracer else 0
    cals = [calibrate()]
    records = []
    for op in ops:
        records.append(run_op(op, tracer))
        cals.append(calibrate())
    for i, record in enumerate(records):
        cal_wall = (cals[i][0] + cals[i + 1][0]) / 2
        cal_cpu = (cals[i][1] + cals[i + 1][1]) / 2
        record["scaled_wall_s"] = record["wall_s"] * CALIBRATION_REFERENCE_S / cal_wall
        record["scaled_cpu_s"] = record["cpu_s"] * CALIBRATION_REFERENCE_S / cal_cpu
    out = {
        "traced": tracer is not None,
        "pass_s": sum(r["scaled_wall_s"] for r in records),
        "calibration_s": [c[0] for c in cals],
        "ops": records,
    }
    if tracer:
        out["layers"] = tracer.layer_totals(tracer.spans[first_span:])
    return out


def run_for(ops, seconds, tracer=None):
    """Passes until the next one would end past `seconds` (at least one)."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(ops, tracer))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return passes


# -- scaling exponents (traced run only) ---------------------------------------

def _slope(xs, ys):
    lx = [math.log(x) for x in xs]
    ly = [math.log(max(y, 1e-9)) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def _layer_time(tracer, metric, call):
    first = len(tracer.spans)
    tracer.enabled = True
    try:
        call()
    finally:
        tracer.enabled = False
    return tracer.layer_totals(tracer.spans[first:])[metric]


def scaling_fits(tracer, seed):
    """Fitted exponent of a layer's time in the problem size, 3+ sizes each."""
    rng = np.random.default_rng([seed, 99])
    energy_module = workloads.energy_module
    fits = {}

    sizes, times = [], []
    for depth in (4, 5, 6):
        graph = graphs.build_dyadic_tree(1.0, depth)
        pole = int(rng.integers(1, graph.n_vertices))
        sizes.append(graph.n_vertices - 1)
        times.append(_layer_time(tracer, "linsolve.solve_s",
                                 lambda: energy_module.solve_dipole(graph, pole)))
    fits["linsolve.exponent"] = {"sizes": sizes, "times": times}

    sizes, times = [], []
    for depth in (100, 200, 300):
        config = workloads.cli_config(
            ["classify", "--model", "half-line", "--M", "2", "--N", str(depth)])
        sizes.append(depth)
        times.append(_layer_time(tracer, "polynomials.recursion_s",
                                 lambda: cli.execute(config)))
    fits["polynomials.exponent"] = {"sizes": sizes, "times": times}

    sizes, times = [], []
    walk_seed = int(rng.integers(0, 2**31))
    for depth in (9, 10, 11, 12):
        config = workloads.cli_config(
            ["walk", "--model", "tree", "--N", str(depth), "--start", "0", "--steps", "20",
             "--trials", "100000", "--seed", str(walk_seed)])
        sizes.append(2 ** (depth + 1) - 1)
        times.append(_layer_time(tracer, "walk.simulate_s", lambda: cli.execute(config)))
    fits["walk.exponent"] = {"sizes": sizes, "times": times}

    for fit in fits.values():
        fit["exponent"] = _slope(fit["sizes"], fit["times"])
    return fits


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    args = parser.parse_args(argv)

    workdir = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        workloads.warm_up(args.workload)
        raw_setup_s = time.monotonic() - args.t0
        calibrate()   # the first loop in a process pays for page faults
        cal_wall = statistics.mean(calibrate()[0] for _ in range(2))
        doc = {"workload": args.workload, "raw_setup_s": raw_setup_s,
               "setup_s": raw_setup_s * CALIBRATION_REFERENCE_S / cal_wall,
               "env": environment(args.seed)}
        if not args.setup_only:
            doc.update(run_measured(ops, args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(doc))


def run_measured(ops, args):
    if not args.trace:
        return {"passes": run_for(ops, args.seconds)}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        passes = run_for(ops, args.seconds / 2)
        passes += run_for(ops, args.seconds / 2, tracer)
        fits = scaling_fits(tracer, args.seed)
    finally:
        tracer.uninstall()
    trace_dir = os.path.join(WORK_DIR, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_path = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl")
    tracer.write(trace_path)
    return {"passes": passes, "fits": fits, "missing_wrappers": tracer.missing,
            "trace_file": os.path.relpath(trace_path, ROOT)}


if __name__ == "__main__":
    main()
