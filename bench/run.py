"""Benchmark of resistnet: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload solve --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload
    python3 bench/run.py --workload all --trace 1 --out bench/results/x.json

Workloads (see workloads.py for the operation lists and checks):

  exact-recursion  classify and polys: exact Fraction work in polynomials
                   and boundary, no solves and no walks.
  solve            dipole and resolvent solves, embed: reduced-system
                   assembly and linsolve, on both sides of its size cliffs.
  walk-io          two walks and the energy command on a serialized
                   131,071-vertex tree: no exact arithmetic and no solve.

Each run starts fresh worker processes with BLAS pinned to one thread.
With --trace 0 it reports the end-to-end metrics: set-up time (median of
several fresh-process set-ups), and the median over passes of pass wall
time, pass CPU time and slowest operation, peak RSS of the measured
process and the share of operations that passed their checks. Times are
scaled to a reference machine speed by a calibration loop run between
operations (see worker.py); the unscaled medians are printed too. With
--trace 1 it reports the per-layer metrics of BENCHMARK.json from spans
recorded around the package's public functions (layer times unscaled).

Every result prints metric lines, the failures with their error class,
and as its last line one JSON object: correct, attempted, failed, metrics.
``correct`` is false when an operation fails in a way the baseline program
does not; known failures still count in ``failed``. The full result
document goes to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("exact-recursion", "solve", "walk-io")   # as in workloads.py, which needs numpy
SETUP_RUNS = 5            # fresh-process set-ups per run, the measured one included
WORKER_TIMEOUT_S = 170
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchError(RuntimeError):
    pass


def spawn(workload, seed, seconds, trace, setup_only=False):
    argv = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ, **PINNED_ENV)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(argv + ["--t0", repr(t0)], env=env, cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker for {workload} ran past {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def op_outcomes(passes):
    records = [r for p in passes for r in p["ops"]]
    failures = [r for r in records if not r["ok"]]
    correct = all(r["error"] == r["known_failure"] for r in failures)
    return len(records), failures, correct


def op_medians(passes, key):
    """Median over passes of each operation's `key`, in operation order."""
    return [statistics.median(p["ops"][i][key] for p in passes)
            for i in range(len(passes[0]["ops"]))]


def end_to_end(setups, main):
    """Pass metrics from per-operation medians: robust to one slow pass."""
    passes = main["passes"]
    attempted, failures, _ = op_outcomes(passes)
    walls = op_medians(passes, "scaled_wall_s")
    return {
        "setup_s": statistics.median(setups),
        "pass_s": sum(walls),
        "cpu_s": sum(op_medians(passes, "scaled_cpu_s")),
        "max_op_s": max(walls),
        "peak_rss_mb": main["peak_rss_mb"],
        "ok_ratio": (attempted - len(failures)) / attempted,
    }


def per_layer(main):
    traced = [p for p in main["passes"] if p["traced"]]
    plain = [p for p in main["passes"] if not p["traced"]]
    metrics = {name: statistics.median(p["layers"][name] for p in traced)
               for name in tracing.LAYER_METRICS}
    metrics["walk.transitions_per_s"] = statistics.median(
        p["layers"]["walk.transitions"] / p["layers"]["walk.simulate_s"]
        if p["layers"]["walk.simulate_s"] > 0 else 0.0 for p in traced)
    metrics["trace.overhead_s"] = (statistics.median(p["pass_s"] for p in traced)
                                   - statistics.median(p["pass_s"] for p in plain))
    for name, fit in main["fits"].items():
        metrics[name] = fit["exponent"]
    return metrics


def run_workload(workload, seed, seconds, trace):
    e2e_units, layer_units = declared_metrics()
    if trace:
        main = spawn(workload, seed, seconds, 1)
        metrics, units = per_layer(main), layer_units
        setups, raw_setups = [main["setup_s"]], [main["raw_setup_s"]]
    else:
        setup_docs = [spawn(workload, seed, seconds, 0, setup_only=True)
                      for _ in range(SETUP_RUNS - 1)]
        main = spawn(workload, seed, seconds, 0)
        setup_docs.append(main)
        setups = [d["setup_s"] for d in setup_docs]
        metrics, units = end_to_end(setups, main), e2e_units
        raw_setups = [d["raw_setup_s"] for d in setup_docs]
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
                         "BENCHMARK.json")
    attempted, failures, correct = op_outcomes(main["passes"])
    passes = main["passes"]
    op_names = [r["name"] for r in passes[0]["ops"]]
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "env": main["env"],
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "samples": {"passes": len(passes), "traced_passes": sum(p["traced"] for p in passes),
                    "setups": setups},
        "raw": {"setup_s": statistics.median(raw_setups),
                "pass_s": sum(op_medians(passes, "wall_s")),
                "cpu_s": sum(op_medians(passes, "cpu_s"))},
        "op_wall_s": dict(zip(op_names, op_medians(passes, "scaled_wall_s"))),
        "failures": sorted({(r["name"], r["error"], r["message"], r["known_failure"])
                            for r in failures}),
        "exit_codes": {name: passes[0]["ops"][i]["exit_code"]
                       for i, name in enumerate(op_names)},
        "fits": main.get("fits"),
        "trace_file": main.get("trace_file"),
        "missing_wrappers": main.get("missing_wrappers"),
        "passes": passes,
    }


def report(result):
    env = result["env"]
    print(f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"({result['samples']['passes']} passes, python {env['python']}, "
          f"numpy {env['numpy']}, blas {env['blas']}, nproc {env['nproc']})")
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    raw = result["raw"]
    print(f"  unscaled: setup_s {raw['setup_s']:.4g} s, pass_s {raw['pass_s']:.4g} s, "
          f"cpu_s {raw['cpu_s']:.4g} s")
    print(f"  {'fail_ratio':28s} {result['fail_ratio']:14.6g} ratio "
          f"({result['failed']} failed / {result['attempted']} attempted)")
    for name, error, message, known in result["failures"]:
        tag = "known" if error == known else "NEW"
        print(f"  failure [{tag}] {name}: {error}: {message}")


def save(result):
    out_dir = os.path.join(ROOT, ".bench_work", "results")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)


def summary(result):
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": result["metrics"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description="resistnet benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="also write the full result documents to this file")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "resistnet", "__init__.py")):
        print("bench: src/resistnet not found; run from a resistnet checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(name, args.seed, args.seconds, args.trace)
                   for name in names]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for result in results:
        save(result)
        report(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump([{k: v for k, v in r.items() if k != "passes"} for r in results],
                      fh, indent=1)
            fh.write("\n")
    if len(results) == 1:
        print(json.dumps(summary(results[0])))
    else:
        print(json.dumps({r["workload"]: summary(r) for r in results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
