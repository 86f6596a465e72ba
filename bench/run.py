"""Benchmark of the mixssm classifier.

Run from the repository root:

    python3 bench/run.py --workload desk_train --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 0

One run measures one workload for ``--seconds`` (see workloads.py and
README.md).  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs the same workload under the span
tracer and reports the per-layer metrics instead.  Every run checks the
program's outputs.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

The exit code is 0 only when every check passed.  ``--workload all`` runs
each workload in its own process, one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("desk_train", "paper_infer", "gradcheck")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def result_line(outcome, trace: bool, spec: dict) -> dict:
    """The final JSON object; its metric names must be exactly the spec's."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = outcome.layers if trace else outcome.end_to_end
    # a layer a workload never reaches did zero work there
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in declared}
    unknown = sorted(set(values) - set(metrics))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    if not trace and any(v["value"] <= 0.0 for v in metrics.values()):
        outcome.fail(0, "an end-to-end metric is not positive")
    return {
        "correct": outcome.failed == 0 and not outcome.failures,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": metrics,
    }


def print_run(name: str, args, outcome, result: dict, spec: dict) -> None:
    declared = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(f"# {name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for metric, entry in result["metrics"].items():
        better = declared[metric]["better"]
        print(f"  {metric:42s} {entry['value']:14.6g} {entry['unit']:10s} {better} is better")
    attempted = result["attempted"]
    print(f"  failed_ratio {result['failed']}/{attempted} = {result['failed'] / attempted:.4f}")
    for reason in outcome.failures:
        print(f"  FAILED: {reason}")
    print(json.dumps({"workload": name, "seed": args.seed, "report": outcome.report,
                      "environment": environment()}, sort_keys=True))


def run_one(args, spec: dict) -> int:
    import workloads

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    result = result_line(outcome, bool(args.trace), spec)
    print_run(args.workload, args, outcome, result, spec)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS belongs to that workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines() or [""]
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"error: {name} printed no result", file=sys.stderr)
            return proc.returncode or 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
        status = status or proc.returncode
    print(json.dumps(combined), flush=True)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "mixssm")):
        print(f"error: the mixssm sources are not at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    # a terminated run still removes its scratch files on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # one BLAS thread, fixed before numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [SRC, HERE]
    return run_one(args, load_spec())


if __name__ == "__main__":
    sys.exit(main())
