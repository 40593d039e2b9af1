"""Print every metric of every workload by name, with unit and sample count.

Usage:
    python3 bench/report.py --seed N [--baseline PATH]

Runs bench/run.py with --trace 0 and --trace 1 for every workload at the
given seed, for the run length in BENCHMARK.json, echoes its per-metric
lines and checks that every run was correct. With --baseline it merges the results for this seed into the
JSON file at PATH, with the machine they were measured on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import harness


def run_one(workload: str, seed: int, seconds: float, trace: int):
    argv = [sys.executable, str(harness.BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=harness.ROOT,
                          timeout=200, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2].removeprefix("detail: "))
    for line in lines[:-2]:
        print(line)
    return result, detail


def machine() -> dict:
    return {"python": platform.python_version(), "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
            "cpus": os.cpu_count()}


def main(argv=None) -> int:
    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--baseline")
    args = parser.parse_args(argv)

    all_correct = True
    seed_results = {}
    for workload in harness.WORKLOADS:
        entry = {}
        for trace in (0, 1):
            result, detail = run_one(workload, args.seed, spec["run_seconds"], trace)
            all_correct &= result["correct"]
            entry[f"trace{trace}"] = {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: {**m, "samples": detail["samples"][name]}
                            for name, m in result["metrics"].items()},
            }
            if trace == 0:
                entry["bare_interpreter_s"] = detail["bare_interpreter_s"]
        seed_results[workload] = entry

    if args.baseline:
        try:
            with open(args.baseline, encoding="utf-8") as fh:
                baseline = json.load(fh)
        except FileNotFoundError:
            baseline = {"seeds": {}}
        baseline["machine"] = machine()
        baseline["run_seconds"] = spec["run_seconds"]
        baseline["seeds"].setdefault(str(args.seed), {}).update(seed_results)
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print("all runs correct" if all_correct else "SOME RUNS FAILED THE CORRECTNESS GATE")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
