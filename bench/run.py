"""Benchmark of the residueseq CLI.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. With --trace 0 it times fresh `residueseq
verify` processes against a calibration loop timed next to them
(end-to-end metrics); with --trace 1 it alternates untraced runs with runs
under bench/traced.py (per-layer metrics). Every run's output goes through
the correctness gate in harness.py. It prints one
line per metric with its unit and sample count, a `detail:` line, and as
its last line one JSON object with `correct`, `attempted`, `failed` and
`metrics`. A per-layer metric of a name the program no longer has is
printed as absent and left out of the result. Exits 2 without a result
when the checkout has no program.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from array import array

import harness
from harness import median

MIN_REPS = 3          # untraced workload runs per --trace 0 run
MIN_TRACED_REPS = 2   # traced runs per --trace 1 run, so counters can be compared
HARD_LIMIT_S = 165.0  # the whole invocation stays inside 180 s

SPANNED = [
    "ringcore.interpolate", "ringcore.padic_expand",
    "polyring.order_of_x", "polyring.poly_powmod", "polyring.poly_mulmod",
    "polyring.apply_poly_to_sequence",
    "primitivity.certify", "primitivity.find_primitive",
    "sequences.generate", "sequences.state_at", "sequences.level",
    "sequences.alpha_sequence",
    "compress.value_table", "compress.from_table",
    "analysis.verify_alpha_k_injectivity", "analysis.count_uniform_s",
    "analysis.shift_classes",
]
SUITES = ["carry", "legendre", "recurrence", "periods", "distribution",
          "alpha_k", "thm7", "thm8", "thm9"]

# Per-layer metrics read from a traced name other than their own prefix;
# they are left out when that name is absent from the program.
DERIVED = {
    "primitivity.iter_monic_polys": ["primitivity.iter_primitive.candidates",
                                     "primitivity.hit_ratio"],
    "primitivity.iter_primitive": ["primitivity.iter_primitive.yielded",
                                   "primitivity.hit_ratio"],
    "sequences.generate": ["sequences.generate.terms", "sequences.generate.unique_ratio"],
    "analysis.shift_classes": ["analysis.shift_classes.classes"],
    "analysis.run_suite": ["cli.self_s"],
    "cli.main": ["cli.self_s"],
    **{f"analysis.suite_{s}": [f"analysis.suite.{s}.total_s"] for s in SUITES},
}

NO_WAITS = ("single-threaded, one process: no layer waits on another or "
            "retries, so no wait or retry metrics are reported")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


class Clock:
    """Time since the invocation started, against --seconds and the hard limit."""

    def __init__(self, seconds: float) -> None:
        self.start = time.perf_counter()
        self.seconds = seconds

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def left(self) -> float:
        return HARD_LIMIT_S - self.elapsed()

    def another(self, done: int, minimum: int, per_rep: float) -> bool:
        """Start another repetition: always up to the minimum, then while
        ending one more of the usual length lies nearer to --seconds than
        stopping now, so a run measures about --seconds even when one
        repetition is a large part of it."""
        if self.left() <= per_rep:
            return False
        return done < minimum or self.elapsed() + per_rep / 2 <= self.seconds


def run_end_to_end(args, gate: harness.Gate, clock: Clock):
    """Repeat (calibration, setup, bare interpreter, setup, workload) until
    --seconds is used up, then time one last calibration.

    wall_s is the total workload time over the total of the means of the
    calibrations just before and after each workload run; setup_s is the
    median of each setup time over the calibration of its round. Both are
    scaled to harness.CALIBRATION_REFERENCE_S, which says why. With only
    three to ten workload runs, a slow phase that hits one run and not the
    calibrations beside it moves the ratio of totals less than it moves a
    median of per-run ratios.
    """
    workload_argv = harness.cli_argv(args.workload, args.seed)
    calib_argv = [sys.executable, "-c", harness.CALIBRATION_CODE]
    setup_argv = [sys.executable, "-c", harness.SETUP_CODE]
    bare_argv = [sys.executable, "-c", harness.BARE_CODE]

    def timed(argv) -> float:
        r = harness.spawn(argv, clock.left(), "setup")
        if r.returncode != 0:
            raise RuntimeError(f"{argv[1:]} exited with {r.returncode}")
        return r.wall_s

    timed(setup_argv)  # writes the bytecode caches of a fresh checkout
    calib, setup, bare, walls, rss = [], [], [], [], []
    per_rep = 0.0
    while clock.another(len(walls), MIN_REPS, per_rep):
        started = clock.elapsed()
        calib.append(timed(calib_argv))
        setup.append((timed(setup_argv), calib[-1]))
        bare.append(timed(bare_argv))
        setup.append((timed(setup_argv), calib[-1]))
        r = harness.spawn(workload_argv, clock.left(), args.workload)
        gate.check(r)
        if r.returncode is None:
            break
        walls.append(r.wall_s)
        rss.append(r.maxrss_kb / 1024)
        per_rep = clock.elapsed() - started
    calib.append(timed(calib_argv))
    ref = harness.CALIBRATION_REFERENCE_S
    around = sum((calib[i] + calib[i + 1]) / 2 for i in range(len(walls)))
    metrics = {
        "wall_s": (sum(walls) / around * ref if walls else 0.0, "s", len(walls)),
        "setup_s": (median([t / c for t, c in setup]) * ref, "s", len(setup)),
        "peak_rss_mb": (median(rss), "MB", len(rss)),
    }
    detail = {"calibration_s_all": calib, "bare_interpreter_s": median(bare),
              "bare_samples": len(bare), "wall_s_raw_median": median(walls),
              "wall_s_all": walls, "setup_s_all": [t for t, _ in setup],
              "peak_rss_mb_all": rss}
    return metrics, detail


def load_spans(path: str):
    """Per span name: [calls, inclusive ns, self ns]; plus the tracer's meta."""
    with open(path + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    n = meta["spans"]
    names, parents, starts, ends = array("i"), array("i"), array("q"), array("q")
    with open(path, "rb") as fh:
        for arr in (names, parents, starts, ends):
            arr.fromfile(fh, n)
    dur = [e - s for s, e in zip(starts, ends)]
    child = [0] * n
    for i, parent in enumerate(parents):
        if parent >= 0:
            child[parent] += dur[i]
    agg = {name: [0, 0, 0] for name in meta["span_names"]}
    span_names = meta["span_names"]
    for i in range(n):
        a = agg[span_names[names[i]]]
        a[0] += 1
        a[1] += dur[i]
        a[2] += dur[i] - child[i]
    return agg, meta


def exact_counts(agg, meta) -> dict:
    counts = {f"{name}.calls": a[0] for name, a in agg.items()}
    counts.update(meta["counters"])
    return counts


def layer_times(agg) -> dict:
    def total(name):
        return agg.get(name, (0, 0, 0))[1] / 1e9

    times = {f"{name}.self_s": agg.get(name, (0, 0, 0))[2] / 1e9 for name in SPANNED}
    times["primitivity.find_primitive.total_s"] = total("primitivity.find_primitive")
    for suite in SUITES:
        times[f"analysis.suite.{suite}.total_s"] = total(f"analysis.suite_{suite}")
    times["cli.self_s"] = total("cli.main") - total("analysis.run_suite")
    return times


def layer_counts(counts: dict, output: dict) -> dict:
    out = {f"{name}.calls": counts.get(f"{name}.calls", 0) for name in SPANNED}
    candidates = counts.get("primitivity.iter_monic_polys.yielded", 0)
    yielded = counts.get("primitivity.iter_primitive.yielded", 0)
    out["primitivity.iter_primitive.candidates"] = candidates
    out["primitivity.iter_primitive.yielded"] = yielded
    out["primitivity.hit_ratio"] = yielded / candidates if candidates else 0.0
    generated = out["sequences.generate.calls"]
    out["sequences.generate.terms"] = counts.get("sequences.generate.terms", 0)
    unique = counts.get("sequences.generate.unique", 0)
    out["sequences.generate.unique_ratio"] = unique / generated if generated else 0.0
    out["analysis.shift_classes.classes"] = counts.get("analysis.shift_classes.classes", 0)
    for key, value in output.items():
        out[f"analysis.{key}"] = value
    return out


def absent_metrics(absent: list[str]) -> set[str]:
    """The per-layer metrics that read a traced name the program lacks."""
    gone = set()
    for name in absent:
        gone.update(f"{name}.{kind}" for kind in ("calls", "self_s", "total_s"))
        gone.update(DERIVED.get(name, ()))
    return gone


def run_traced(args, gate: harness.Gate, clock: Clock):
    untraced_walls, traced_walls, times = [], [], []
    first_counts, absent = None, []
    argv = harness.cli_argv(args.workload, args.seed)
    spans_path = str(harness.OUT_DIR / f"{args.workload}.spans")
    traced_argv = [sys.executable, str(harness.BENCH_DIR / "traced.py"), spans_path,
                   *argv[3:]]
    while clock.another(len(traced_walls), MIN_TRACED_REPS,
                        median(untraced_walls) + median(traced_walls)):
        r = harness.spawn(argv, clock.left(), f"{args.workload}-untraced")
        gate.check(r)
        if r.returncode is None:
            break
        untraced_walls.append(r.wall_s)
        t = harness.spawn(traced_argv, clock.left(), f"{args.workload}-traced")
        gate.check(t)
        if t.returncode != 0:
            break
        traced_walls.append(t.wall_s)
        agg, meta = load_spans(spans_path)
        absent = meta["absent"]
        counts = exact_counts(agg, meta)
        if first_counts is None:
            first_counts = counts
            output = harness.output_counters(t.stdout)
        elif counts != first_counts:
            gate.fail(gate.expected_cells, "traced counters differ between runs")
        times.append(layer_times(agg))
    n = len(traced_walls)
    metrics = {}
    if first_counts is not None:
        for key, value in layer_counts(first_counts, output).items():
            unit = "ratio" if key.endswith("_ratio") else "count"
            metrics[key] = (value, unit, n)
        for key in times[0]:
            metrics[key] = (median([t[key] for t in times]), "s", n)
        for key in absent_metrics(absent):
            metrics.pop(key, None)
    traced, untraced = median(traced_walls), median(untraced_walls)
    metrics["trace.wall_s"] = (traced, "s", n)
    metrics["trace.overhead_s"] = (traced - untraced, "s", n)
    metrics["fail_ratio"] = (gate.failed / max(gate.attempted, 1), "ratio", gate.attempted)
    detail = {"untraced_wall_s_all": untraced_walls, "traced_wall_s_all": traced_walls,
              "absent": absent, "exact_counts": first_counts}
    return metrics, detail


def expected_names(trace: int) -> list[str]:
    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not harness.program_present():
        sys.stderr.write(f"bench: no residueseq sources under {harness.SRC}\n")
        return 2
    clock = Clock(args.seconds)
    gate = harness.gate_for(args.workload, args.seed)
    if args.trace:
        metrics, detail = run_traced(args, gate, clock)
    else:
        metrics, detail = run_end_to_end(args, gate, clock)
    names = expected_names(args.trace)
    absent = absent_metrics(detail.get("absent", []))
    if gate.failed == 0 and set(names) - absent != set(metrics):
        missing = sorted((set(names) - absent) ^ set(metrics))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {missing}")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"({gate.reference_digest and 'stored reference' or 'no stored reference'})")
    for name in names:
        if name in metrics:
            value, unit, samples = metrics[name]
            shown = f"{value:>14}" if isinstance(value, int) else f"{value:>14.6g}"
            print(f"  {name:<44} {shown} {unit:<6} n={samples}")
        elif name in absent:
            print(f"  {name:<44} {'absent':>14}")
    print(f"  fail ratio base: {gate.failed} failed of {gate.attempted} attempted cells")
    for problem in gate.problems:
        print(f"  FAILED: {problem}")
    if args.trace:
        print(f"  absent from the program: {', '.join(detail['absent']) or 'none'}")
        print(f"  {NO_WAITS}")
    else:
        print(f"  wall_s and setup_s are in calibration units of "
              f"{harness.CALIBRATION_REFERENCE_S} s; raw wall median "
              f"{detail['wall_s_raw_median']:.6f} s, calibration median "
              f"{median(detail['calibration_s_all']):.6f} s")
        print(f"  bare interpreter (raw): {detail['bare_interpreter_s']:.6f} s "
              f"n={detail['bare_samples']}")
    samples = {name: m[2] for name, m in metrics.items()}
    print("detail: " + json.dumps({**detail, "samples": samples}, sort_keys=True))
    if gate.attempted == 0:
        gate.attempted = gate.failed = 1  # nothing ran: count it as one failure
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in names if name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
