"""Shared pieces of the residueseq benchmark: workloads, child processes,
and the correctness gate on the CLI's output.

Every workload is one `residueseq verify` command run in a fresh
interpreter, so end-to-end numbers depend only on the public CLI.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE_PATH = BENCH_DIR / "reference.json"

# The CLI arguments of each workload; BENCHMARK.json says why each was chosen.
WORKLOADS = {
    "verify-all": ["verify", "all"],
    "alpha-k-p5": ["verify", "alpha-k", "--p", "5", "--e", "2", "--n", "2", "--k", "1"],
    "periods-p7": ["verify", "periods", "--p", "7", "--e", "2"],
    "thm9-p17-19": ["verify", "thm9", "--p", "17,19"],
}

# Co-tenants of a shared host slow every CPU by up to about 1.6x, in
# phases that last from a second to minutes, so a median over one run
# cannot cancel them. End-to-end times are therefore taken relative to this
# fixed pure-Python loop, which is independent of the program and is timed
# in a fresh interpreter next to each workload run, and reported in
# seconds of a host on which the loop takes CALIBRATION_REFERENCE_S.
CALIBRATION_CODE = "acc = 0\nfor i in range(1500000):\n    acc = (acc * 31 + i) % 1000003\n"
CALIBRATION_REFERENCE_S = 0.30
SETUP_CODE = "import residueseq.cli as c; c.build_parser()"
BARE_CODE = "pass"


def program_present() -> bool:
    return (SRC / "residueseq" / "cli.py").is_file()


def child_env() -> dict:
    """The environment of every child: the checkout's sources first and no
    budget override, so each command runs at its defaults."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("RESIDUESEQ_BUDGET", None)
    return env


def cli_argv(workload: str, seed: int) -> list[str]:
    return [sys.executable, "-m", "residueseq", *WORKLOADS[workload], "--seed", str(seed)]


@dataclass
class ChildResult:
    returncode: int | None  # None when the child was killed at its deadline
    wall_s: float
    maxrss_kb: int
    stdout: bytes
    tag: str


def spawn(argv: list[str], timeout: float, tag: str) -> ChildResult:
    """Run one child to completion; wall time is spawn to reaped exit.

    The child is reaped with wait4 so its own peak RSS is read, not the
    maximum over every child this process has waited for.
    """
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{tag}.stdout"
    timed_out = threading.Event()
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                env=child_env(), cwd=ROOT)

        def kill() -> None:
            if proc.returncode is None:
                timed_out.set()
                proc.kill()

        timer = threading.Timer(max(timeout, 0.1), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            timer.join()
    code = None if timed_out.is_set() else proc.returncode
    return ChildResult(code, wall, usage.ru_maxrss, out_path.read_bytes(), tag)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def output_counters(stdout: bytes) -> dict:
    """Exact work counters read from the JSON reports."""
    reports = json.loads(stdout)
    return {
        "reports": len(reports),
        "pairs": sum(r["counts"]["pairs"] for r in reports),
        "positions": sum(r["counts"]["positions"] for r in reports),
        "sampled_reports": sum(1 for r in reports if r["sampled"]),
    }


@dataclass
class Gate:
    """Counts cells (one report each) and the ones that fail.

    A cell fails when its run exits nonzero or times out, when its verdict
    is not `holds`, when the run's stdout differs from the stored reference
    of its seed, or when it differs from the first run of this invocation
    (which is how traced output is held to untraced output). A run that
    fails as a whole fails every expected cell.
    """

    expected_cells: int
    reference_digest: str | None
    first_stdout: bytes | None = None
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def check(self, result: ChildResult) -> None:
        cells = self.expected_cells
        try:
            reports = json.loads(result.stdout)
        except ValueError:
            reports = None
        if isinstance(reports, list):
            cells = max(cells, len(reports))
        self.attempted += cells
        if result.returncode != 0 or not isinstance(reports, list):
            self.fail(cells, f"exit status {result.returncode}, {len(result.stdout)} bytes")
            return
        if len(reports) != self.expected_cells:
            self.fail(cells, f"{len(reports)} reports, expected {self.expected_cells}")
            return
        want = self.reference_digest
        if want is not None and digest(result.stdout) != want:
            self.fail(cells, "stdout differs from the stored reference")
            return
        if self.first_stdout is None:
            self.first_stdout = result.stdout
        elif result.stdout != self.first_stdout:
            self.fail(cells, f"stdout differs from the first run ({result.tag})")
            return
        bad = sum(1 for r in reports if r.get("verdict") != "holds")
        if bad:
            self.fail(bad, f"{bad} verdicts are not holds")

    def fail(self, cells: int, why: str) -> None:
        self.failed += cells
        self.problems.append(why)


def gate_for(workload: str, seed: int) -> Gate:
    ref = load_reference()["workloads"][workload]
    return Gate(ref["cells"], ref["stdout_sha256"].get(str(seed)))


def median(values):
    return statistics.median(values) if values else 0.0
