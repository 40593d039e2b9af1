"""Capture bench/reference.json: the stdout digest of every workload at
each seed in SEEDS, and its number of reports.

Usage: python3 bench/make_reference.py

Refuses to write a reference unless every run exits 0 with every verdict
`holds`. Re-run only when a change alters the default reports on purpose,
and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import sys

import harness

SEEDS = range(10)
TIMEOUT_S = 600.0


def main() -> int:
    if not harness.program_present():
        sys.stderr.write(f"no residueseq sources under {harness.SRC}\n")
        return 2
    workloads = {}
    for name in harness.WORKLOADS:
        digests, cells = {}, None
        for seed in SEEDS:
            r = harness.spawn(harness.cli_argv(name, seed), TIMEOUT_S, f"ref-{name}")
            reports = json.loads(r.stdout) if r.returncode == 0 else []
            if not reports or any(rep["verdict"] != "holds" for rep in reports):
                sys.stderr.write(f"{name} seed {seed}: exit {r.returncode}, not all holds\n")
                return 1
            if cells not in (None, len(reports)):
                sys.stderr.write(f"{name} seed {seed}: {len(reports)} reports, not {cells}\n")
                return 1
            cells = len(reports)
            digests[str(seed)] = harness.digest(r.stdout)
            print(f"{name} seed {seed}: {cells} cells, {r.wall_s:.2f} s", flush=True)
        workloads[name] = {"cells": cells, "stdout_sha256": digests}
    with open(harness.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"workloads": workloads}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
