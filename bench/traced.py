"""Run the residueseq CLI in this process with spans around each layer.

Usage: python traced.py SPANS_PATH <residueseq CLI arguments...>

Wrappers are installed from here, around the public functions listed in
TARGETS, and replace every binding of the original in the residueseq
modules (including `from .x import y` copies). The program itself is not
changed. A name the program no longer has is reported as absent. Spans
(name, parent, start, end) are kept in memory and written to SPANS_PATH
(binary arrays) and SPANS_PATH.json (names and counters) at exit; stdout
is the CLI's own output, byte for byte.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

# (module, attribute, kind). "span" records a span per call; "gen" wraps a
# generator function and counts the items it yields. Span names are
# "<module>.<last part of attribute>".
TARGETS = [
    ("ringcore", "interpolate", "span"),
    ("ringcore", "padic_expand", "span"),
    ("polyring", "order_of_x", "span"),
    ("polyring", "poly_powmod", "span"),
    ("polyring", "poly_mulmod", "span"),
    ("polyring", "apply_poly_to_sequence", "span"),
    ("primitivity", "iter_monic_polys", "gen"),
    ("primitivity", "iter_primitive", "gen"),
    ("primitivity", "certify", "span"),
    ("primitivity", "find_primitive", "span"),
    ("sequences", "generate", "span"),
    ("sequences", "LRSequence.state_at", "span"),
    ("sequences", "level", "span"),
    ("sequences", "alpha_sequence", "span"),
    ("compress", "value_table", "span"),
    ("compress", "from_table", "span"),
    ("analysis", "verify_alpha_k_injectivity", "span"),
    ("analysis", "count_uniform_s", "span"),
    ("analysis", "shift_classes", "span"),
    ("analysis", "suite_carry", "span"),
    ("analysis", "suite_legendre", "span"),
    ("analysis", "suite_recurrence", "span"),
    ("analysis", "suite_periods", "span"),
    ("analysis", "suite_distribution", "span"),
    ("analysis", "suite_alpha_k", "span"),
    ("analysis", "suite_thm7", "span"),
    ("analysis", "suite_thm8", "span"),
    ("analysis", "suite_thm9", "span"),
    ("analysis", "run_suite", "span"),
    ("cli", "main", "span"),
]

PACKAGE = "residueseq"


class Tracer:
    """Spans in flat arrays: span i has name id names[i], parent span
    parents[i] (-1 at the top) and perf_counter_ns start and end."""

    def __init__(self) -> None:
        self.span_names: list[str] = []
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.generate_keys: set = set()
        self.absent: list[str] = []

    def span(self, name: str, fn, after=None):
        nid = len(self.span_names)
        self.span_names.append(name)
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self.stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def generator(self, name: str, fn):
        key = f"{name}.yielded"
        counters = self.counters
        counters[key] = 0

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counters[key] += 1
                yield item

        return wrapper

    def _after_generate(self, seq) -> None:
        self.counters["sequences.generate.terms"] += len(seq.terms)
        f = seq.f
        self.generate_keys.add((f.ctx.p, f.ctx.e, f.coeffs, seq.initial_state))

    def _after_shift_classes(self, result) -> None:
        self.counters["analysis.shift_classes.classes"] += len(result[0])

    def install(self) -> None:
        after = {
            "sequences.generate": self._after_generate,
            "analysis.shift_classes": self._after_shift_classes,
        }
        self.counters["sequences.generate.terms"] = 0
        self.counters["analysis.shift_classes.classes"] = 0
        for module_name, attr, kind in TARGETS:
            name = f"{module_name}.{attr.rsplit('.', 1)[-1]}"
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ModuleNotFoundError:
                owner = None
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                self.absent.append(name)
                continue
            if kind == "gen":
                wrapped = self.generator(name, original)
            else:
                wrapped = self.span(name, original, after.get(name))
            setattr(owner, leaf, wrapped)
            modules = [m for n, m in sys.modules.items()
                       if n == PACKAGE or n.startswith(PACKAGE + ".")]
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, binding, wrapped)

    def write(self, path: str) -> None:
        with open(path, "wb") as fh:
            for arr in (self.names, self.parents, self.starts, self.ends):
                arr.tofile(fh)
        counters = dict(self.counters)
        counters["sequences.generate.unique"] = len(self.generate_keys)
        meta = {
            "span_names": self.span_names,
            "spans": len(self.names),
            "counters": counters,
            "absent": self.absent,
        }
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh, sort_keys=True)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    cli = importlib.import_module(f"{PACKAGE}.cli")
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
        sys.stdout.flush()
    finally:
        tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
