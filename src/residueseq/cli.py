"""Command-line front end.

Exit status: 0 when every verdict holds (or the requested object was
produced), 1 when a verdict fails or a search comes up empty, 2 on
invalid input. All randomness flows from --seed (default 0, never
entropy); identical configuration and seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import sys

from .errors import InvalidInputError
from .ringcore import RingContext, parse_univariate
from .polyring import RingPolynomial, parse_poly_spec
from .primitivity import (
    DEFAULT_SEARCH_BUDGET,
    certificate_to_dict,
    certify,
    find_primitive,
    order_and_certificate,
)
from .sequences import alpha_sequence, dump_rows, generate
from .compress import (
    CompressingMap,
    compress_sequence,
    multipoly_from_json,
    parse_multipoly,
    psi_zw,
    zero_poly,
)
from . import analysis


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(","))


def _distinct_ints(text: str) -> tuple[int, ...]:
    """A list naming suite cells: a repeated value would repeat them."""
    values = _ints(text)
    if len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"repeated value in {text!r}")
    return values


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


# suite parameter -> (flag, add_argument keywords). A verify sub-command
# declares the flag of each parameter its suite takes (`all`: the budget)
# and --seed; the overrides passed to run_suite and the replay line read
# this table too, in its order. --e gives `es` its one value as a list.
SUITE_FLAGS = {
    "ps": ("--p", {"type": _distinct_ints, "help": "comma-separated prime list"}),
    "p": ("--p", {"type": int}),
    "es": ("--e", {"type": int, "nargs": 1}),
    "e": ("--e", {"type": int}),
    "n": ("--n", {"type": int}),
    "f_coeffs": ("--f", {"type": _ints, "help": "fix the generator (comma-separated)"}),
    "deg_g": ("--deg-g", {"type": int}),
    "ks": ("--k", {"type": _distinct_ints, "help": "comma-separated marker values"}),
    "seed": ("--seed", {"type": int, "default": 0}),
    "budget": ("--budget", {
        "type": positive_int, "default": analysis.DEFAULT_BUDGET,
        "help": "work budget (default %(default)s): 64-bit mask words for alpha-k; "
                "for thm9, p^e table entries per s plus the positions its failing "
                "walks read; over it they sample"}),
}


def _resolve_poly(args) -> RingPolynomial:
    given = [flag for flag in ("--p", "--e", "--f") if getattr(args, flag[2:]) is not None]
    if args.poly is not None:
        if given:
            raise InvalidInputError(f"--poly does not take {', '.join(given)}")
        return parse_poly_spec(args.poly)
    if len(given) < 3:
        raise InvalidInputError("give either --poly or all of --p, --e, --f")
    ctx = RingContext(args.p, args.e)
    return RingPolynomial(ctx, tuple(ctx.check(c) for c in args.f))


def _parse_map_spec(spec: str, p: int, e: int) -> CompressingMap:
    """Mini-grammar `g=<poly in x>; eta=<terms | psi(z,w) | table@file>`;
    eta defaults to 0 when omitted."""
    g = None
    eta = None
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        if part.startswith("g="):
            if g is not None:
                raise InvalidInputError("map spec defines g twice")
            g = parse_univariate(part[2:], p)
        elif part.startswith("eta="):
            if eta is not None:
                raise InvalidInputError("map spec defines eta twice")
            body = part[4:].strip()
            if body.startswith("psi(") and body.endswith(")"):
                try:
                    z, w = (int(v) for v in body[4:-1].split(","))
                except ValueError:
                    raise InvalidInputError(f"psi takes two integers z,w, got {body!r}") from None
                eta = psi_zw(p, e, *(RingContext(p, 1).check(v) for v in (z, w)))
            elif body.startswith("table@"):
                # a file that cannot be read as JSON is unreadable; a table
                # with bad contents raises its own InvalidInputError
                try:
                    with open(body[6:], "r", encoding="utf-8") as fh:
                        eta = multipoly_from_json(fh.read())
                except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise InvalidInputError(f"unreadable eta table {body[6:]!r}: {exc!r}") from None
            elif body == "0":
                eta = zero_poly(p, e - 1)
            else:
                eta = parse_multipoly(f"p={p} vars={e - 1}; {body}")
        else:
            raise InvalidInputError(f"unrecognized map spec part {part!r}")
    if g is None:
        raise InvalidInputError("map spec must define g")
    if eta is None:
        eta = zero_poly(p, e - 1)
    return CompressingMap(g=g, eta=eta, e=e)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def cmd_check(args) -> int:
    f = _resolve_poly(args)
    period, cert = order_and_certificate(f)
    if cert is not None:
        payload = certificate_to_dict(cert)
        ok = cert.strongly_primitive if args.strong else True
    else:
        payload = {
            "p": f.ctx.p, "e": f.ctx.e, "n": f.degree,
            "f": list(f.coeffs), "period": period, "primitive": False,
        }
        ok = False
    _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    return 0 if ok else 1


def cmd_find(args) -> int:
    cert = find_primitive(RingContext(args.p, args.e), args.n, strongly=args.strong,
                          search_budget=args.budget, seed=args.seed)
    if cert is None:
        sys.stderr.write("no qualifying polynomial found within the budget\n")
        return 1
    _emit(json.dumps(certificate_to_dict(cert), sort_keys=True) + "\n", args.out)
    return 0


def cmd_seq(args) -> int:
    f = _resolve_poly(args)
    seq = generate(f, args.init)
    alpha = None
    phi = None
    if args.action == "alpha":
        alpha = alpha_sequence(seq, certify(f))
    elif args.action == "compress":
        phi = compress_sequence(_parse_map_spec(args.map, f.ctx.p, f.ctx.e), seq)
    _emit(_write_csv(dump_rows(seq, alpha=alpha, phi=phi)), args.out)
    return 0


def _reports_payload(reports, fmt: str, include_timing: bool) -> str:
    dicts = [r.to_dict(include_timing=include_timing) for r in reports]
    if fmt == "json":
        return json.dumps(dicts, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        rows = [["experiment", "verdict", "sampled", "seed", "positions",
                 "pairs", "params", "witness"]]
        for d in dicts:
            rows.append([
                d["experiment"], d["verdict"], d["sampled"], d["seed"],
                d["counts"]["positions"], d["counts"]["pairs"],
                json.dumps(d["params"], sort_keys=True),
                json.dumps(d.get("witness"), sort_keys=True),
            ])
        return _write_csv(rows)
    lines = []
    for d in dicts:
        summary = " ".join(f"{k}={v}" for k, v in sorted(d["params"].items()))
        lines.append(f"[{d['verdict']}] {d['experiment']} {summary}")
    return "\n".join(lines) + "\n"


def _suite_overrides(args) -> dict:
    """The suite parameters that the verify flags set, in SUITE_FLAGS
    order: those given, the seed and, for a suite that reads it, the
    budget in effect."""
    return {param: getattr(args, param) for param in SUITE_FLAGS
            if getattr(args, param, None) is not None}


def _repro_line(suite: str, overrides: dict) -> str:
    """The verify command that replays a run of suite with overrides."""
    bits = ["residueseq verify", suite]
    for param, value in overrides.items():
        if isinstance(value, (tuple, list)):
            value = ",".join(map(str, value))
        bits.append(f"{SUITE_FLAGS[param][0]} {value}")
    return " ".join(bits)


def cmd_verify(args) -> int:
    overrides = _suite_overrides(args)
    reports = analysis.run_suite(args.suite, **overrides)
    _emit(_reports_payload(reports, args.format, args.timing), args.out)
    failing = [r for r in reports if not r.holds]
    for report in failing:
        sys.stderr.write(f"fails: {report.experiment}; reproduce with: "
                         f"{_repro_line(args.suite, overrides)}\n")
    return 1 if failing else 0


def _poly_flags(parser) -> None:
    """The generator, as --p, --e and --f or as one --poly spec."""
    parser.add_argument("--p", type=int)
    parser.add_argument("--e", type=int)
    parser.add_argument("--f", type=_ints, help="comma-separated coefficients, constant first")
    parser.add_argument("--poly", help="full spec, e.g. 'p=3 e=2; f=8,8,1'")


def _check_flags(cmd, name: str) -> None:
    _poly_flags(cmd)
    cmd.add_argument("--strong", action="store_true")
    cmd.add_argument("--out")
    cmd.set_defaults(func=cmd_check)


def _find_flags(cmd, name: str) -> None:
    for flag in ("--p", "--e", "--n"):
        cmd.add_argument(flag, type=int, required=True)
    cmd.add_argument("--strong", action="store_true")
    cmd.add_argument("--seed", type=int, default=0)
    cmd.add_argument("--budget", type=positive_int, default=DEFAULT_SEARCH_BUDGET)
    cmd.add_argument("--out")
    cmd.set_defaults(func=cmd_find)


def _seq_flags(cmd, action: str) -> None:
    _poly_flags(cmd)
    cmd.add_argument("--init", type=_ints, required=True, help="comma-separated initial state")
    if action == "compress":
        cmd.add_argument("--map", required=True, help="e.g. 'g=x^2; eta=psi(0,1)'")
    cmd.add_argument("--out")
    cmd.set_defaults(func=cmd_seq)


def _suite_flags(cmd, name: str) -> None:
    # SUITES, not the module attributes, which a tracer may wrap; `all`
    # is no SUITES entry
    suite = analysis.SUITES.get(name)
    takes = inspect.signature(suite).parameters if suite else ("budget",)
    for param, (flag, options) in SUITE_FLAGS.items():
        if param in takes or param == "seed":
            cmd.add_argument(flag, dest=param, **options)
    cmd.add_argument("--format", choices=("json", "csv", "text"), default="json")
    cmd.add_argument("--timing", action="store_true",
                     help="include wall-time in reports (breaks byte determinism)")
    cmd.add_argument("--out")
    cmd.set_defaults(func=cmd_verify)


# command -> (dest of its sub-command, help); (command, sub-command) -> the
# function that declares the sub-command's flags, given its parser and name,
# in help order
COMMANDS = {
    "primitive": ("action", "certificates for generators"),
    "seq": ("action", "sequence tables as CSV"),
    "verify": ("suite", "run a verification suite"),
}
SUBCOMMANDS = {
    ("primitive", "check"): _check_flags,
    ("primitive", "find"): _find_flags,
    **dict.fromkeys([("seq", action) for action in ("gen", "alpha", "compress")], _seq_flags),
    **dict.fromkeys([("verify", name) for name in analysis.SUITE_NAMES], _suite_flags),
}


def build_parser(only=None) -> argparse.ArgumentParser:
    """One sub-command per action and per suite, each declaring only the
    flags it reads: argparse rejects any other flag (exit 2). With only, a
    (command, sub-command) pair of SUBCOMMANDS, just that sub-command is
    built under all three commands, the choices the top usage lists; it
    parses an argv naming that pair as the whole parser does."""
    parser = argparse.ArgumentParser(
        prog="residueseq",
        description="Linear recurring sequences modulo odd prime powers: "
                    "primitivity certificates, level decomposition, "
                    "compressing maps, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {command: sub.add_parser(command, help=help_text).add_subparsers(
                  dest=dest, required=True)
              for command, (dest, help_text) in COMMANDS.items()}
    for command, name in [only] if only else SUBCOMMANDS:
        SUBCOMMANDS[command, name](groups[command].add_parser(name, allow_abbrev=False), name)
    return parser


def main(argv=None) -> int:
    # only the sub-command that argv names is built; -h, or a missing or
    # unknown name, builds every one, for the help and the list of choices
    argv = sys.argv[1:] if argv is None else list(argv)
    named = tuple(argv[:2])
    parser = build_parser(named if named in SUBCOMMANDS else None)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInputError, FileNotFoundError) as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
