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
import os
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

BUDGET_ENV = "RESIDUESEQ_BUDGET"


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(","))


def _distinct_ints(text: str) -> tuple[int, ...]:
    """A list naming suite cells: a repeated value would repeat them."""
    values = _ints(text)
    if len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"repeated value in {text!r}")
    return values


# the verify flags that set suite parameters: flag -> (argparse type, help,
# the parameters its value can set; a suite takes those it has). The
# parser, the flag check and the replay line all read this one table.
SUITE_FLAGS = {
    "--p": (_distinct_ints, "comma-separated prime list",
            lambda ps: {"ps": ps, "p": ps[0]} if len(ps) == 1 else {"ps": ps}),
    "--e": (int, None, lambda e: {"e": e, "es": (e,)}),
    "--n": (int, None, lambda n: {"n": n}),
    "--f": (_ints, "fix the generator (comma-separated)", lambda f: {"f_coeffs": f}),
    "--deg-g": (int, None, lambda deg_g: {"deg_g": deg_g}),
    "--k": (_distinct_ints, "comma-separated marker values", lambda ks: {"ks": ks}),
}


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def _flags_given(args, flags=SUITE_FLAGS):
    """(flag, value) for each of flags given a value, in their order."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            yield flag, value


def _reject(args, flags, taker: str) -> None:
    """A flag among flags that taker would ignore is invalid input, not
    silently ignored."""
    ignored = [flag for flag, _ in _flags_given(args, flags)]
    if ignored:
        raise InvalidInputError(f"{taker} does not take {', '.join(ignored)}")


def _resolve_poly(args) -> RingPolynomial:
    if args.poly is not None:
        _reject(args, ("--p", "--e", "--f"), "--poly")
        return parse_poly_spec(args.poly)
    if args.p is None or args.e is None or args.f is None:
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


def cmd_primitive(args) -> int:
    if args.action == "check":
        _reject(args, ("--n", "--budget"), "primitive check")
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
    # find
    _reject(args, ("--f", "--poly"), "primitive find")
    if args.p is None or args.e is None or args.n is None:
        raise InvalidInputError("primitive find needs --p, --e and --n")
    ctx = RingContext(args.p, args.e)
    cert = find_primitive(
        ctx, args.n, strongly=args.strong,
        search_budget=args.budget or DEFAULT_SEARCH_BUDGET, seed=args.seed,
    )
    if cert is None:
        sys.stderr.write("no qualifying polynomial found within the budget\n")
        return 1
    _emit(json.dumps(certificate_to_dict(cert), sort_keys=True) + "\n", args.out)
    return 0


def cmd_seq(args) -> int:
    if args.action != "compress":
        _reject(args, ("--map",), f"seq {args.action}")
    f = _resolve_poly(args)
    seq = generate(f, args.init)
    alpha = None
    phi = None
    if args.action == "alpha":
        alpha = alpha_sequence(seq, certify(f))
    elif args.action == "compress":
        if not args.map:
            raise InvalidInputError("seq compress needs --map")
        m = _parse_map_spec(args.map, f.ctx.p, f.ctx.e)
        phi = compress_sequence(m, seq)
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


def _suite_params(suite: str):
    """The parameters a suite takes; `all` takes the budget and the seed."""
    if suite == "all":
        return ("budget", "seed")
    return inspect.signature(analysis.SUITES[suite]).parameters


def _suite_overrides(args) -> dict:
    """The suite parameters that the verify flags set. A flag the suite
    has no parameter for is invalid input, not silently ignored."""
    takes = _suite_params(args.suite)
    offers = {flag: SUITE_FLAGS[flag][2](value) for flag, value in _flags_given(args)}
    ignored = [flag + (" with more than one prime" if flag == "--p" and "p" in takes else "")
               for flag, params in offers.items() if params and not params.keys() & takes]
    if args.budget and "budget" not in takes:
        ignored.append("--budget")
    if ignored:
        raise InvalidInputError(f"verify {args.suite} does not take {', '.join(ignored)}")
    return {k: v for params in offers.values() for k, v in params.items() if k in takes}


def _repro_line(args, budget: int) -> str:
    """The verify command that replays this run: the suite, every flag
    that set a suite parameter, the seed and, for a suite that reads it,
    the budget in effect."""
    bits = ["residueseq verify", args.suite]
    for flag, value in _flags_given(args):
        value = ",".join(map(str, value)) if isinstance(value, tuple) else value
        bits.append(f"{flag} {value}")
    bits.append(f"--seed {args.seed}")
    if "budget" in _suite_params(args.suite):
        bits.append(f"--budget {budget}")
    return " ".join(bits)


def cmd_verify(args) -> int:
    budget = analysis.DEFAULT_BUDGET  # the suites that take no budget never read it
    if "budget" in _suite_params(args.suite):
        env = os.environ.get(BUDGET_ENV, str(budget))
        try:
            budget = args.budget or positive_int(env)
        except ValueError:
            raise InvalidInputError(f"${BUDGET_ENV} must be a positive integer, got {env!r}") from None
    reports = analysis.run_suite(args.suite, budget=budget, seed=args.seed,
                                 **_suite_overrides(args))
    _emit(_reports_payload(reports, args.format, args.timing), args.out)
    failing = [r for r in reports if not r.holds]
    for report in failing:
        sys.stderr.write(f"fails: {report.experiment}; reproduce with: "
                         f"{_repro_line(args, budget)}\n")
    return 1 if failing else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="residueseq",
        description="Linear recurring sequences modulo odd prime powers: "
                    "primitivity certificates, level decomposition, "
                    "compressing maps, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    prim = sub.add_parser("primitive", help="certificates for generators")
    prim.add_argument("action", choices=("check", "find"))
    prim.add_argument("--p", type=int)
    prim.add_argument("--e", type=int)
    prim.add_argument("--n", type=int)
    prim.add_argument("--f", type=_ints, help="comma-separated coefficients, constant first")
    prim.add_argument("--poly", help="full spec, e.g. 'p=3 e=2; f=8,8,1'")
    prim.add_argument("--strong", action="store_true")
    prim.add_argument("--seed", type=int, default=0)
    prim.add_argument("--budget", type=positive_int)
    prim.add_argument("--out")
    prim.set_defaults(func=cmd_primitive)

    seq = sub.add_parser("seq", help="sequence tables as CSV")
    seq.add_argument("action", choices=("gen", "alpha", "compress"))
    seq.add_argument("--p", type=int)
    seq.add_argument("--e", type=int)
    seq.add_argument("--f", type=_ints, help="comma-separated coefficients, constant first")
    seq.add_argument("--poly")
    seq.add_argument("--init", type=_ints, required=True, help="comma-separated initial state")
    seq.add_argument("--map", help="e.g. 'g=x^2; eta=psi(0,1)'")
    seq.add_argument("--out")
    seq.set_defaults(func=cmd_seq)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=analysis.SUITE_NAMES)
    for flag, (kind, help_text, _) in SUITE_FLAGS.items():
        verify.add_argument(flag, type=kind, help=help_text)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--budget", type=positive_int,
                        help="work budget: 64-bit mask words for alpha-k; for thm9, "
                             "p^e table entries per s plus the positions its failing "
                             f"walks read; over it they sample (or ${BUDGET_ENV}); "
                             "the other suites reject it")
    verify.add_argument("--format", choices=("json", "csv", "text"), default="json")
    verify.add_argument("--timing", action="store_true",
                        help="include wall-time in reports (breaks byte determinism)")
    verify.add_argument("--out")
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInputError, FileNotFoundError) as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
