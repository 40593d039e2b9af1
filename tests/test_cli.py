import dataclasses
import hashlib
import importlib.util
import inspect
import json
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from residueseq import analysis, cli, primitivity
from residueseq.cli import build_parser, main, _parse_map_spec, _repro_line, _suite_overrides
from residueseq.errors import InvalidInputError
from residueseq.ringcore import RingContext, UnivariateFn


def run_cli(capsys, *argv):
    """main's exit status, stdout and stderr, also when argparse rejects argv."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_primitive_check_ok(capsys):
    code, out, _ = run_cli(capsys, "primitive", "check", "--p", "3", "--e", "2",
                           "--f", "8,8,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["period"] == 24
    assert payload["strongly_primitive"] is True
    assert payload["h1"] == [1, 1]


def test_primitive_check_not_primitive(capsys):
    code, out, _ = run_cli(capsys, "primitive", "check", "--p", "3", "--e", "2",
                           "--f", "8,0,1")
    assert code == 1
    payload = json.loads(out)
    assert payload["primitive"] is False


def test_primitive_check_poly_spec(capsys):
    code, out, _ = run_cli(capsys, "primitive", "check", "--poly",
                           "p=3 e=2; f=8,8,1")
    assert code == 0
    assert json.loads(out)["period"] == 24


def test_primitive_check_strong_flag(capsys):
    code, _, _ = run_cli(capsys, "primitive", "check", "--p", "3", "--e", "2",
                         "--f", "8,8,1", "--strong")
    assert code == 0


def test_primitive_check_invalid(capsys):
    code, _, err = run_cli(capsys, "primitive", "check", "--p", "3", "--e", "2",
                           "--f", "8,8,2")
    assert code == 2
    assert "invalid input" in err
    code, _, _ = run_cli(capsys, "primitive", "check", "--p", "3", "--e", "2")
    assert code == 2


def test_primitive_check_computes_the_order_once(capsys, monkeypatch):
    calls = []
    order_of_x = primitivity.order_of_x

    def counted(f):
        calls.append(f)
        return order_of_x(f)

    monkeypatch.setattr(primitivity, "order_of_x", counted)
    for coeffs, code in (("8,8,1", 0), ("8,0,1", 1)):
        calls.clear()
        assert run_cli(capsys, "primitive", "check", "--p", "3", "--e", "2",
                       "--f", coeffs)[0] == code
        assert len(calls) == 1


NON_CANONICAL = [
    ("primitive", "check", "--p", "3", "--e", "2", "--f", "17,-1,10"),
    ("verify", "alpha-k", "--f", "17,-1,10", "--k", "1"),
]


@pytest.mark.parametrize("argv", NON_CANONICAL)
def test_non_canonical_generator_exits_2(capsys, argv):
    # --f is held to the same canonical residues as --poly, not reduced
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "17 is not a canonical residue modulo 9" in err


REPEATED = [
    (("legendre", "--p", "3,3"), "argument --p: repeated value in '3,3'"),
    (("alpha-k", "--k", "1,1"), "argument --k: repeated value in '1,1'"),
]


@pytest.mark.parametrize("argv, message", REPEATED)
def test_repeated_suite_values_exit_2(capsys, argv, message):
    # a repeated prime or marker would run every one of its cells twice
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("k", ["4", "-2", "0"])
def test_alpha_k_marker_outside_the_residues_exits_2(capsys, k):
    # k is a nonzero residue mod p, never reduced: 4 and -2 are not 1
    code, out, err = run_cli(capsys, "verify", "alpha-k", "--p", "3", "--k", k)
    assert code == 2 and out == ""
    assert f"k must be in [1, 3), got {k}" in err


def test_alpha_k_bad_marker_exits_2_before_any_cell(capsys, monkeypatch):
    # a bad marker after a good one is caught before the good one's cells
    calls = []
    monkeypatch.setattr(analysis, "verify_alpha_k_injectivity",
                        lambda *a, **kw: calls.append(a))
    code, out, err = run_cli(capsys, "verify", "alpha-k", "--p", "5", "--e", "3",
                             "--k", "1,7")
    assert code == 2 and out == "" and calls == []
    assert "k must be in [1, 5), got 7" in err


def test_alpha_k_generator_of_another_degree_exits_2(capsys):
    # --f fixes the generator, so its degree must be --n, not override it
    code, out, err = run_cli(capsys, "verify", "alpha-k", "--p", "3", "--e", "2",
                             "--n", "3", "--f", "8,8,1")
    assert code == 2 and out == ""
    assert "f has degree 2, but n = 3" in err


NON_INTEGER = [
    ("primitive", "check", "--p", "3", "--e", "2", "--f", "8,x,1"),
    ("seq", "gen", "--p", "3", "--e", "2", "--f", "8,8,1", "--init", "a"),
    # an empty entry is not skipped: no default primes, no shorter generator
    ("verify", "carry", "--p", ""),
    ("verify", "alpha-k", "--f", "8,,8,1"),
]


@pytest.mark.parametrize("argv", NON_INTEGER)
def test_non_integer_lists_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert re.search(r"invalid _(distinct_)?ints value", capsys.readouterr().err)


def test_primitive_find(capsys):
    code, out, _ = run_cli(capsys, "primitive", "find", "--p", "3", "--e", "2",
                           "--n", "2", "--strong")
    assert code == 0
    payload = json.loads(out)
    assert payload["strongly_primitive"] is True
    assert payload["f"] == [2, 1, 1]


def test_primitive_find_budget_exhausted(capsys):
    # 3^16 candidates force the seeded random path; one draw finds nothing
    code, _, err = run_cli(capsys, "primitive", "find", "--p", "3", "--e", "4",
                           "--n", "4", "--budget", "1", "--seed", "0")
    assert code == 1
    assert "no qualifying polynomial" in err


def test_seq_gen(capsys):
    code, out, _ = run_cli(capsys, "seq", "gen", "--p", "3", "--e", "2",
                           "--f", "8,8,1", "--init", "0,1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,a,a0,a1"
    assert len(lines) == 25
    assert lines[1] == "0,0,0,0"


def test_seq_alpha(capsys):
    code, out, _ = run_cli(capsys, "seq", "alpha", "--p", "3", "--e", "2",
                           "--f", "8,8,1", "--init", "0,1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,a,a0,a1,alpha"
    assert lines[1].endswith(",1")


def test_seq_alpha_non_primitive_state(capsys):
    code, _, err = run_cli(capsys, "seq", "alpha", "--p", "3", "--e", "2",
                           "--f", "8,8,1", "--init", "3,6")
    assert code == 2
    assert "invalid input" in err


def test_seq_alpha_non_primitive_generator(capsys):
    code, _, _ = run_cli(capsys, "seq", "alpha", "--p", "3", "--e", "2",
                         "--f", "8,0,1", "--init", "0,1")
    assert code == 2


def test_seq_compress(capsys):
    code, out, _ = run_cli(capsys, "seq", "compress", "--p", "3", "--e", "2",
                           "--f", "8,8,1", "--init", "0,1",
                           "--map", "g=x^2; eta=psi(0,1)")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,a,a0,a1,phi"


def test_seq_compress_works_without_primitivity(capsys):
    # the phi column needs no certificate; x^2 - 1 is not primitive
    code, out, _ = run_cli(capsys, "seq", "compress", "--p", "3", "--e", "2",
                           "--f", "8,0,1", "--init", "0,1",
                           "--map", "g=x; eta=0")
    assert code == 0
    assert out.startswith("t,a,a0,a1,phi")


@pytest.mark.parametrize("argv, digest", [
    (("gen", "--p", "3", "--e", "2", "--f", "8,8,1"),
     "35be81480ad121f71f7a1dfd1169c100319ace6162316e0f3d653985f94b4d43"),
    (("alpha", "--p", "3", "--e", "2", "--f", "8,8,1"),
     "5f6dec6576adb39a33323779098d3d0798f4716f22449fa47a97d67f082939b1"),
    (("compress", "--p", "3", "--e", "2", "--f", "8,8,1", "--map", "g=x^2; eta=psi(0,1)"),
     "26d43f1a209d8a4efda4bdb5f0053e936f5f4f9084e6f149566a9fba335713a9"),
    (("gen", "--p", "17", "--e", "2", "--f", "3,1,1"),
     "bb1e9603cf08195718f3b66f7264607d79256e17f90ecebbf64862406d5e3ff1"),
    (("alpha", "--p", "17", "--e", "2", "--f", "3,1,1"),
     "6703d1ab69bfdffe90ff68648321ccd54c3b06ec4811442139f79dc438ad7381"),
    (("compress", "--p", "17", "--e", "2", "--f", "3,1,1", "--map", "g=x^2; eta=psi(0,1)"),
     "0f0512b6134aefc6d1bb76aa8cd0973638d3c6839e1d0d9b6d570665dc7af0de"),
], ids=["gen-9", "alpha-9", "compress-9", "gen-289", "alpha-289", "compress-289"])
def test_seq_csv_keeps_its_digest(capsys, argv, digest):
    # every column of the tables, over Z/9 (bytes terms) and Z/289 (array
    # terms, bytes digit streams), byte for byte
    code, out, _ = run_cli(capsys, "seq", *argv, "--init", "0,1")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_verify_all_matches_golden_report(capsys):
    # the default report of every suite, byte for byte; a change to it on
    # purpose regenerates tests/golden/verify_all.json and says why
    golden = Path(__file__).parent / "golden" / "verify_all.json"
    code, out, _ = run_cli(capsys, "verify", "all", "--seed", "0")
    assert code == 0
    assert out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("seed", ["0", "1"])
def test_alpha_k_p5_matches_bench_reference_digest(capsys, seed):
    # 27 cells of 360,000 pairs: verdicts, witnesses and exact counts,
    # pinned by the digests the benchmark's correctness gate checks
    reference = Path(__file__).parents[1] / "bench" / "reference.json"
    digests = json.loads(reference.read_text(encoding="utf-8"))
    code, out, _ = run_cli(capsys, "verify", "alpha-k", "--p", "5", "--e", "2",
                           "--n", "2", "--k", "1", "--seed", seed)
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == digests["workloads"]["alpha-k-p5"]["stdout_sha256"][seed]


GENERATED = ("sequences.generate.terms",)


@pytest.mark.parametrize("workload, argv, counted", [
    ("verify-all", ["verify", "all"], (*GENERATED, "analysis.shift_classes.classes")),
    ("periods-p7", ["verify", "periods", "--p", "7", "--e", "2"], GENERATED),  # bytes terms
    ("thm9-p17-19", ["verify", "thm9", "--p", "17,19"], GENERATED),  # array terms: m = 289, 361
], ids=["verify-all", "periods-p7", "thm9-p17-19"])
def test_benchmark_tracer_runs_workloads_unchanged(tmp_path, workload, argv, counted):
    # bench/traced.py wraps every layer it names and reads the results of
    # two: len(seq.terms) and the hashable seq.initial_state of each
    # generate, and the reps of shift_classes' (reps, walked). A name or a
    # shape that drifts from it, under either term store, fails here, not
    # first in a traced benchmark run whose last line is then no result
    root = Path(__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    argv = [*argv, "--seed", "0"]
    spans = tmp_path / f"{workload}.spans"
    traced = subprocess.run([sys.executable, str(root / "bench" / "traced.py"), str(spans), *argv],
                            capture_output=True, env=env, cwd=root, timeout=120)
    untraced = subprocess.run([sys.executable, "-m", "residueseq", *argv],
                              capture_output=True, env=env, cwd=root, timeout=120)
    assert traced.returncode == 0, traced.stderr.decode()
    assert untraced.returncode == 0, untraced.stderr.decode()
    assert traced.stdout == untraced.stdout
    reference = json.loads((root / "bench" / "reference.json").read_text(encoding="utf-8"))
    digest = reference["workloads"][workload]["stdout_sha256"]["0"]
    assert hashlib.sha256(traced.stdout).hexdigest() == digest
    meta = json.loads(Path(f"{spans}.json").read_text(encoding="utf-8"))
    assert meta["absent"] == []
    assert all(meta["counters"][name] > 0 for name in counted)


@pytest.mark.parametrize("budget, seed, digest", [
    ("4130", "3", "e529e7056103233dbc4596e65861f0906ccd1ef42463480395450f6ddff46764"),
    ("1", "4", "f8beb80b4dc2ded99ae44d6b76d4203be3d0ef2e98041f9dcc82c29238dfebce"),
], ids=["4130-3", "1-4"])  # named without the digest, so a recapture keeps the names
def test_sampled_thm9_matches_its_pinned_digest(capsys, monkeypatch, budget, seed, digest):
    # exact thm9 at p=17 prices 14 tables of 289 entries and 85 positions of
    # failing walks, 4131 in all; a budget below it samples one of the 83,232
    # primitive states, drawn by the recurrence suite's sampler and generated
    # last. The digests pin every count the drawn state gives
    generated = []
    real_generate = analysis.generate

    def generate(f, state):
        generated.append(tuple(state))
        return real_generate(f, generated[-1])

    monkeypatch.setattr(analysis, "generate", generate)
    code, out, _ = run_cli(capsys, "verify", "thm9", "--p", "17", "--budget", budget,
                           "--seed", seed)
    assert code == 0
    assert '"sampled": true' in out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    drawn = analysis._sample_primitive_states(RingContext(17, 2), 2, 1, random.Random(int(seed)))
    assert generated[-1] == sorted(drawn)[0]


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "legendre", "--p", "3,5")
    assert code == 0
    reports = json.loads(out)
    assert all(r["verdict"] == "holds" for r in reports)


def test_verify_text_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "carry", "--p", "3", "--format", "text")
    assert code == 0
    assert out.startswith("[holds] carry")


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "carry", "--p", "3,5", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("experiment,verdict")
    assert len(lines) == 3


def test_verify_determinism(capsys):
    args = ("verify", "thm9", "--p", "5", "--seed", "9")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_timing_flag_adds_ms(capsys):
    _, out, _ = run_cli(capsys, "verify", "carry", "--p", "3", "--timing")
    assert "ms" in json.loads(out)[0]
    _, out, _ = run_cli(capsys, "verify", "carry", "--p", "3")
    assert "ms" not in json.loads(out)[0]


def test_verify_budget_forces_sampling(capsys):
    code, out, _ = run_cli(capsys, "verify", "alpha-k", "--p", "3", "--e", "2",
                           "--n", "2", "--f", "8,8,1", "--k", "1", "--budget", "100")
    assert code == 0
    reports = json.loads(out)
    assert all(r["sampled"] for r in reports)


@pytest.mark.parametrize("value", ["abc", "0", "-1", "100"])
def test_budget_env_is_not_read(capsys, monkeypatch, value):
    # --budget is the one way to set the budget: an environment variable of
    # the old name, valid or not, changes nothing (100 would sample alpha-k)
    argvs = (("alpha-k", "--p", "3", "--f", "8,8,1", "--k", "1"), ("thm9", "--p", "5"))
    unset = [run_cli(capsys, "verify", *argv) for argv in argvs]
    monkeypatch.setenv("RESIDUESEQ_BUDGET", value)
    assert [run_cli(capsys, "verify", *argv) for argv in argvs] == unset
    assert all(code == 0 and err == "" for code, _, err in unset)
    assert not any(r["sampled"] for _, out, _ in unset for r in json.loads(out))


BUDGETED = [
    ("verify", "thm9", "--p", "5"),
    ("primitive", "find", "--p", "3", "--e", "2", "--n", "2"),
]


@pytest.mark.parametrize("argv", BUDGETED)
@pytest.mark.parametrize("budget", ["0", "-5"])
def test_non_positive_budget_exits_2(capsys, argv, budget):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--budget", budget])
    assert exc.value.code == 2
    assert f"argument --budget: invalid positive_int value: '{budget}'" in capsys.readouterr().err


def test_bad_budget_env_is_ignored_by_a_suite_without_a_budget(capsys, monkeypatch):
    monkeypatch.setenv("RESIDUESEQ_BUDGET", "abc")
    code, out, err = run_cli(capsys, "verify", "carry", "--p", "3")
    assert code == 0 and err == ""
    assert all(r["verdict"] == "holds" for r in json.loads(out))


SUITE_IGNORES = [
    (("verify", "all", "--p", "97", "--e", "9"), "--p, --e"),
    (("verify", "carry", "--p", "3", "--n", "2"), "--n"),
    (("verify", "legendre", "--p", "3", "--e", "5", "--k", "1"), "--e, --k"),
    (("verify", "periods", "--p", "3,5"), "--p with more than one prime"),
    (("verify", "thm9", "--f", "8,8,1", "--deg-g", "2"), "--f, --deg-g"),
    (("verify", "carry", "--p", "3", "--n", "2", "--budget", "5"), "--n, --budget"),
    *((("verify", suite, "--budget", "5"), "--budget")
      for suite in ("carry", "legendre", "recurrence", "periods", "distribution",
                    "thm7", "thm8")),
]


@pytest.mark.parametrize("argv, named", SUITE_IGNORES)
def test_flags_a_suite_would_ignore_exit_2(capsys, argv, named):
    # a suite's sub-command declares only the flags of its parameters, so
    # argparse names each other one (and a prime list where one prime goes)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    last = err.splitlines()[-1]
    assert all(re.search(rf"{flag}\b", last) for flag in re.findall(r"--[\w-]+", named))


SEQ = ("--p", "3", "--e", "2", "--f", "8,8,1", "--init", "0,1")


COMMAND_IGNORES = [
    (("seq", "gen", *SEQ, "--map", "g=x"), "seq gen does not take --map"),
    (("seq", "alpha", *SEQ, "--map", "g=x"), "seq alpha does not take --map"),
    (("seq", "compress", *SEQ, "--map", "g=x; g=x^2"), "map spec defines g twice"),
    (("seq", "compress", *SEQ, "--map", "g=x; eta=psi(0,1); eta=0"),
     "map spec defines eta twice"),
    (("primitive", "check", "--p", "3", "--e", "2", "--f", "8,8,1", "--n", "2"),
     "primitive check does not take --n"),
    (("primitive", "check", "--p", "3", "--e", "2", "--f", "8,8,1", "--budget", "5"),
     "primitive check does not take --budget"),
    (("primitive", "find", "--p", "3", "--e", "2", "--n", "2", "--f", "8,8,1"),
     "primitive find does not take --f"),
    (("primitive", "find", "--p", "3", "--e", "2", "--n", "2", "--poly", "p=3 e=2; f=8,8,1"),
     "primitive find does not take --poly"),
    (("primitive", "check", "--poly", "p=3 e=2; f=8,8,1", "--p", "5"),
     "--poly does not take --p"),
    (("seq", "gen", "--poly", "p=3 e=2; f=8,8,1", "--e", "3", "--f", "8,1", "--init", "0,1"),
     "--poly does not take --e, --f"),
]


@pytest.mark.parametrize("argv, message", COMMAND_IGNORES)
def test_flags_a_command_would_ignore_exit_2(capsys, argv, message):
    # argparse rejects a flag the action does not declare; the map spec and
    # the --poly exclusion are checked by the command itself
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    flag = message.split()[-1]
    assert (err == f"invalid input: {message}\n"
            or f"error: unrecognized arguments: {flag} " in err), err


BUDGET = analysis.DEFAULT_BUDGET


FLAG_MAPS = [
    (("alpha-k", "--p", "5", "--e", "2", "--n", "2", "--k", "1"),
     {"p": 5, "e": 2, "n": 2, "ks": (1,), "seed": 0, "budget": BUDGET}),
    (("periods", "--p", "7", "--e", "2"), {"p": 7, "es": [2], "seed": 0}),
    (("thm9", "--p", "17,19"), {"ps": (17, 19), "seed": 0, "budget": BUDGET}),
    (("alpha-k", "--f", "8,8,1", "--deg-g", "2"),
     {"f_coeffs": (8, 8, 1), "deg_g": 2, "seed": 0, "budget": BUDGET}),
    (("all",), {"seed": 0, "budget": BUDGET}),
    (("all", "--budget", "5"), {"seed": 0, "budget": 5}),
    (("thm9", "--budget", "5", "--seed", "3"), {"seed": 3, "budget": 5}),
]


@pytest.mark.parametrize("argv, overrides", FLAG_MAPS)
def test_flags_map_to_suite_parameters(argv, overrides):
    args = build_parser().parse_args(["verify", *argv])
    assert _suite_overrides(args) == overrides


def _echo(args) -> int:
    # a verify command that prints what it was given instead of running
    print({k: v for k, v in vars(args).items() if k != "func"})
    return 0


@pytest.mark.parametrize("argv", [
    *NON_CANONICAL, *(("verify", *argv) for argv, _ in REPEATED), *NON_INTEGER,
    *((*argv, "--budget", budget) for argv in BUDGETED for budget in ("0", "-5")),
    *(argv for argv, _ in SUITE_IGNORES), *(argv for argv, _ in COMMAND_IGNORES),
    *(("verify", *argv) for argv, _ in FLAG_MAPS),
    # help, and a missing or unknown name, which build every sub-command
    ("-h",), ("verify", "-h"), ("verify", "periods", "-h"), ("seq", "gen", "-h"),
    (), ("verify",), ("verify", "nonsense"), ("nonsense", "periods"), ("--p", "3"),
])
def test_main_builds_the_named_sub_command_as_the_whole_parser_would(capsys, monkeypatch, argv):
    # main builds only the sub-command that argv[:2] names; for every argv
    # of the rejection and flag tables above, it exits, prints and reports
    # as the parser built whole does
    monkeypatch.setattr(cli, "cmd_verify", _echo)
    built, whole = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda only=None: built.append(only) or whole(only))
    named = run_cli(capsys, *argv)
    monkeypatch.setattr(cli, "build_parser", lambda only=None: whole())
    assert run_cli(capsys, *argv) == named
    assert built == [argv[:2] if argv[:2] in cli.SUBCOMMANDS else None]
    assert named[0] in (0, 1, 2)


# each verify flag of the suite table: a value, and what it sets for the
# suite parameter of each name
TABLE_FLAGS = {
    "--p": ("3", {"ps": (3,), "p": 3}),
    "--e": ("2", {"es": [2], "e": 2}),
    "--n": ("2", {"n": 2}),
    "--f": ("8,8,1", {"f_coeffs": (8, 8, 1)}),
    "--deg-g": ("2", {"deg_g": 2}),
    "--k": ("1", {"ks": (1,)}),
    "--seed": ("4", {"seed": 4}),
    "--budget": ("5", {"budget": 5}),
}


@pytest.mark.parametrize("suite", analysis.SUITE_NAMES)
def test_each_suite_declares_exactly_the_flags_of_its_parameters(capsys, suite):
    # every suite takes --seed, as bench/harness.py passes it to each workload
    takes = {"seed"} | ({"budget"} if suite == "all"
                        else set(inspect.signature(analysis.SUITES[suite]).parameters))
    declared = [flag for flag, (_, sets) in TABLE_FLAGS.items() if sets.keys() & takes]
    code, out, _ = run_cli(capsys, "verify", suite, "-h")
    usage = out.split("\n\n")[0]
    assert code == 0
    assert re.findall(r"\[(--[\w-]+)", usage) == [*declared, "--format", "--timing", "--out"]
    parser = build_parser()
    given = []
    for flag, (value, sets) in TABLE_FLAGS.items():
        if flag in declared:
            given += [flag, value]
            overrides = _suite_overrides(parser.parse_args(["verify", suite, flag, value]))
            wanted = {param: v for param, v in sets.items() if param in takes}
            assert {param: overrides[param] for param in wanted} == wanted
        else:
            code, out, err = run_cli(capsys, "verify", suite, flag, value)
            assert code == 2 and out == ""
            assert f"error: unrecognized arguments: {flag} {value}\n" in err
    # the replay line of a run given every flag it declares parses back to it
    overrides = _suite_overrides(parser.parse_args(["verify", suite, *given]))
    again = parser.parse_args(shlex.split(_repro_line(suite, overrides))[1:])
    assert again.suite == suite and _suite_overrides(again) == overrides


def test_benchmark_workloads_parse_and_periods_keeps_its_digest(capsys, monkeypatch):
    # bench/harness.py appends --seed to every workload's argv, periods-p7's
    # too, and bench/reference.json pins one periods-p7 digest for all seeds
    root = Path(__file__).parents[1]
    spec = importlib.util.spec_from_file_location("bench_harness", root / "bench" / "harness.py")
    harness = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, harness)  # for its dataclasses
    spec.loader.exec_module(harness)
    parser = build_parser()
    for argv in harness.WORKLOADS.values():
        parser.parse_args([*argv, "--seed", "9"])
    code, out, _ = run_cli(capsys, "verify", "periods", "--p", "7", "--e", "2", "--seed", "9")
    assert code == 0
    reference = json.loads((root / "bench" / "reference.json").read_text(encoding="utf-8"))
    digest = reference["workloads"]["periods-p7"]["stdout_sha256"]["9"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_all_eta_flag_is_gone(capsys):
    # the eta grid is fixed by its size; no flag widens it
    with pytest.raises(SystemExit) as exc:
        main(["verify", "alpha-k", "--p", "5", "--e", "2", "--all-eta"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --all-eta" in capsys.readouterr().err


def test_alpha_k_without_strong_generator_exits_2(capsys):
    # deg g = 2 needs a strongly primitive f of degree n; there is none of
    # degree 1 over Z/9, and the suite does not move to degree 2 instead
    code, out, err = run_cli(capsys, "verify", "alpha-k", "--p", "3", "--e", "2",
                             "--n", "1", "--deg-g", "2")
    assert code == 2 and out == ""
    assert "no qualifying polynomial for p=3, e=2, n=1" in err


def test_thm9_without_strong_generator_exits_2(capsys):
    # every suite that looks up its generator says the same thing
    code, out, err = run_cli(capsys, "verify", "thm9", "--n", "1")
    assert code == 2 and out == ""
    assert "no qualifying polynomial for p=5, e=2, n=1" in err


@pytest.mark.parametrize("argv", [("--n", "1"), ("--e", "1")])
def test_distribution_outside_its_laws_exits_2(capsys, argv):
    # an n = 1 m-sequence never hits 0, and there is no strongly primitive
    # generator at e = 1: no law of the suite applies
    code, out, err = run_cli(capsys, "verify", "distribution", *argv)
    assert code == 2 and out == ""
    assert "the distribution laws need n >= 2 and e >= 2" in err


def test_recurrence_with_few_primitive_states_checks_all_of_them():
    # p=3, e=2, n=1 has 9 - 3 = 6 primitive states, fewer than the 10 the
    # suite draws; a child process, so that a hang fails instead of blocking
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "residueseq", "verify", "recurrence",
         "--p", "3", "--e", "2", "--n", "1"],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    (report,) = json.loads(done.stdout)
    assert report["params"]["states"] == 6 and report["counts"]["pairs"] == 6


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "reports.json"
    code, out, _ = run_cli(capsys, "verify", "carry", "--p", "3",
                           "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())[0]["verdict"] == "holds"


def test_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_map_spec_parsing():
    m = _parse_map_spec("g=x^2; eta=psi(0,1)", 3, 2)
    assert m.g.coeffs == (0, 0, 1)
    assert m.eta.table() == (0, 1, 1)
    m = _parse_map_spec("g=x", 3, 2)
    assert m.eta.coeffs == {}
    m = _parse_map_spec("g=2x+1; eta=2:(2) 1:(0)", 3, 2)
    assert m.eta.coeffs == {(2,): 2, (0,): 1}
    with pytest.raises(InvalidInputError):
        _parse_map_spec("eta=psi(0,1)", 3, 2)
    with pytest.raises(InvalidInputError):
        _parse_map_spec("g=x; zzz=1", 3, 2)


def test_map_spec_table_file(tmp_path):
    path = tmp_path / "eta.json"
    path.write_text('{"p": 3, "vars": 1, "values": [0, 1, 1]}')
    m = _parse_map_spec(f"g=x; eta=table@{path}", 3, 2)
    assert m.eta.table() == (0, 1, 1)


def test_bad_map_spec_exits_2(capsys, tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text('{"p": 3,')
    no_vars = tmp_path / "no_vars.json"
    no_vars.write_text('{"p": 3, "values": [0, 1, 1]}')
    # values that are not canonical residues mod 3: out of range, float, bool
    non_residue = []
    for name, values in (("range", "[5, 7, -1]"), ("float", "[2, 1, 2.5]"),
                         ("bool", "[true, 1, 2]")):
        non_residue.append(tmp_path / f"{name}.json")
        non_residue[-1].write_text(f'{{"p": 3, "vars": 1, "values": {values}}}')

    def compress(spec):
        return run_cli(capsys, "seq", "compress", "--p", "3", "--e", "2",
                       "--f", "8,8,1", "--init", "0,1", "--map", spec)

    for spec in ("eta=psi(0,1)", "g=x; eta=psi(0)", "g=x; eta=psi(a,b)",
                 "g=x; eta=psi(5,7)", "g=x; eta=psi(-1,1)",
                 "g=x; eta=1:(-1)", "g=x; eta=1:(-3)",
                 *(f"g=x; eta=table@{path}" for path in non_residue),
                 f"g=x; eta=table@{bad_json}", f"g=x; eta=table@{no_vars}",
                 f"g=x; eta=table@{tmp_path}", f"g=x; eta=table@{tmp_path / 'missing.json'}"):
        code, out, err = compress(spec)
        assert code == 2 and out == "", spec
        assert err.startswith("invalid input: "), spec
    # a table that was read is not called unreadable: the error names its fault
    for path, fault in ((non_residue[0], "5 is not a canonical residue modulo 3"),
                        (no_vars, "eta table needs p, vars and a values list")):
        code, out, err = compress(f"g=x; eta=table@{path}")
        assert code == 2 and fault in err and "unreadable" not in err, err
    for path in (bad_json, tmp_path, tmp_path / "missing.json"):
        code, out, err = compress(f"g=x; eta=table@{path}")
        assert code == 2 and "unreadable eta table" in err, err


def test_readme_commands_parse():
    # every `residueseq ...` command in README.md is one the CLI accepts,
    # so a removed or renamed flag cannot linger in an example
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    commands = [line.split(" #")[0] for line in readme.splitlines()
                if line.startswith("residueseq ")]
    commands += re.findall(r"`(residueseq [^`]+)`", readme)
    assert len(commands) >= 10
    parser = build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")


def test_readme_library_use_runs():
    # the "Library use" block runs as written and its commented values hold
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    names: dict = {}
    exec(block, names)
    assert names["alpha"].terms == bytes((1, 2, 0, 2, 2, 1, 0, 1))
    assert names["cert"].period == 24 == names["a"].period
    assert names["cert"].h_f.coeffs == (1, 1)  # x + 1


def test_repro_line_mentions_suite_and_seed():
    # the line names the suite, the seed and, for a suite that reads it,
    # the budget in effect, and parses back to the same overrides
    parser = build_parser()
    for argv, tail in (
        (("thm9", "--p", "5", "--seed", "4"), f"--p 5 --seed 4 --budget {BUDGET}"),
        (("alpha-k", "--seed", "7", "--k", "1,2", "--p", "3", "--e", "2", "--n", "2",
          "--f", "8,8,1", "--deg-g", "2", "--budget", "5000"),
         "--p 3 --e 2 --n 2 --f 8,8,1 --deg-g 2 --k 1,2 --seed 7 --budget 5000"),
        (("all",), f"--seed 0 --budget {BUDGET}"),
        (("periods", "--p", "7", "--e", "2", "--seed", "3"), "--p 7 --e 2 --seed 3"),
    ):
        args = parser.parse_args(["verify", *argv])
        line = _repro_line(args.suite, _suite_overrides(args))
        assert line == f"residueseq verify {args.suite} {tail}"
        again = parser.parse_args(shlex.split(line)[1:])
        assert again.suite == args.suite
        assert _suite_overrides(again) == _suite_overrides(args)


# genuine functions for the fakes below to fall back on
CARRY_MAP_POLY = analysis.carry_map_poly
LEGENDRE_SUM = analysis.legendre_sum
INTERSECTION_COUNT = analysis.intersection_count
CONSTRUCT_THM7 = analysis.construct_thm7
CONSTRUCT_THM8 = analysis.construct_thm8
COUNT_UNIFORM_S = analysis.count_uniform_s


def _thm8_rejecting_nothing(g, s, lam, r, e):
    # a map for every top: the one for x^2 when g has none
    return CONSTRUCT_THM8(g, s, lam, r, e) or CONSTRUCT_THM8(UnivariateFn(g.p, (0, 0, 1)), s, lam, r, e)


def _count_missing_one(*args, **kwargs):
    uc = COUNT_UNIFORM_S(*args, **kwargs)
    return dataclasses.replace(uc, holding=uc.holding[1:])


@pytest.mark.parametrize("argv, name, fake, experiment, keys", [
    (("carry", "--p", "5"), "carry_map_poly",
     lambda u, p: CARRY_MAP_POLY(0 if u == 1 else u, p), "carry", {"u", "coefficient"}),
    (("legendre", "--p", "5"), "legendre_sum",
     lambda w, p: LEGENDRE_SUM(w, p) + (w == 2), "legendre-sum", {"w", "sum", "expected"}),
    (("legendre", "--p", "5"), "intersection_count",
     lambda p, w: INTERSECTION_COUNT(p, w) + 1, "legendre-intersection",
     {"w", "brute", "formula"}),
    (("thm7", "--p", "3"), "construct_thm7",
     lambda g, s, e: CONSTRUCT_THM7(g, s + 1, e), "thm7-closed-form", {"z", "w", "expected_w"}),
    (("thm8", "--p", "5"), "construct_thm8", _thm8_rejecting_nothing,
     "thm8-inapplicable", {"reason"}),
    (("thm9", "--p", "5"), "count_uniform_s", _count_missing_one,
     "thm9", {"holding", "predicted", "expected_count"}),
], ids=["carry", "legendre-sum", "legendre-intersection", "thm7-closed-form",
        "thm8-inapplicable", "thm9-count"])
def test_a_broken_claim_fails_with_its_witness_and_replays(
        capsys, monkeypatch, argv, name, fake, experiment, keys):
    # each cell settled by a closed form or a count fails once the function
    # it checks through `analysis` breaks the claim, and its fails: line
    # replays the same run
    monkeypatch.setattr(analysis, name, fake)
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 1
    failing = [r for r in json.loads(out) if r["experiment"] == experiment]
    assert failing and all(r["verdict"] == "fails" for r in failing)
    assert all(r["witness"].keys() == keys for r in failing)
    line = err.splitlines()[0]
    assert line.startswith("fails: ")
    replay = shlex.split(line.split("; reproduce with: ")[1])
    assert replay[:2] == ["residueseq", "verify"]
    assert run_cli(capsys, *replay[1:]) == (1, out, err)


def test_failing_report_prints_replay_line(capsys, monkeypatch):
    failing = analysis.UniformityReport(
        experiment="thm9", params={"p": 5}, verdict="fails", witness={"s": 1},
        counts={"positions": 0, "pairs": 0}, sampled=False, seed=0,
    )
    monkeypatch.setattr(analysis, "run_suite", lambda *a, **kw: [failing])
    code, _, err = run_cli(capsys, "verify", "thm9", "--p", "5", "--budget", "77")
    assert code == 1
    assert err == ("fails: thm9; reproduce with: "
                   "residueseq verify thm9 --p 5 --seed 0 --budget 77\n")
