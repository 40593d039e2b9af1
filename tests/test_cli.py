import json
import re
import shlex
from pathlib import Path

import pytest

from residueseq import analysis, primitivity
from residueseq.cli import build_parser, main, _parse_map_spec, _repro_line, _suite_overrides
from residueseq.errors import InvalidInputError


def run_cli(capsys, *argv):
    code = main(list(argv))
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


@pytest.mark.parametrize("argv", [
    ("primitive", "check", "--p", "3", "--e", "2", "--f", "17,-1,10"),
    ("verify", "alpha-k", "--f", "17,-1,10", "--k", "1"),
])
def test_non_canonical_generator_exits_2(capsys, argv):
    # --f is held to the same canonical residues as --poly, not reduced
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "17 is not a canonical residue modulo 9" in err


@pytest.mark.parametrize("argv", [
    ("primitive", "check", "--p", "3", "--e", "2", "--f", "8,x,1"),
    ("seq", "gen", "--p", "3", "--e", "2", "--f", "8,8,1", "--init", "a"),
])
def test_non_integer_lists_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "invalid _ints value" in capsys.readouterr().err


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


def test_verify_all_matches_golden_report(capsys):
    # the default report of every suite, byte for byte; a change to it on
    # purpose regenerates tests/golden/verify_all.json and says why
    golden = Path(__file__).parent / "golden" / "verify_all.json"
    code, out, _ = run_cli(capsys, "verify", "all", "--seed", "0")
    assert code == 0
    assert out == golden.read_text(encoding="utf-8")


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


def test_verify_budget_forces_sampling(capsys, monkeypatch):
    monkeypatch.setenv("RESIDUESEQ_BUDGET", "100")
    code, out, _ = run_cli(capsys, "verify", "alpha-k", "--p", "3", "--e", "2",
                           "--n", "2", "--f", "8,8,1", "--k", "1")
    assert code == 0
    reports = json.loads(out)
    assert all(r["sampled"] for r in reports)


def test_verify_budget_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("RESIDUESEQ_BUDGET", "100")
    code, out, _ = run_cli(capsys, "verify", "alpha-k", "--p", "3", "--e", "2",
                           "--n", "2", "--f", "8,8,1", "--k", "1",
                           "--budget", "100000000")
    assert code == 0
    assert not any(r["sampled"] for r in json.loads(out))


@pytest.mark.parametrize("argv", [
    ("verify", "carry", "--p", "3"),
    ("primitive", "find", "--p", "3", "--e", "2", "--n", "2"),
])
@pytest.mark.parametrize("budget", ["0", "-5"])
def test_non_positive_budget_exits_2(capsys, argv, budget):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--budget", budget])
    assert exc.value.code == 2
    assert f"argument --budget: invalid positive_int value: '{budget}'" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "0", "-1"])
def test_bad_budget_env_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv("RESIDUESEQ_BUDGET", value)
    code, out, err = run_cli(capsys, "verify", "carry", "--p", "3")
    assert code == 2 and out == ""
    assert "$RESIDUESEQ_BUDGET must be a positive integer" in err


@pytest.mark.parametrize("argv, named", [
    (("verify", "all", "--p", "97", "--e", "9"), "--p, --e"),
    (("verify", "carry", "--p", "3", "--n", "2"), "--n"),
    (("verify", "legendre", "--p", "3", "--e", "5", "--k", "1"), "--e, --k"),
    (("verify", "periods", "--p", "3,5"), "--p with more than one prime"),
    (("verify", "thm9", "--f", "8,8,1", "--deg-g", "2"), "--f, --deg-g"),
])
def test_flags_a_suite_would_ignore_exit_2(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"does not take {named}\n" in err


@pytest.mark.parametrize("argv, overrides", [
    (("alpha-k", "--p", "5", "--e", "2", "--n", "2", "--k", "1"),
     {"p": 5, "e": 2, "n": 2, "ks": (1,)}),
    (("periods", "--p", "7", "--e", "2"), {"p": 7, "es": (2,)}),
    (("thm9", "--p", "17,19"), {"ps": (17, 19)}),
    (("alpha-k", "--f", "8,8,1", "--deg-g", "2"),
     {"f_coeffs": (8, 8, 1), "deg_g": 2}),
    (("all",), {}),
])
def test_flags_map_to_suite_parameters(argv, overrides):
    args = build_parser().parse_args(["verify", *argv])
    assert _suite_overrides(args) == overrides


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
    for spec in ("eta=psi(0,1)", "g=x; eta=psi(0)", "g=x; eta=psi(a,b)",
                 f"g=x; eta=table@{bad_json}", f"g=x; eta=table@{no_vars}",
                 f"g=x; eta=table@{tmp_path}", f"g=x; eta=table@{tmp_path / 'missing.json'}"):
        code, out, err = run_cli(capsys, "seq", "compress", "--p", "3", "--e", "2",
                                 "--f", "8,8,1", "--init", "0,1", "--map", spec)
        assert code == 2 and out == "", spec
        assert err.startswith("invalid input: "), spec


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


def test_repro_line_mentions_suite_and_seed():
    # the line parses back to the same suite, overrides, seed and budget
    parser = build_parser()
    for argv in (
        ("thm9", "--p", "5", "--seed", "4"),
        ("alpha-k", "--p", "3", "--e", "2", "--n", "2", "--f", "8,8,1",
         "--deg-g", "2", "--k", "1,2", "--seed", "7", "--budget", "5000"),
        ("all",),
    ):
        args = parser.parse_args(["verify", *argv])
        line = _repro_line(args, 5000)
        assert line.startswith(f"residueseq verify {args.suite} ")
        again = parser.parse_args(shlex.split(line)[1:])
        assert again.suite == args.suite and again.seed == args.seed
        assert again.budget == 5000
        assert _suite_overrides(again) == _suite_overrides(args)


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
