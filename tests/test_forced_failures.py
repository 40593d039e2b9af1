"""Failing verdicts of the recurrence, periods and distribution laws.

Each injection replaces one function that the laws call through the
`analysis` module with a copy that answers wrongly on some inputs. The
inputs are chosen by their terms, never by call order, so the result
does not depend on how often a law calls the function. The reports under
every injection are pinned in tests/golden/forced_failures.json; recapture
it on purpose with

    PYTHONPATH=src:tests python -c "import test_forced_failures as t; t.write_golden()"
"""

import json
from pathlib import Path

import pytest

from residueseq import analysis, sequences
from residueseq.sequences import level_sequence

GOLDEN = Path(__file__).parent / "golden" / "forced_failures.json"
# the genuine functions, for the injections to fall back on
VALUE_SET = analysis._value_set
PROPORTIONAL = analysis._proportional

SUITES = ("recurrence", "periods", "distribution")  # each at its defaults


def _key(*seqs) -> int:
    """A number read off the terms of the sequences, and nothing else."""
    return sum((i + 1) * v for s in seqs for i, v in enumerate(s.terms))


# The genuine identities hold on every default sequence, so a failure
# injected at (j, identity) is the first one the per-j order meets.
def _shift_fails(s, cert):
    if _key(s) % 5 == 3:
        return 2, "shift", _key(s) % s.period
    return sequences.identity_failure(s, cert)


def _carry_fails(s, cert):
    if s.f.ctx.e >= 3 and _key(s) % 7 == 1:
        return 1, "carry", _key(s) % s.period
    return sequences.identity_failure(s, cert)


def _top_level_plus_one(s, i):
    lvl = sequences.level(s, i)
    if i == s.f.ctx.e - 1 and _key(s) % 7 == 4:
        return level_sequence(lvl.p, [(v + 1) % lvl.p for v in lvl.terms])
    return lvl


def _constant_level(s, i):
    lvl = sequences.level(s, i)
    if i == 1 and _key(s) % 11 == 6:
        return level_sequence(lvl.p, [lvl.terms[0]] * lvl.period)
    return lvl


def _value_set_missing_one(a, b, k):
    got = VALUE_SET(a, b, k)
    if len(got) > 1 and (_key(a, b) + k) % 13 == 8:
        got.discard(max(got))
    return got


def _proportional_forgotten(u, v, p):
    lam = PROPORTIONAL(u, v, p)
    if lam not in (None, 0) and _key(u, v) % 5 == 2:
        return None
    return lam


INJECTIONS = {
    "shift_identity_check": ("identity_failure", _shift_fails),
    "carry_identity_check": ("identity_failure", _carry_fails),
    "level_top_plus_one": ("level", _top_level_plus_one),
    "level_constant": ("level", _constant_level),
    "value_set_missing_one": ("_value_set", _value_set_missing_one),
    "proportional_forgotten": ("_proportional", _proportional_forgotten),
}


def forced_failure_reports(monkeypatch) -> dict:
    out = {}
    for name, (target, fake) in INJECTIONS.items():
        with monkeypatch.context() as m:
            m.setattr(analysis, target, fake)
            out[name] = {suite: [r.to_dict() for r in analysis.run_suite(suite)]
                         for suite in SUITES}
    return out


def _dump(reports) -> str:
    return json.dumps(reports, indent=1, sort_keys=True) + "\n"


def write_golden():
    GOLDEN.write_text(_dump(forced_failure_reports(pytest.MonkeyPatch())), encoding="utf-8")


def test_forced_failures_match_golden(monkeypatch):
    assert _dump(forced_failure_reports(monkeypatch)) == GOLDEN.read_text(encoding="utf-8")


def _first_cell_positions(report) -> int:
    """What a law has counted when it fails at its first cell."""
    if report["experiment"] == "recurrence":
        p, e, n = (report["params"][k] for k in "pen")
        return p ** (e - 1) * (p**n - 1)  # one period of the first sequence
    return 1


def test_every_law_fails_past_its_first_cell():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    late = {r["experiment"] for suites in golden.values() for reports in suites.values()
            for r in reports
            if r["verdict"] == "fails" and r["counts"]["positions"] > _first_cell_positions(r)}
    assert late == {"recurrence", "periods", "distribution-linear-relation",
                    "distribution-relation", "distribution-highest-level"}
