"""Failing verdicts of the recurrence, periods and distribution laws.

Each injection replaces one function that the laws call through the
`analysis` module with a copy that answers wrongly on some inputs. The
inputs are chosen by their terms, never by call order, so the result
does not depend on how often a law calls the function. The level,
value-set and proportional injections read the terms at the least joint
rotation of their sequences, so a law may read a pair at any common
rotation of its members and meet the same answers. The reports under
every injection are pinned in tests/golden/forced_failures.json; recapture
it on purpose with

    PYTHONPATH=src:tests python -c "import test_forced_failures as t; t.write_golden()"
"""

import json
import math
import sys
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


def _least_rotation(terms) -> int:
    """The r at which terms[r:] + terms[:r] is least, by the two-candidate
    scan of the doubled terms: linear in their length, and unique when
    terms is one least period."""
    n, doubled = len(terms), terms + terms
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = doubled[i + k], doubled[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    return min(i, j)


def _joint_key(*seqs) -> int:
    """_key of the sequences at their least joint rotation: rotating them all
    by the same amount leaves it unchanged, so a law may read a pair at any
    common rotation, such as with its first member at its class rep. The
    least rotation of the first sequence is unique mod its period, so only
    its repeats within the joint period are compared on the later ones."""
    first = seqs[0]
    span = math.lcm(*(s.period for s in seqs))
    least = min([s.terms[r % s.period:] + s.terms[:r % s.period] for s in seqs]
                for r in range(_least_rotation(first.terms), span, first.period))
    return sum((i + 1) * v for terms in least for i, v in enumerate(terms))


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
    if i == s.f.ctx.e - 1 and _joint_key(s) % 7 == 1:
        return level_sequence(lvl.p, [(v + 1) % lvl.p for v in lvl.terms])
    return lvl


def _top_level_doubled_at_alpha_one(s, i):
    # top(t + period/p) - top(t) is alpha(t) on a primitive sequence. A pair
    # of states a rotation by a multiple of alpha's period apart keeps one
    # top-level delta at each k, but no longer delta * k^-1 * alpha
    lvl = sequences.level(s, i)
    if i == s.f.ctx.e - 1 and _joint_key(s) % 7 == 6:
        p, span = lvl.p, s.period
        top = [lvl.at(t) for t in range(span)]
        alpha = [(top[(t + span // p) % span] - v) % p for t, v in enumerate(top)]
        return level_sequence(p, [v * (1 + (a == 1)) % p for v, a in zip(top, alpha)])
    return lvl


def _constant_level(s, i):
    lvl = sequences.level(s, i)
    if i == 1 and _joint_key(s) % 11 == 5:
        return level_sequence(lvl.p, [min(lvl.terms)] * lvl.period)
    return lvl


def _value_set_missing_one(a, b, k):
    got = VALUE_SET(a, b, k)
    if len(got) > 1 and (_joint_key(a, b) + k) % 13 == 8:
        got.discard(max(got))
    return got


def _proportional_forgotten(u, v, p):
    lam = PROPORTIONAL(u, v, p)
    if lam not in (None, 0) and _joint_key(u, v) % 5 == 4:
        return None
    return lam


INJECTIONS = {
    "shift_identity_check": ("identity_failure", _shift_fails),
    "carry_identity_check": ("identity_failure", _carry_fails),
    "level_top_plus_one": ("level", _top_level_plus_one),
    "level_top_doubled_at_alpha_one": ("level", _top_level_doubled_at_alpha_one),
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


def _joint_key_of_every_rotation(*seqs) -> int:
    """_joint_key by the minimum over every joint rotation, each built."""
    span = math.lcm(*(s.period for s in seqs))
    least = min([s.terms[r % s.period:] + s.terms[:r % s.period] for s in seqs]
                for r in range(span))
    return sum((i + 1) * v for terms in least for i, v in enumerate(terms))


def test_joint_key_is_the_key_at_the_least_of_every_rotation(monkeypatch):
    # the sequences the injections key in a forced run, each tuple once
    key, keyed = _joint_key, {}

    def recording(*seqs):
        keyed[tuple((s.terms, s.period) for s in seqs)] = seqs
        return key(*seqs)

    monkeypatch.setattr(sys.modules[__name__], "_joint_key", recording)
    forced_failure_reports(monkeypatch)
    assert {len(seqs) for seqs in keyed.values()} == {1, 2}
    # reversed, a pair (8, 24) puts the shorter period first, so the least
    # rotation of the first member repeats and the second settles the tie
    for seqs in keyed.values():
        for order in (seqs, seqs[::-1]):
            assert key(*order) == _joint_key_of_every_rotation(*order)


def test_every_law_fails_past_its_first_cell():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    late = {r["experiment"] for suites in golden.values() for reports in suites.values()
            for r in reports
            if r["verdict"] == "fails" and r["counts"]["positions"] > _first_cell_positions(r)}
    assert late == {"recurrence", "periods", "distribution-linear-relation",
                    "distribution-relation", "distribution-highest-level"}
