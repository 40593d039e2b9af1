import dataclasses
import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    equal_at_alpha_k,
    scaled_uniform_scan_per_term,
    shift_classes_by_dict,
    verify_alpha_k_injectivity_per_state,
)
from residueseq.errors import InvalidInputError
from residueseq.ringcore import RingContext, UnivariateFn
from residueseq.polyring import RingPolynomial
from residueseq.primitivity import certify, find_primitive, iter_primitive
from residueseq.sequences import generate, level_sequence
from residueseq.compress import (
    CompressingMap,
    compress_sequence,
    from_table,
    psi_zw,
    value_table,
    zero_poly,
)
from residueseq import analysis
from residueseq.analysis import (
    construct_thm7,
    construct_thm8,
    count_uniform_s,
    intersection_count,
    intersection_count_formula,
    legendre,
    legendre_sum,
    run_suite,
    s_uniform,
    s_uniform_witness,
    shift_classes,
    squares,
    thm8_mask_set,
    thm9_choose_w,
    verify_alpha_k_injectivity,
)

Z9 = RingContext(3, 2)
FIB9 = RingPolynomial(Z9, (8, 8, 1))


def test_legendre():
    assert legendre(0, 7) == 0
    for p in (3, 5, 7, 11):
        assert legendre(1, p) == 1
    assert legendre(2, 5) == -1
    assert legendre(4, 5) == 1
    with pytest.raises(InvalidInputError):
        legendre(1, 9)


def test_legendre_sum():
    assert legendre_sum(0, 5) == 4
    assert legendre_sum(1, 5) == -1
    assert legendre_sum(3, 7) == -1
    for p in (3, 5, 7, 11, 13):
        for w in range(p):
            assert legendre_sum(w, p) == (p - 1 if w == 0 else -1)


def test_intersection_count():
    assert intersection_count(7, 1) == 2
    assert intersection_count(5, 2) == 1
    for p in (5, 7, 11, 13):
        for w in range(1, p):
            assert intersection_count(p, w) == intersection_count_formula(p, w)
    # p = 3 mod 4: both symbols cancel, count is (p+1)/4
    for p in (7, 11):
        for w in range(1, p):
            assert intersection_count(p, w) == (p + 1) // 4
    with pytest.raises(InvalidInputError):
        intersection_count(7, 0)


def test_thm9_choose_w():
    assert thm9_choose_w(7) == 1
    assert thm9_choose_w(11) == 1
    assert thm9_choose_w(5) == 2
    assert thm9_choose_w(13) == 2
    w = thm9_choose_w(13)
    assert legendre(w, 13) == -1 and legendre(-w, 13) == -1


def test_s_uniform_basics():
    u = level_sequence(3, [0, 1, 2, 0])
    v = level_sequence(3, [0, 2, 2, 1])
    for s in range(3):
        assert s_uniform(u, u, s)
        assert s_uniform(u, v, s) == s_uniform(v, u, s)
    zero = level_sequence(3, [0])
    one_seq = level_sequence(3, [1])
    assert s_uniform_witness(zero, one_seq, 0) == 0


def test_s_uniform_marker_modes():
    u = level_sequence(3, [0, 1, 2, 0])
    v = level_sequence(3, [1, 1, 2, 2])
    marker = level_sequence(3, [0, 1, 2, 1])
    # disagreements at t = 0 (u hits 0) and t = 3 (v hits... both differ)
    assert not s_uniform(u, v, 0)
    # restricted to marker != 0 the t = 0 disagreement is masked
    assert s_uniform_witness(u, v, 0, marker=marker) == 3
    # restricted to marker == 1 only t in {1, 3} count
    assert s_uniform_witness(u, v, 0, marker=marker, marker_value=1) == 3
    assert s_uniform(u, v, 1, marker=marker, marker_value=2)
    with pytest.raises(InvalidInputError):
        s_uniform(u, v, 0, marker_value=1)


def test_shift_classes_partition():
    reps, walked = shift_classes(FIB9)
    assert walked == 72
    assert len(reps) == 3
    assert all(rep.period == 24 for rep in reps)
    # every rotation of a rep maps back to its class
    assert analysis._atlas(FIB9)[0] == tuple(reps)
    slots = analysis._atlas(FIB9)[1]
    lex = sorted(rep.state_at(t) for rep in reps for t in range(rep.period))
    for ci, rep in enumerate(reps):
        for t in range(rep.period):
            got_ci, off = divmod(slots[lex.index(rep.state_at(t))], 24)
            assert got_ci == ci and off == t


@pytest.mark.parametrize("primitive", [True, False])
@pytest.mark.parametrize("f", [
    FIB9,
    RingPolynomial(RingContext(5, 2), (2, 1, 1)),
    RingPolynomial(RingContext(3, 2), (1, 0, 2, 1)),
])
def test_shift_classes_matches_the_dict_walk(f, primitive):
    m, n, p = f.ctx.modulus, f.degree, f.ctx.p
    want_reps, index = shift_classes_by_dict(
        f, None if primitive else itertools.product(range(m), repeat=n))
    reps, walked = shift_classes(f, primitive)
    # the same reps in the same order, from the same states, with the same terms
    assert reps == want_reps
    assert walked == len(index) == (m**n - (m // p) ** n if primitive else m**n)
    # the same (class, offset) for every state
    starts = list(itertools.accumulate((rep.period for rep in reps), initial=0))
    assert analysis._atlas(f, primitive)[0] == tuple(reps)
    assert list(analysis._atlas(f, primitive)[1]) == [
        starts[ci] + off for ci, off in (index[st] for st in sorted(index))]


def test_equal_at_alpha_k():
    cert = certify(FIB9)
    m = CompressingMap(g=UnivariateFn(3, (0, 1)), eta=zero_poly(3, 1), e=2)
    s = generate(FIB9, (0, 1))
    for k in (1, 2):
        assert equal_at_alpha_k(s, s, m, cert, k)
    other = generate(FIB9, (0, 2))
    for k in (1, 2):
        assert not equal_at_alpha_k(s, other, m, cert, k)
    # adding p^{e-1} times an m-sequence moves only the top level, and
    # the injectivity theorem still separates the pair at every k
    bumped = generate(FIB9, tuple((a + 3 * b) % 9 for a, b in zip((0, 1), (1, 0))))
    for k in (1, 2):
        assert not equal_at_alpha_k(s, bumped, m, cert, k)
    with pytest.raises(InvalidInputError):
        equal_at_alpha_k(s, s, m, cert, 0)
    with pytest.raises(InvalidInputError):
        equal_at_alpha_k(generate(FIB9, (0, 3)), s, m, cert, 1)


def test_verify_alpha_k_injectivity_holds():
    cert = certify(FIB9)
    m = CompressingMap(g=UnivariateFn(3, (0, 1)), eta=zero_poly(3, 1), e=2)
    report = verify_alpha_k_injectivity(cert, m, 1)
    assert report.holds
    assert report.counts["pairs"] == 72 * 72
    assert not report.sampled


def test_verify_alpha_k_preconditions():
    weak = next(f for f in iter_primitive(Z9, 2) if not certify(f).strongly_primitive)
    cert = certify(weak)
    m = CompressingMap(g=UnivariateFn(3, (0, 0, 1)), eta=zero_poly(3, 1), e=2)
    with pytest.raises(InvalidInputError):
        verify_alpha_k_injectivity(cert, m, 1)
    good = certify(FIB9)
    for k in (0, 3, 4, -2):  # k is a nonzero residue, never reduced mod p
        with pytest.raises(InvalidInputError):
            verify_alpha_k_injectivity(good, m, k)
    wider = CompressingMap(g=UnivariateFn(3, (0, 1)), eta=zero_poly(3, 2), e=3)
    with pytest.raises(InvalidInputError):
        verify_alpha_k_injectivity(good, wider, 1)


def test_verify_alpha_k_deg1_needs_no_strong_primitivity():
    # the deg-1 statement covers every primitive generator, including
    # those whose h_f is constant
    weak = next(f for f in iter_primitive(Z9, 2) if not certify(f).strongly_primitive)
    cert = certify(weak)
    for eta_table in ((0, 0, 0), (1, 2, 0)):
        m = CompressingMap(
            g=UnivariateFn(3, (0, 1)), eta=from_table(3, 1, eta_table), e=2
        )
        for k in (1, 2):
            assert verify_alpha_k_injectivity(cert, m, k).holds


def test_verify_alpha_k_wider_ring():
    # spot check beyond the smallest ring: p = 5, one nontrivial eta,
    # once with a linear top and once with a cubic one
    ctx = RingContext(5, 2)
    eta = from_table(5, 1, (3, 0, 2, 2, 4))
    cert = find_primitive(ctx, 2)
    m = CompressingMap(g=UnivariateFn(5, (0, 1)), eta=eta, e=2)
    assert verify_alpha_k_injectivity(cert, m, 2).holds
    strong = find_primitive(ctx, 2, strongly=True)
    m3 = CompressingMap(g=UnivariateFn(5, (0, 0, 0, 1)), eta=eta, e=2)
    assert verify_alpha_k_injectivity(strong, m3, 1).holds


def test_verify_alpha_k_sampled_budget():
    cert = certify(FIB9)
    m = CompressingMap(g=UnivariateFn(3, (0, 1)), eta=zero_poly(3, 1), e=2)
    report = verify_alpha_k_injectivity(cert, m, 1, budget=100, seed=3)
    assert report.sampled
    assert report.holds
    # whole rows are drawn, each against all 72 states
    assert report.counts["pairs"] % 72 == 0
    again = verify_alpha_k_injectivity(cert, m, 1, budget=100, seed=3)
    assert report.to_dict() == again.to_dict()


def test_verify_alpha_k_matches_per_state_oracle_on_forced_failures():
    # the rotation-built scan against the per-state one, on holding and
    # failing cells: g = x^2 over the non-strong 2,2,1, forced through
    # the strong-primitivity guard, fails 18 of its 54 cells
    weak = certify(RingPolynomial(Z9, (2, 2, 1)))
    assert not weak.strongly_primitive
    forced = dataclasses.replace(weak, strongly_primitive=True)
    fails = 0
    for table in itertools.product(range(3), repeat=3):
        m = CompressingMap(g=UnivariateFn(3, (0, 0, 1)), eta=from_table(3, 1, table), e=2)
        for k in (1, 2):
            fast = verify_alpha_k_injectivity(forced, m, k)
            assert fast.to_dict() == verify_alpha_k_injectivity_per_state(forced, m, k).to_dict()
            fails += not fast.holds
    assert fails == 18


def test_verify_alpha_k_matches_per_state_oracle_sampled_and_p5():
    ctx = RingContext(5, 2)
    eta = from_table(5, 1, (3, 0, 2, 2, 4))
    cases = (
        (certify(FIB9), CompressingMap(g=UnivariateFn(3, (0, 1)), eta=zero_poly(3, 1), e=2),
         1, 100, 3),
        (find_primitive(ctx, 2), CompressingMap(g=UnivariateFn(5, (0, 1)), eta=eta, e=2),
         2, analysis.DEFAULT_BUDGET, 0),
        (find_primitive(ctx, 2, strongly=True),
         CompressingMap(g=UnivariateFn(5, (0, 0, 0, 1)), eta=eta, e=2),
         1, analysis.DEFAULT_BUDGET, 0),
    )
    for cert, m, k, budget, seed in cases:
        fast = verify_alpha_k_injectivity(cert, m, k, budget, seed)
        assert fast.sampled == (budget == 100)
        slow = verify_alpha_k_injectivity_per_state(cert, m, k, budget, seed)
        assert fast.to_dict() == slow.to_dict()


def test_verify_alpha_k_exhaustive_where_the_rows_fit():
    # 2,352 states: every row of 37 mask words fits the default budget
    cert = find_primitive(RingContext(7, 2), 2)
    m = CompressingMap(g=UnivariateFn(7, (0, 1)), eta=zero_poly(7, 1), e=2)
    report = verify_alpha_k_injectivity(cert, m, 1)
    assert report.sampled is False
    assert report.counts["pairs"] == 2352**2
    assert report.holds


def test_alpha_k_builds_each_class_alpha_once(monkeypatch):
    # 27 eta cells at p = 5, e = 2 over 5 shift classes of 120 states
    calls = []
    alpha_sequence = analysis.alpha_sequence
    monkeypatch.setattr(analysis, "alpha_sequence",
                        lambda s, cert: calls.append(s) or alpha_sequence(s, cert))
    analysis._class_alphas.cache_clear()
    reports = analysis.suite_alpha_k(p=5, e=2, n=2, ks=[1])
    assert len(reports) == 27 and all(r.holds for r in reports)
    assert len(calls) == 5


STRONG9 = certify(RingPolynomial(Z9, (2, 1, 1)))
FORCED9 = dataclasses.replace(certify(RingPolynomial(Z9, (2, 2, 1))), strongly_primitive=True)


@settings(max_examples=80, deadline=None)
@given(
    cert=st.sampled_from([STRONG9, FORCED9]),
    table=st.tuples(*[st.integers(0, 2)] * 3),
    deg_g=st.sampled_from([1, 2]),
    k=st.sampled_from([1, 2]),
    # 72 states make 2 mask words a row and the table 24 * |V| <= 72 rows,
    # so budgets below 2 * (72 + 24 * |V|), at most 288, sample rows
    budget=st.one_of(st.integers(1, 300), st.just(analysis.DEFAULT_BUDGET)),
    seed=st.integers(0, 2**16),
)
# a sampled failing cell: 27 of 72 rows drawn, the witness in the first
@example(cert=FORCED9, table=(0, 0, 0), deg_g=2, k=1, budget=150, seed=0)
def test_verify_alpha_k_matches_per_state_oracle_on_random_cells(cert, table, deg_g, k,
                                                                  budget, seed):
    # the non-strong 2,2,1 forced strong fails a third of its g = x^2 cells
    m = CompressingMap(g=UnivariateFn(3, (0,) * deg_g + (1,)), eta=from_table(3, 1, table), e=2)
    fast = verify_alpha_k_injectivity(cert, m, k, budget, seed)
    slow = verify_alpha_k_injectivity_per_state(cert, m, k, budget, seed)
    assert fast.to_dict() == slow.to_dict()


def test_construct_thm7():
    g = UnivariateFn(3, (0, 1))
    m = construct_thm7(g, 0, 2)
    assert m.eta((0,)) == 0 and m.eta((1,)) == 2  # z = 0, w = (p+1)/2
    m = construct_thm7(g, 1, 2)
    assert m.eta((0,)) == 1 and m.eta((1,)) == 0
    g5 = UnivariateFn(5, (0, 2))
    m = construct_thm7(g5, 3, 2)
    assert m.eta((0,)) == 3 and m.eta((1,)) == 4
    with pytest.raises(InvalidInputError):
        construct_thm7(UnivariateFn(5, (0, 0, 1)), 0, 2)


def test_construct_thm7_guarantee():
    cert = certify(FIB9)
    g = UnivariateFn(3, (0, 1))
    for s in range(3):
        m = construct_thm7(g, s, 2)
        for state in itertools.product(range(9), repeat=2):
            if not any(v % 3 for v in state):
                continue
            a = generate(FIB9, state)
            b = generate(FIB9, tuple((-v) % 9 for v in state))
            assert s_uniform(compress_sequence(m, a), compress_sequence(m, b), s)


def test_thm8_mask_set():
    g = UnivariateFn(7, (0, 0, 1))
    assert thm8_mask_set(g, 0) == {1, 2, 4}
    assert squares(7) == {0, 1, 2, 4}


def test_construct_thm8():
    g = UnivariateFn(7, (0, 0, 1))
    m = construct_thm8(g, 0, 6, 0, 2)
    assert m is not None
    assert m.eta((0,)) == 0          # z = s - r
    assert m.eta((3,)) == 1          # default constant min(W)
    # permutation tops never apply
    assert construct_thm8(UnivariateFn(7, (0, 1)), 0, 6, 0, 2) is None
    # fibre not closed under scaling by 2: g = x^2 + x over Z/5 at r = 2
    gx = UnivariateFn(5, (0, 1, 1))
    assert construct_thm8(gx, 0, 2, 2, 2) is None
    with pytest.raises(InvalidInputError):
        construct_thm8(g, 0, 1, 0, 2)
    with pytest.raises(InvalidInputError):
        construct_thm8(g, 0, 6, 3, 2)  # r = 3 is not a value of x^2 mod 7


def test_construct_thm8_guarantee_small():
    ctx = RingContext(5, 2)
    cert = find_primitive(ctx, 2)
    g = UnivariateFn(5, (0, 0, 1))
    lam = 4
    reps, _ = shift_classes(cert.f)
    for s in range(5):
        m = construct_thm8(g, s, lam, 0, 2)
        assert m is not None
        for rep in reps:
            b = generate(cert.f, tuple(lam * v % 25 for v in rep.initial_state))
            assert s_uniform(compress_sequence(m, rep), compress_sequence(m, b), s)


def test_count_uniform_s():
    ctx = RingContext(5, 2)
    cert = find_primitive(ctx, 2, strongly=True)
    w = thm9_choose_w(5)
    m = CompressingMap(g=UnivariateFn(5, (0, 0, 1)), eta=psi_zw(5, 2, 0, w), e=2)
    uc = count_uniform_s(cert, m, ctx.modulus - 1)
    assert uc.holding == (0, 4)
    assert uc.count == 2 == 5 // 4 + 1
    assert uc.vacuous == ()
    assert not uc.sampled
    sq = squares(5)
    assert set(uc.holding) == sq - {(w + v) % 5 for v in sq}


def test_count_uniform_s_witnesses_replay():
    ctx = RingContext(5, 2)
    cert = find_primitive(ctx, 2, strongly=True)
    w = thm9_choose_w(5)
    m = CompressingMap(g=UnivariateFn(5, (0, 0, 1)), eta=psi_zw(5, 2, 0, w), e=2)
    uc = count_uniform_s(cert, m, ctx.modulus - 1)
    assert uc.failing
    for s, witness in uc.failing.items():
        a = generate(cert.f, tuple(witness["state"]))
        b = generate(cert.f, tuple(24 * v % 25 for v in witness["state"]))
        u = compress_sequence(m, a)
        v = compress_sequence(m, b)
        t = witness["t"]
        assert (u.at(t) == s) != (v.at(t) == s)


def test_count_uniform_s_sampled():
    ctx = RingContext(5, 2)
    cert = find_primitive(ctx, 2, strongly=True)
    m = CompressingMap(g=UnivariateFn(5, (0, 0, 1)), eta=psi_zw(5, 2, 0, 2), e=2)
    uc = count_uniform_s(cert, m, ctx.modulus - 1, budget=500, seed=1)
    assert uc.sampled
    uc2 = count_uniform_s(cert, m, ctx.modulus - 1, budget=500, seed=1)
    assert uc == uc2
    # the draws are pinned: random.sample sees the primitive states as a
    # lex-ordered population, whatever the state walk keeps internally
    assert uc == analysis.UniformCount(
        holding=(0, 4), vacuous=(),
        failing={1: {"state": [5, 22], "t": 2, "s": 1}, 2: {"state": [5, 22], "t": 1, "s": 2},
                 3: {"state": [5, 22], "t": 1, "s": 3}},
        pairs=1, positions=247, sampled=True, seed=1)
    uc = count_uniform_s(cert, m, ctx.modulus - 1, budget=2400, seed=2)
    assert uc == analysis.UniformCount(
        holding=(0, 4), vacuous=(),
        failing={1: {"state": [2, 12], "t": 2, "s": 1}, 2: {"state": [2, 12], "t": 0, "s": 2},
                 3: {"state": [2, 12], "t": 0, "s": 3}},
        pairs=4, positions=965, sampled=True, seed=2)


@pytest.mark.parametrize("p", [5, 7])
def test_scaled_uniform_scan_matches_the_per_term_loop(p):
    ctx = RingContext(p, 2)
    m = ctx.modulus
    reps, _ = shift_classes(find_primitive(ctx, 2, strongly=True).f)
    rng = random.Random(p)
    # random tables over a small and a full alphabet, and a constant table
    tables = [[rng.randrange(k) for _ in range(m)] for k in (2, p) for _ in range(3)]
    tables.append([1] * m)
    for phi in tables:
        for lam in range(1, m):
            if lam % p == 0:
                continue
            for s in range(p):
                got = analysis._scaled_uniform_scan(reps, phi, lam, s)
                assert got == scaled_uniform_scan_per_term(reps, phi, lam, s)
                if lam == 1 or len(set(phi)) == 1:
                    assert got == (None, sum(r.period for r in reps))


def test_scaled_uniform_scan_holding_and_first_hit_positions():
    ctx = RingContext(5, 2)
    cert = find_primitive(ctx, 2, strongly=True)
    reps, _ = shift_classes(cert.f)
    total = sum(r.period for r in reps)
    # the thm9 map at p = 5 holds at s = 0 and 4 and fails at 1, 2, 3
    phi = value_table(CompressingMap(g=UnivariateFn(5, (0, 0, 1)),
                                     eta=psi_zw(5, 2, 0, thm9_choose_w(5)), e=2), ctx)
    for s in range(5):
        got = analysis._scaled_uniform_scan(reps, phi, 24, s)
        assert got == scaled_uniform_scan_per_term(reps, phi, 24, s)
        assert (got[0] is None) == (s in (0, 4))
        if s in (0, 4):
            assert got[1] == total
    # a hit at t = 0 of the first sequence: only v and -v split
    first = next(reps[0].shifted(r) for r in range(reps[0].period) if reps[0].at(r))
    seqs = [first] + reps[1:]
    v = first.terms[0]
    phi = [int(u == v) for u in range(25)]
    got = analysis._scaled_uniform_scan(seqs, phi, 24, 1)
    assert got == ({"state": list(first.initial_state), "t": 0, "s": 1}, 1)
    assert got == scaled_uniform_scan_per_term(seqs, phi, 24, 1)
    # a hit at the last term of a later sequence: a(t+1) = 7 a(t) has period
    # 4 and no value twice, so v and v / lam split and occur nowhere earlier
    seqs = [generate(RingPolynomial(ctx, (18, 1)), (a,)) for a in (1, 2)]
    v = seqs[1].terms[-1]
    earlier = set(seqs[0].terms) | set(seqs[1].terms[:-1])
    lam = next(k for k in range(2, 25) if k % 5 and pow(k, -1, 25) * v % 25 not in earlier)
    phi = [int(u == v) for u in range(25)]
    got = analysis._scaled_uniform_scan(seqs, phi, lam, 1)
    assert got == ({"state": [2], "t": 3, "s": 1}, 8)
    assert got == scaled_uniform_scan_per_term(seqs, phi, lam, 1)


def test_count_uniform_s_needs_strong():
    weak = next(f for f in iter_primitive(Z9, 2) if not certify(f).strongly_primitive)
    m = CompressingMap(g=UnivariateFn(3, (0, 0, 1)), eta=psi_zw(3, 2, 0, 1), e=2)
    with pytest.raises(InvalidInputError):
        count_uniform_s(certify(weak), m, 8)


@pytest.mark.parametrize("name", ["carry", "legendre", "periods", "distribution",
                                  "thm7", "thm8", "thm9", "recurrence"])
def test_suites_hold(name):
    reports = run_suite(name)
    assert reports
    assert all(r.holds for r in reports)


def test_suite_determinism():
    a = [r.to_dict() for r in run_suite("thm9", seed=5)]
    b = [r.to_dict() for r in run_suite("thm9", seed=5)]
    assert a == b


def test_unknown_suite():
    with pytest.raises(InvalidInputError):
        run_suite("nonsense")


def test_report_shape():
    report = run_suite("carry", ps=(3,))[0]
    d = report.to_dict()
    assert set(d) == {"experiment", "params", "verdict", "counts", "sampled", "seed"}
    d = report.to_dict(include_timing=True)
    assert "ms" in d
    assert analysis.DEFAULT_BUDGET == 10**8
