import dataclasses
import hashlib
import itertools
import json
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from oracles import (
    equal_at_alpha_k,
    s_uniform,
    scaled_uniform_scan_per_term,
    shift_classes_by_dict,
    verify_alpha_k_injectivity_per_state,
)
from test_forced_failures import INJECTIONS, _constant_level, _top_level_plus_one
from residueseq.errors import InvalidInputError
from residueseq.ringcore import RingContext, UnivariateFn
from residueseq.polyring import RingPolynomial, format_coeffs, reduce_mod_p
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
from residueseq import analysis, sequences
from residueseq.analysis import (
    construct_thm7,
    construct_thm8,
    count_uniform_s,
    intersection_count,
    intersection_count_formula,
    legendre,
    legendre_sum,
    run_suite,
    shift_classes,
    squares,
    thm8_mask_set,
    thm9_choose_w,
    verify_alpha_k_injectivity,
)

Z9 = RingContext(3, 2)
FIB9 = RingPolynomial(Z9, (8, 8, 1))
# x^2 + 1 over Z/27: the cycle through (0, 1) mod 3 has 4 of the 8 nonzero
# states, so the fibers miss every class through the other 4
X2_PLUS_1_27 = RingPolynomial(RingContext(3, 3), (1, 0, 1))


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
    assert not s_uniform(zero, one_seq, 0)
    assert s_uniform(zero, one_seq, 2)
    # periods 4 and 2 agree on hitting 1 over t < 2; the common period
    # reads the disagreement at t = 3
    assert not s_uniform(u, level_sequence(3, [0, 1]), 1)


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
    RingPolynomial(RingContext(3, 3), (2, 1, 1)),
    RingPolynomial(RingContext(5, 3), (2, 1)),
    # not primitive: a(t+1) = 7 a(t) has 5 classes of period 4, which the
    # fibers meet; x^2 + 1 has short classes, which they miss
    RingPolynomial(RingContext(5, 2), (18, 1)),
    X2_PLUS_1_27,
])
def test_shift_classes_matches_the_dict_walk(f, primitive):
    m, n, p = f.ctx.modulus, f.degree, f.ctx.p
    if f == X2_PLUS_1_27:
        with pytest.raises(RuntimeError, match="cover 365 of 729 states"):
            shift_classes(f, primitive)
        return
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


def _fiber_classes(f):
    return analysis._fiber_classes(f, analysis._level0_period(reduce_mod_p(f)))


def _lex_sorted(classes):
    """Each class rotated to its least state, in lex order of that state."""
    least = [s.shifted(min(range(s.period), key=s.state_at)) for s in classes]
    return sorted(least, key=lambda s: s.initial_state)


def _dict_walk_classes(f):
    """The reps of the tuple-state walk over every state of f, in lex order."""
    return shift_classes_by_dict(f, itertools.product(range(f.ctx.modulus), repeat=f.degree))[0]


@pytest.mark.parametrize("p,e,n", [(3, 2, 2), (3, 3, 2), (5, 2, 2), (3, 2, 3)])
def test_fiber_classes_are_the_lex_walk_classes(p, e, n):
    # the classes from the fibers, each started at some member, are the reps
    # of the lex walk over tuple states once rotated to their least states
    for f in itertools.islice(iter_primitive(RingContext(p, e), n), 3):
        assert _lex_sorted(_fiber_classes(f)) == _dict_walk_classes(f)


@pytest.mark.parametrize("f,covers", [
    # x - 7 over Z/25: 2 generates the units mod 5, so the cycle through u
    # is every nonzero state mod 5 and the fibers meet every class
    (RingPolynomial(RingContext(5, 2), (18, 1)), True),
    (X2_PLUS_1_27, False),
])
def test_fiber_classes_of_a_non_primitive_f_cover_or_raise(f, covers):
    if covers:
        assert _lex_sorted(_fiber_classes(f)) == _dict_walk_classes(f)
    else:
        with pytest.raises(RuntimeError, match="cover 365 of 729 states"):
            _fiber_classes(f)


def _no_atlas(*args, **kwargs):
    raise AssertionError("the classes were read through _atlas")


def _no_classes(*args, **kwargs):
    raise AssertionError("the classes were read past the first")


@pytest.mark.parametrize("p,e,n", [(3, 2, 2), (5, 2, 2), (3, 3, 2), (7, 2, 2), (5, 2, 1), (3, 3, 1)])
def test_lex_reps_are_the_shift_classes(monkeypatch, p, e, n):
    for f in itertools.islice(iter_primitive(RingContext(p, e), n), 3):
        reps, _ = shift_classes(f)
        with monkeypatch.context() as m:
            m.setattr(analysis, "shift_classes", _no_classes)
            assert next(analysis._lex_reps(f)) == reps[0]
        with monkeypatch.context() as m:
            m.setattr(analysis, "_atlas", _no_atlas)
            assert list(analysis._lex_reps(f)) == reps


def test_lex_reps_of_a_non_primitive_f_are_its_shift_classes():
    # x - 7 over Z/25: 5 classes of period 4, which the fibers meet
    f = RingPolynomial(RingContext(5, 2), (18, 1))
    assert list(analysis._lex_reps(f)) == shift_classes(f)[0]


@pytest.mark.parametrize("name, overrides, digest", [
    ("thm7", {}, "178e8fbf21e0fe11a4c46595f583662c941730f033bd23ede3115af24d8ea212"),
    ("thm8", {}, "09f80230b5bda55c786d0b44fd8b5ee7418ec64245d1f68915deb5d6c2ae93df"),
    ("thm9", {"ps": (17, 19, 41)},
     "437bebd044486b387690f8487da2e7a3b68a5d9ad98048f1809b22ea3018e255"),
])
def test_negation_suites_read_the_first_class_alone(monkeypatch, name, overrides, digest):
    # every failing s splits in the class through (0, ..., 0, 1), so the
    # suites list no other class; the reports, as `verify` prints them in
    # JSON, are pinned by sha256
    monkeypatch.setattr(analysis, "_atlas", _no_atlas)
    monkeypatch.setattr(analysis, "shift_classes", _no_classes)
    reports = run_suite(name, **overrides)
    out = json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
    # 72 states make 2 mask words a row, so a budget of 2 draws 1 row
    report = verify_alpha_k_injectivity(cert, m, 1, budget=2, seed=3)
    assert report.sampled
    assert report.holds
    # whole rows are drawn, each against all 72 states
    assert report.counts["pairs"] % 72 == 0
    again = verify_alpha_k_injectivity(cert, m, 1, budget=2, seed=3)
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
         1, 2, 3),  # 1 row of 72 drawn
        (find_primitive(ctx, 2), CompressingMap(g=UnivariateFn(5, (0, 1)), eta=eta, e=2),
         2, analysis.DEFAULT_BUDGET, 0),
        (find_primitive(ctx, 2, strongly=True),
         CompressingMap(g=UnivariateFn(5, (0, 0, 0, 1)), eta=eta, e=2),
         1, analysis.DEFAULT_BUDGET, 0),
    )
    for cert, m, k, budget, seed in cases:
        fast = verify_alpha_k_injectivity(cert, m, k, budget, seed)
        assert fast.sampled == (budget == 2)
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
    analysis._alpha_k_frame.cache_clear()
    reports = analysis.suite_alpha_k(p=5, e=2, n=2, ks=[1])
    assert len(reports) == 27 and all(r.holds for r in reports)
    assert len(calls) == 5


def test_alpha_k_walks_each_class_and_cyclic_start_once(monkeypatch):
    # 600 states in 5 classes of 120, each with 25 k-positions at k = 1: a
    # state's row is its rep's row rotated, read from the first k-position at
    # or after its offset, so 125 walks stand for the 600 rows
    calls = []
    walk_row = analysis._walk_row
    monkeypatch.setattr(analysis, "_walk_row",
                        lambda *args: calls.append(args) or walk_row(*args))
    cert = find_primitive(RingContext(5, 2), 2)
    m = CompressingMap(g=UnivariateFn(5, (0, 1)), eta=zero_poly(5, 1), e=2)
    report = verify_alpha_k_injectivity(cert, m, 1)
    assert report.holds and not report.sampled
    assert report.counts["pairs"] == 600**2
    assert len(calls) == 125
    # a budget of one row walks one (class, cyclic start), not every class
    calls.clear()
    report = verify_alpha_k_injectivity(cert, m, 1, budget=1)
    assert report.holds and report.sampled
    assert report.counts["pairs"] == 600
    assert len(calls) == 1


def test_alpha_k_suite_builds_the_frame_once(monkeypatch):
    # 27 eta cells times 4 markers share one frame and the 5 class alphas
    calls = []
    alpha_sequence = analysis.alpha_sequence
    monkeypatch.setattr(analysis, "alpha_sequence",
                        lambda s, cert: calls.append(s) or alpha_sequence(s, cert))
    analysis._class_alphas.cache_clear()
    analysis._alpha_k_frame.cache_clear()
    reports = analysis.suite_alpha_k(p=5, e=2, n=2)
    assert len(reports) == 108 and all(r.holds for r in reports)
    frame = analysis._alpha_k_frame.cache_info()
    assert (frame.misses, frame.hits) == (1, 107)
    assert len(calls) == 5


@pytest.mark.parametrize("p,e", [(3, 2), (5, 2), (3, 3)])
def test_alpha_k_frame_matches_the_per_state_oracle(p, e):
    # every class and every k: the gap counts against a bisect per cyclic
    # start, with the marks and the residue masks behind them
    cert = find_primitive(RingContext(p, e), 2)
    frame = analysis._alpha_k_frame(cert)
    assert frame == oracles.alpha_k_frame_per_state(cert)
    period = analysis._atlas(cert.f)[0][0].period
    assert all(sum(gap) == period for gaps in frame[1] for gap in gaps)


def test_verify_alpha_k_matches_per_state_oracle_on_forced_failures_p5():
    # the first non-strong primitive generator at p = 5, e = 2, forced through
    # the strong-primitivity guard: g = x^2 fails on some cells, exhaustive
    # and sampled (600 states make 10 mask words a row, so budget 10 draws
    # one row, mostly not a rep)
    ctx = RingContext(5, 2)
    weak = certify(next(f for f in iter_primitive(ctx, 2) if not certify(f).strongly_primitive))
    assert not weak.strongly_primitive
    forced = dataclasses.replace(weak, strongly_primitive=True)
    fails = 0
    for seed in range(5):
        table = random.Random(seed).choices(range(5), k=5)
        m = CompressingMap(g=UnivariateFn(5, (0, 0, 1)), eta=from_table(5, 1, table), e=2)
        for k, budget in itertools.product((1, 2), (analysis.DEFAULT_BUDGET, 10)):
            fast = verify_alpha_k_injectivity(forced, m, k, budget)
            assert fast.sampled == (budget == 10)
            assert fast.to_dict() == verify_alpha_k_injectivity_per_state(forced, m, k, budget).to_dict()
            fails += not fast.holds
    assert fails > 0


STRONG9 = certify(RingPolynomial(Z9, (2, 1, 1)))
FORCED9 = dataclasses.replace(certify(RingPolynomial(Z9, (2, 2, 1))), strongly_primitive=True)


@settings(max_examples=80, deadline=None)
@given(
    cert=st.sampled_from([STRONG9, FORCED9]),
    table=st.tuples(*[st.integers(0, 2)] * 3),
    deg_g=st.sampled_from([1, 2]),
    k=st.sampled_from([1, 2]),
    # 72 states make 2 mask words a row, so budgets below 144 sample rows
    budget=st.one_of(st.integers(1, 300), st.just(analysis.DEFAULT_BUDGET)),
    seed=st.integers(0, 2**16),
)
# a sampled failing cell: 27 of 72 rows drawn, the witness in the first
@example(cert=FORCED9, table=(0, 0, 0), deg_g=2, k=1, budget=54, seed=0)
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
    # the exact count prices 5 tables of 25 entries and the failing walks
    # of s = 1, 2, 3 (8 + 2 + 2 positions): 100 stops at the table of s = 3
    uc = count_uniform_s(cert, m, ctx.modulus - 1, budget=100, seed=1)
    assert uc.sampled
    uc2 = count_uniform_s(cert, m, ctx.modulus - 1, budget=100, seed=1)
    assert uc == uc2
    # the draws are pinned: max(1, 100 // (120 * 5)) = 1 state, drawn by the
    # recurrence suite's sampler and read in lex order
    assert uc == analysis.UniformCount(
        holding=(0, 4), vacuous=(),
        failing={1: {"state": [4, 18], "t": 1, "s": 1}, 2: {"state": [4, 18], "t": 0, "s": 2},
                 3: {"state": [4, 18], "t": 0, "s": 3}},
        pairs=1, positions=244, sampled=True, seed=1)
    assert sorted(analysis._sample_primitive_states(ctx, 2, 1, random.Random(1)))[0] == (4, 18)
    # 57 leaves 7 positions for the walk of s = 1, which reads 8
    uc = count_uniform_s(cert, m, ctx.modulus - 1, budget=57, seed=2)
    assert uc == analysis.UniformCount(
        holding=(0, 4), vacuous=(),
        failing={1: {"state": [1, 2], "t": 4, "s": 1}, 2: {"state": [1, 2], "t": 0, "s": 2},
                 3: {"state": [1, 2], "t": 0, "s": 3}},
        pairs=1, positions=247, sampled=True, seed=2)
    assert sorted(analysis._sample_primitive_states(ctx, 2, 1, random.Random(2)))[0] == (1, 2)


def test_count_uniform_s_sampled_walks_no_class():
    # the thm9 map at p = 31 over budget: the sample draws one state and
    # generates it, with no walk of the 922,560 primitive states or an
    # index over them
    ctx = RingContext(31, 2)
    cert = find_primitive(ctx, 2, strongly=True)
    m = CompressingMap(g=UnivariateFn(31, (0, 0, 1)), eta=psi_zw(31, 2, 0, thm9_choose_w(31)), e=2)
    tracemalloc.start()
    try:
        uc = count_uniform_s(cert, m, ctx.modulus - 1, budget=1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert uc.sampled and uc.pairs == 1
    assert peak < 8 * 2**20


def test_count_uniform_s_budget_prices_tables_and_failing_walks():
    ctx = RingContext(5, 2)
    cert = find_primitive(ctx, 2, strongly=True)
    m = CompressingMap(g=UnivariateFn(5, (0, 0, 1)), eta=psi_zw(5, 2, 0, 2), e=2)
    exact = count_uniform_s(cert, m, ctx.modulus - 1)
    assert exact == analysis.UniformCount(
        holding=(0, 4), vacuous=(),
        failing={1: {"state": [0, 1], "t": 7, "s": 1}, 2: {"state": [0, 1], "t": 1, "s": 2},
                 3: {"state": [0, 1], "t": 1, "s": 3}},
        pairs=600, positions=2 * 600 + 8 + 2 + 2, sampled=False, seed=0)
    # 5 * 25 table entries + 12 walk positions = 137
    assert count_uniform_s(cert, m, ctx.modulus - 1, budget=137) == exact
    assert count_uniform_s(cert, m, ctx.modulus - 1, budget=136).sampled


@pytest.mark.parametrize("p", [5, 7])
def test_scaled_uniform_scan_matches_the_per_term_loop(p):
    ctx = RingContext(p, 2)
    m = ctx.modulus
    f = find_primitive(ctx, 2, strongly=True).f
    reps, _ = shift_classes(f)
    rng = random.Random(p)
    # random tables over a small and a full alphabet, and a constant table
    tables = [[rng.randrange(k) for _ in range(m)] for k in (2, p) for _ in range(3)]
    tables.append([1] * m)
    for phi in tables:
        for lam in range(1, m):
            if lam % p == 0:
                continue
            for s in range(p):
                got = analysis._scaled_uniform_scan(f, analysis._lex_reps(f), phi, lam, s)
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
        got = analysis._scaled_uniform_scan(cert.f, reps, phi, 24, s)
        assert got == scaled_uniform_scan_per_term(reps, phi, 24, s)
        assert (got[0] is None) == (s in (0, 4))
        if s in (0, 4):
            assert got[1] == total
    # a hit at t = 0 of the first sequence: only v and -v split
    first = next(reps[0].shifted(r) for r in range(reps[0].period) if reps[0].at(r))
    seqs = [first] + reps[1:]
    v = first.terms[0]
    phi = [int(u == v) for u in range(25)]
    got = analysis._scaled_uniform_scan(cert.f, seqs, phi, 24, 1)
    assert got == ({"state": list(first.initial_state), "t": 0, "s": 1}, 1)
    assert got == scaled_uniform_scan_per_term(seqs, phi, 24, 1)
    # a hit at the last term of a later sequence: a(t+1) = 7 a(t) has period
    # 4 and no value twice, so v and v / lam split and occur nowhere earlier
    f = RingPolynomial(ctx, (18, 1))
    seqs = [generate(f, (a,)) for a in (1, 2)]
    v = seqs[1].terms[-1]
    earlier = set(seqs[0].terms) | set(seqs[1].terms[:-1])
    lam = next(k for k in range(2, 25) if k % 5 and pow(k, -1, 25) * v % 25 not in earlier)
    phi = [int(u == v) for u in range(25)]
    got = analysis._scaled_uniform_scan(f, seqs, phi, lam, 1)
    assert got == ({"state": [2], "t": 3, "s": 1}, 8)
    assert got == scaled_uniform_scan_per_term(seqs, phi, lam, 1)


def _first_hits(reps):
    """By value, the positions the full scan over reps has read when it
    first meets that value."""
    hits, read = {}, 0
    for rep in reps:
        for t, v in enumerate(rep.terms):
            hits.setdefault(v, read + t + 1)
        read += rep.period
    return hits


def _unread():
    pytest.fail("the reps were read for an s the table settles")
    yield


@pytest.mark.parametrize("p, e, coeffs", [
    (7, 2, None),        # None: the first strongly primitive f of degree 2
    (3, 3, None),
    (5, 2, (18, 1)),     # a(t+1) = 7 a(t): 5 classes of period 4
    (3, 2, (1, 0, 1)),   # x^2 + 1: short classes of every state
])
def test_scaled_uniform_scan_walks_to_a_late_split(p, e, coeffs):
    ctx = RingContext(p, e)
    m = ctx.modulus
    f = RingPolynomial(ctx, coeffs) if coeffs else find_primitive(ctx, 2, strongly=True).f
    reps, _ = shift_classes_by_dict(f)
    hits = _first_hits(reps)
    # phi hits s = 1 only at v, so exactly v and v / lam split: take the
    # pair the full scan meets last
    first, v, lam = max((min(hits[v], hits[pow(lam, -1, m) * v % m]), v, lam)
                        for v in hits for lam in range(2, m) if lam % p and lam * v % m != v)
    phi = [int(u == v) for u in range(m)]
    read = []
    # x^2 + 1 is not primitive mod 3 and its fibers miss classes: it reads the oracle's reps
    classes = iter(reps) if coeffs == (1, 0, 1) else analysis._lex_reps(f)
    walk = (read.append(rep) or rep for rep in classes)
    got = analysis._scaled_uniform_scan(f, walk, phi, lam, 1)
    assert got == scaled_uniform_scan_per_term(reps, phi, lam, 1)
    assert got[0] is not None and got[1] == first
    # the walk read the classes up to the witness's and stopped there
    assert read == reps[:len(read)]
    assert sum(r.period for r in read[:-1]) < first <= sum(r.period for r in read)
    if coeffs == (18, 1):
        assert len(read) > 1


@pytest.mark.parametrize("p, e", [(5, 2), (3, 3)])
def test_scaled_uniform_scan_at_degree_one_reaches_only_units(p, e):
    ctx = RingContext(p, e)
    m = ctx.modulus
    f = find_primitive(ctx, 1).f
    reps, walked = shift_classes(f)
    assert walked == m - m // p
    # phi hits s = 1 only at the non-unit p: p and p / lam split, and no
    # sequence from a unit reaches either, so the table settles s
    phi = [int(v == p) for v in range(m)]
    for lam in range(2, m):
        if lam % p:
            got = analysis._scaled_uniform_scan(f, _unread(), phi, lam, 1)
            assert got == (None, walked) == scaled_uniform_scan_per_term(reps, phi, lam, 1)
    # at a unit it splits, and the walk finds the per-term scan's witness
    phi = [int(v == p + 1) for v in range(m)]
    for lam in range(2, m):
        if lam % p and lam * (p + 1) % m != p + 1:
            got = analysis._scaled_uniform_scan(f, iter(reps), phi, lam, 1)
            assert got[0] is not None
            assert got == scaled_uniform_scan_per_term(reps, phi, lam, 1)


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


def _period_failure_in_lex_order_on_failure(monkeypatch, ctx, n):
    """_period_failure with its shift_classes calls recorded: a generator
    whose laws hold is settled from its fiber classes alone, and only a
    failing one, the witness's, may list them in lex order."""
    listed = []

    def lex_walk(f, primitive=True):
        listed.append(format_coeffs(f))
        return shift_classes(f, primitive)

    with monkeypatch.context() as m:
        m.setattr(analysis, "shift_classes", lex_walk)
        got = analysis._period_failure(ctx, n)
    assert listed == ([] if got[0] is None else [got[0]["f"]])
    return got


@pytest.mark.parametrize("p,e,n", [(3, 2, 2), (3, 3, 2), (5, 2, 2), (7, 2, 2), (3, 2, 3)])
def test_period_failure_matches_the_every_level_oracle(monkeypatch, p, e, n):
    ctx = RingContext(p, e)
    want = oracles.period_failure_all_levels(ctx, n)
    assert _period_failure_in_lex_order_on_failure(monkeypatch, ctx, n) == want


def _zero_top_level_when_divisible(s, i):
    # the top level of a sequence with every term divisible by p reads zero,
    # so its period breaks the law for a state of no nonzero level
    lvl = sequences.level(s, i)
    if i == s.f.ctx.e - 1 and not any(v % s.f.ctx.p for v in s.terms):
        return level_sequence(lvl.p, [0])
    return lvl


@pytest.mark.parametrize("fake", [_top_level_plus_one, _constant_level,
                                  _zero_top_level_when_divisible])
def test_period_failure_matches_the_oracle_under_forced_level_failures(monkeypatch, fake):
    # the injections touch levels e-1 and 1 only, which both still build by
    # `level`. At p = 5 and 7 most fiber starts are not reps, so a failing
    # generator must be checked again at its classes' least states to give
    # the oracle's witness
    for p, e in ((3, 2), (3, 3), (5, 2), (7, 2)):
        ctx = RingContext(p, e)
        with monkeypatch.context() as m:
            m.setattr(analysis, "level", fake)
            m.setattr(oracles, "level", fake)
            want = oracles.period_failure_all_levels(ctx, 2)
            got = _period_failure_in_lex_order_on_failure(monkeypatch, ctx, 2)
        assert got == want


def test_a_zero_top_level_breaks_the_period_of_a_state_divisible_by_p(monkeypatch):
    monkeypatch.setattr(analysis, "level", _zero_top_level_when_divisible)
    assert analysis._period_failure(RingContext(3, 2), 2) == (
        {"f": "2,1,1", "state": [0, 3], "period": 8, "expected": 1}, 4, 1)


def test_level0_period_generates_once_per_residue():
    # the 144 primitive f of degree 2 over Z/27 reduce to the 2 primitive
    # residues mod 3; each level-0 period is generated once
    analysis._level0_period.cache_clear()
    assert analysis._period_failure(RingContext(3, 3), 2) == (None, 2016, 144)
    info = analysis._level0_period.cache_info()
    assert (info.misses, info.hits) == (2, 142)
    assert info.maxsize is not None


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (7, 2), (3, 3)])
def test_level0_period_is_the_period_of_every_nonzero_state(p, n):
    # the per-state table that the tuple-state walk of f mod p gives, by state
    # code: the zero state has period 1, and every other state the one period
    for fp in iter_primitive(RingContext(p, 1), n):
        table = [0] * p**n
        for rep in _dict_walk_classes(fp):
            for c in analysis._state_codes(rep):
                table[c] = rep.period
        assert table == [1] + [analysis._level0_period(fp)] * (p**n - 1)


@pytest.mark.parametrize("f", [
    RingPolynomial(Z9, (2, 1, 1)),
    RingPolynomial(Z9, (1, 0, 2, 1)),
    RingPolynomial(RingContext(5, 2), (2, 1, 1)),
])
def test_fiber_classes_raise_when_a_sequence_misses_its_start(monkeypatch, f):
    # generate answering from the state rotated by one slot: the fiber walk
    # meets a state outside the fiber where the start should be
    m, n = f.ctx.modulus, f.degree
    t_u = analysis._level0_period(reduce_mod_p(f))
    calls = 0

    def rotated(f, init):
        nonlocal calls
        calls += 1
        if calls > 2 * m**n:
            pytest.fail("the fiber walk kept walking past 2 m^n sequences")
        init = tuple(init)
        return generate(f, init[1:] + init[:1])

    monkeypatch.setattr(analysis, "generate", rotated)
    with pytest.raises(RuntimeError, match="misses its fiber states"):
        analysis._fiber_classes(f, t_u)


# each pair walker law, the per-pair scan it replaced, and the ring exponent
# suite_distribution gives it
DISTRIBUTION_LAWS = [
    (analysis._linear_relation_failure, oracles.linear_relation_failure_per_pair, 1),
    (analysis._relation_failure, oracles.relation_failure_per_pair, None),
    (analysis._highest_level_failure, oracles.highest_level_failure_per_pair, None),
]


# the per-pair highest-level scan takes 8-16 s past the defaults, so of the
# larger rings only (3, 2, 3) runs it
@pytest.mark.parametrize("p,e,n,laws", [(3, 2, 2, 3), (3, 2, 3, 3), (3, 3, 2, 2), (5, 2, 2, 2)])
def test_distribution_laws_match_the_per_pair_scans(p, e, n, laws):
    for law, per_pair, ring_e in DISTRIBUTION_LAWS[:laws]:
        ctx = RingContext(p, ring_e or e)
        got = law(ctx, n)
        assert got == per_pair(ctx, n)
        assert got[0] is None and got[1] > 0


@pytest.mark.parametrize("name", sorted(INJECTIONS))
def test_distribution_laws_match_the_per_pair_scans_under_forced_failures(monkeypatch, name):
    target, fake = INJECTIONS[name]
    monkeypatch.setattr(analysis, target, fake)
    for law, per_pair, ring_e in DISTRIBUTION_LAWS:
        ctx = RingContext(3, ring_e or 2)
        assert law(ctx, 2) == per_pair(ctx, 2)


def test_highest_level_failure_reads_the_lower_levels(monkeypatch):
    # with every top level zero and every nonzero lambda read as 1, a pair
    # whose markers are truly 2 apart passes every check but equal lower
    # levels; no one injection reaches that check at the defaults
    def zero_top(s, i):
        return level_sequence(s.f.ctx.p, [0]) if i == s.f.ctx.e - 1 else sequences.level(s, i)

    proportional = analysis._proportional
    monkeypatch.setattr(analysis, "level", zero_top)
    monkeypatch.setattr(analysis, "_proportional", lambda u, v, p: 1 if proportional(u, v, p) else None)
    ctx = RingContext(3, 2)
    got = analysis._highest_level_failure(ctx, 2)
    assert got == oracles.highest_level_failure_per_pair(ctx, 2)
    witness = got[0]
    assert (witness["lambda"], witness["delta"]) == (1, 0)
    assert [x % 3 for x in witness["a_state"]] != [x % 3 for x in witness["b_state"]]


def test_pair_walker_holds_one_row():
    # 600 states in 5 classes at p = 5, e = 2: the walker rotates each b once
    # and keeps class totals, not every rotation of every b or every cell
    analysis._atlas.cache_clear()
    analysis._class_alphas.cache_clear()
    tracemalloc.start()
    try:
        witness, cells = analysis._highest_level_failure(RingContext(5, 2), 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert witness is None and cells > 0
    assert peak < 2**20
