"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single pass line once its assertions all hold (visible
with pytest -s; the per-test PASSED/FAILED line of pytest -v carries the
same information otherwise).
"""

import itertools
import json
import time

from oracles import compute_h_lifted, order_of_x_bruteforce
from residueseq.ringcore import (
    RingContext,
    UnivariateFn,
    carry_map_poly,
    interpolate,
    carry_c1,
)
from residueseq.polyring import (
    RingPolynomial,
    order_of_x,
    poly_powmod,
    reduce_mod_p,
    x_poly,
)
from residueseq.primitivity import compute_h, iter_primitive
from residueseq.analysis import (
    construct_thm7,
    intersection_count,
    intersection_count_formula,
    legendre_sum,
    run_suite,
    squares,
    suite_alpha_k,
    suite_distribution,
    suite_periods,
    suite_recurrence,
    suite_thm7,
    suite_thm9,
    thm9_choose_w,
)

Z9 = RingContext(3, 2)
FIB9 = RingPolynomial(Z9, (8, 8, 1))


def _done(n, text):
    print(f"[PASS] criterion {n}: {text}")


def test_criterion_01_primitivity_ground_truth():
    started = time.perf_counter()
    assert order_of_x(FIB9) == 24 == 3 * (3**2 - 1)
    candidates = 0
    for c0, c1 in itertools.product(range(9), repeat=2):
        if c0 % 3 == 0:
            continue
        f = RingPolynomial(Z9, (c0, c1, 1))
        candidates += 1
        assert order_of_x(f) == order_of_x_bruteforce(f), f
    elapsed = time.perf_counter() - started
    assert candidates <= 81
    assert elapsed < 5.0
    _done(1, f"prime-descent order matches the sequential oracle on "
             f"{candidates} generators in {elapsed:.2f}s")


def test_criterion_02_lift_certificates():
    for e in (2, 3):
        ctx = RingContext(3, e)
        x = x_poly(ctx)
        count = 0
        for f in iter_primitive(ctx, 2):
            count += 1
            h1 = compute_h(f, 1)
            hf = reduce_mod_p(h1)
            for i in range(1, e + 1):
                hi = compute_h(f, i)
                rebuilt = RingPolynomial(
                    ctx,
                    tuple((1 if k == 0 else 0) + 3**i * hi.coeff(k) for k in range(2)),
                )
                assert rebuilt == poly_powmod(x, 3 ** (i - 1) * 8, f)
                lifted = compute_h_lifted(f, i)
                assert reduce_mod_p(lifted) == hf
        assert count > 0
    _done(2, "x^(p^(i-1)T) = 1 + p^i h_i exactly and h_i = h_1 mod p "
             "across the p=3, e in {2,3}, n=2 grid")


def test_criterion_03_carry_coefficient():
    for p in (3, 5, 7, 11):
        for u in range(p):
            fn = interpolate([carry_c1(u + x, p) for x in range(p)], p)
            assert fn == carry_map_poly(u, p)
            assert fn.coeff(p - 1) == (-u) % p
    _done(3, "x^(p-1) coefficient of the carry map is -u mod p for "
             "p in {3,5,7,11}")


def test_criterion_04_recurrence_identities():
    started = time.perf_counter()
    reports = suite_recurrence(p=3, n=2, es=(2, 3, 4), num_states=10, seed=0)
    elapsed = time.perf_counter() - started
    assert [r.params["e"] for r in reports] == [2, 3, 4]
    for r in reports:
        assert r.holds, r.witness
        assert r.params["fallback_reading"] is False
        assert r.params["states"] >= 10
    # e = 4 runs over the full period 3^3 * 8 = 216
    assert elapsed < 30.0
    _done(4, f"shift and carry identities hold for all j in [0,3) on 10 "
             f"seeded states at e in {{2,3,4}} in {elapsed:.2f}s, primary reading")


def test_criterion_05_deg1_injectivity():
    started = time.perf_counter()
    reports = suite_alpha_k(p=3, e=2, n=2, f_coeffs=(8, 8, 1), deg_g=1)
    elapsed = time.perf_counter() - started
    assert len(reports) == 27 * 2
    for r in reports:
        assert r.holds, r.witness
        assert r.counts["pairs"] == 72 * 72
        assert not r.sampled
    assert elapsed < 60.0
    _done(5, f"agreement at alpha(t)=k implies equal states for all 27 eta "
             f"and k in {{1,2}} over 72x72 pairs in {elapsed:.2f}s")


def test_criterion_06_deg2_injectivity():
    started = time.perf_counter()
    reports = suite_alpha_k(p=3, e=2, n=2, deg_g=2)
    elapsed = time.perf_counter() - started
    assert len(reports) == 27 * 2
    for r in reports:
        assert r.holds, r.witness
        assert r.params["g"] == "x^2"
        assert not r.sampled
    assert elapsed < 300.0
    _done(6, f"same implication for g=x^2 over a strongly primitive "
             f"generator, 27 eta, both k, in {elapsed:.2f}s")


def test_criterion_07_negation_uniformity():
    started = time.perf_counter()
    for p in (3, 5):
        m = construct_thm7(UnivariateFn(p, (0, 1)), 0, 2)
        assert m.eta((0,)) == 0
        assert m.eta((1,)) == (p + 1) // 2
    reports = suite_thm7(ps=(3, 5), e=2, n=2)
    elapsed = time.perf_counter() - started
    assert all(r.holds for r in reports), [r.witness for r in reports if not r.holds]
    scans = [r for r in reports if r.experiment == "thm7"]
    assert len(scans) == 3 + 5
    assert elapsed < 60.0
    _done(7, f"z=0, w=(p+1)/2 closed form and s-uniformity of (a, -a) for "
             f"every primitive a and every s at p in {{3,5}} in {elapsed:.2f}s")


def test_criterion_08_legendre_lemma():
    started = time.perf_counter()
    for p in (3, 5, 7, 11, 13):
        for w in range(p):
            assert legendre_sum(w, p) == (p - 1 if w % p == 0 else -1)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _done(8, f"character sum is p-1 when p | w and -1 otherwise, "
             f"p in {{3,5,7,11,13}}, in {elapsed:.2f}s")


def test_criterion_09_intersection_formula():
    for p in (5, 7, 11, 13):
        for w in range(1, p):
            assert intersection_count(p, w) == intersection_count_formula(p, w)
    _done(9, "brute-force |I ^ I_w| equals (p+1+(w|p)+(-w|p))/4 for all "
             "w != 0, p in {5,7,11,13}")


def test_criterion_10_uniform_count():
    started = time.perf_counter()
    reports = suite_thm9(ps=(5, 7, 11), e=2, n=2)
    elapsed = time.perf_counter() - started
    counts = {}
    for r in reports:
        assert r.holds, r.witness
        assert not r.sampled
        counts[r.params["p"]] = r.params["count"]
    assert counts == {5: 2, 7: 2, 11: 3}
    for p in (5, 7, 11):
        w = thm9_choose_w(p)
        sq = squares(p)
        assert counts[p] == len(sq - {(w + v) % p for v in sq}) == p // 4 + 1
    assert elapsed < 300.0
    _done(10, f"non-vacuous s-uniform count is floor(p/4)+1 = {counts} and "
              f"matches the image-set prediction in {elapsed:.2f}s")


def test_criterion_11_period_and_distribution_laws():
    started = time.perf_counter()
    reports = suite_periods(p=3, n=2, es=(2, 3))
    reports += suite_distribution(p=3, n=2, e=2)
    elapsed = time.perf_counter() - started
    assert all(r.holds for r in reports), [r.witness for r in reports if not r.holds]
    assert elapsed < 30.0
    _done(11, f"period laws over every generator and state at e in {{2,3}} "
              f"plus the value-distribution laws in {elapsed:.2f}s")


def test_criterion_12_byte_identical_reports():
    for name, kwargs in (
        ("thm9", {"ps": (5,)}),
        ("recurrence", {}),
        ("alpha-k", {"f_coeffs": (8, 8, 1), "ks": (1,)}),
    ):
        first = json.dumps(
            [r.to_dict() for r in run_suite(name, seed=11, **kwargs)],
            indent=2, sort_keys=True,
        )
        second = json.dumps(
            [r.to_dict() for r in run_suite(name, seed=11, **kwargs)],
            indent=2, sort_keys=True,
        )
        assert first == second
    _done(12, "identical configuration and seed serialize to byte-identical "
              "reports")
