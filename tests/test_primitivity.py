import itertools
import re

import pytest

from oracles import compute_h_lifted, order_of_x_bruteforce, order_of_x_divisor_scan
from residueseq import polyring, primitivity
from residueseq.errors import CertificateError, InvalidInputError
from residueseq.ringcore import RingContext
from residueseq.polyring import (
    RingPolynomial,
    order_of_x,
    poly_powmod,
    reduce_mod_p,
    with_exponent,
    x_poly,
)
from residueseq.primitivity import (
    _qualifies,
    certificate_to_dict,
    certify,
    compute_h,
    find_primitive,
    iter_monic_polys,
    iter_primitive,
    order_and_certificate,
)
from residueseq.sequences import generate

Z9 = RingContext(3, 2)
Z3 = RingContext(3, 1)
FIB9 = RingPolynomial(Z9, (8, 8, 1))


def _is_primitive(f: RingPolynomial) -> bool:
    return order_and_certificate(f)[1] is not None


def test_is_primitive_examples():
    assert _is_primitive(FIB9)
    assert not _is_primitive(RingPolynomial(Z9, (8, 1)))      # x - 1
    assert not _is_primitive(RingPolynomial(Z9, (8, 0, 1)))   # x^2 - 1


@pytest.mark.parametrize("f, message", [
    (RingPolynomial(Z9, (8, 8, 2)), "monic of degree >= 1"),
    (RingPolynomial(Z9, (1,)), "monic of degree >= 1"),
    (RingPolynomial(Z9, (3, 0, 1)), "f(0) a unit mod p"),
], ids=["not-monic", "constant", "f0-divisible-by-p"])
@pytest.mark.parametrize("call", [
    lambda f: generate(f, (0, 1)),
    order_of_x,
    lambda f: compute_h(f, 1),
    order_and_certificate,
], ids=["generate", "order_of_x", "compute_h", "order_and_certificate"])
def test_every_entry_point_rejects_a_non_generator(f, message, call):
    # one check, RingPolynomial.check_generator, with one message per condition
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        call(f)


def test_compute_h_reconstruction():
    h1 = compute_h(FIB9, 1)
    assert h1 == RingPolynomial(Z9, (1, 1))  # x + 1
    # 1 + 3*h1 reproduces x^8 mod f exactly
    reconstructed = RingPolynomial(Z9, tuple((1 if k == 0 else 0) + 3 * h1.coeff(k) for k in range(2)))
    assert reconstructed == poly_powmod(x_poly(Z9), 8, FIB9)
    # at i = e the full period is reached and the native representative
    # is pinned mod p^0, i.e. zero
    assert compute_h(FIB9, 2).is_zero()


def test_compute_h_lifted():
    # the exponent-3 lift of the same coefficients pins h_1 mod 9 and
    # h_2 mod 3
    h1 = compute_h_lifted(FIB9, 1)
    assert h1.coeffs == (7, 4)   # 4x + 7
    h2 = compute_h_lifted(FIB9, 2)
    assert h2.coeffs == (1, 1)   # x + 1
    assert reduce_mod_p(h1) == reduce_mod_p(h2)


def test_congruent_lift_polys_across_grid():
    for e in (2, 3):
        ctx = RingContext(3, e)
        for f in iter_primitive(ctx, 2):
            h1 = compute_h(f, 1)
            hf = reduce_mod_p(h1)
            assert not hf.is_zero()
            for i in range(2, e + 1):
                hi = compute_h_lifted(f, i) if i == e else compute_h(f, i)
                assert reduce_mod_p(hi) == hf


def test_compute_h_flags_non_primitive():
    # x^2 + x + 1 = (x-1)^2 mod 3: x^8 - 1 is not divisible by 3 mod f
    with pytest.raises(CertificateError):
        compute_h(RingPolynomial(Z9, (1, 1, 1)), 1)


def test_strongly_primitive():
    assert certify(FIB9).strongly_primitive
    weak = [f for f in iter_primitive(Z9, 2) if reduce_mod_p(compute_h(f, 1)).degree == 0]
    assert weak, "some primitive lift has a constant h_1 mod p"
    for f in weak:
        assert not certify(f).strongly_primitive
    # over Z/p, h_1 is undetermined, so no generator is strongly primitive
    assert not certify(RingPolynomial(Z3, (2, 2, 1))).strongly_primitive
    with pytest.raises(InvalidInputError):
        certify(RingPolynomial(Z9, (8, 1)))     # not primitive


def test_certify():
    cert = certify(FIB9)
    assert cert.period == 24 and cert.T == 8 and cert.n == 2
    assert cert.h1.coeffs == (1, 1)
    assert cert.h_f.coeffs == (1, 1)
    assert cert.strongly_primitive
    assert [compute_h(cert.f, i).coeffs for i in (1, 2)] == [(1, 1), ()]
    with pytest.raises(InvalidInputError):
        certify(RingPolynomial(Z9, (8, 1)))


def test_find_primitive_examples():
    cert = find_primitive(Z9, 2)
    assert cert.f.coeffs == (2, 1, 1)  # first hit in lexicographic order
    cert = find_primitive(Z3, 1)
    assert cert.f.coeffs == (1, 1)     # x + 1 = x - 2, order 2 = p - 1
    strong = find_primitive(Z9, 2, strongly=True)
    assert strong.strongly_primitive
    assert FIB9 in list(iter_primitive(Z9, 2))


def test_primitive_count_over_prime_field():
    # exactly phi(8)/2 = 2 primitive monic quadratics over Z/3, and the
    # order agrees with the sequential oracle on each
    prims = list(iter_primitive(Z3, 2))
    assert len(prims) == 2
    assert {f.coeffs for f in prims} == {(2, 1, 1), (2, 2, 1)}
    for f in prims:
        assert order_of_x_bruteforce(f) == 8
    assert sum(1 for _ in iter_monic_polys(Z3, 2)) == 6


def test_reconstruction_across_grid():
    for e in (2, 3):
        ctx = RingContext(3, e)
        x = x_poly(ctx)
        for f in iter_primitive(ctx, 2):
            for i in range(1, e + 1):
                hi = compute_h(f, i)
                expected = [(1 if k == 0 else 0) + 3**i * hi.coeff(k) for k in range(2)]
                assert RingPolynomial(ctx, tuple(expected)) == poly_powmod(x, 3 ** (i - 1) * 8, f)


def test_certificate_dict_fields():
    payload = certificate_to_dict(certify(FIB9))
    assert set(payload) == {
        "p", "e", "n", "f", "period", "h1", "h_f", "strongly_primitive", "seed",
    }


def test_random_search_is_deterministic():
    ctx = RingContext(3, 4)
    # 3^16 candidates exceed the exhaustive limit, forcing the seeded path
    a = find_primitive(ctx, 4, search_budget=300, seed=7)
    b = find_primitive(ctx, 4, search_budget=300, seed=7)
    assert (a is None) == (b is None)
    if a is not None:
        assert a.f == b.f and a.seed == 7


def test_e1_certificate_has_no_strong_flag():
    cert = certify(RingPolynomial(Z3, (2, 2, 1)))
    assert cert.h1.is_zero()
    assert not cert.strongly_primitive


def test_lift_keeps_mod_p_primitivity():
    # primitivity over Z/9 does not promise the same coefficients stay
    # primitive over Z/27, but extraction still works on the lift
    f27 = with_exponent(FIB9, 3)
    h1 = compute_h(f27, 1)
    assert reduce_mod_p(h1).coeffs == (1, 1)
    assert poly_powmod(x_poly(f27.ctx), 8, f27) == RingPolynomial(
        f27.ctx, (1 + 3 * h1.coeff(0), 3 * h1.coeff(1))
    )


def test_primitivity_agrees_with_sympy_over_prime_fields():
    # independent oracle: over Z/p, f is primitive iff it is irreducible
    # and x^((p^n - 1)/q) != 1 mod f for every prime q dividing p^n - 1
    pytest.importorskip("sympy")
    from sympy import factorint
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_irreducible_p, gf_pow_mod

    def sympy_primitive(coeffs, p):
        dense = list(reversed(coeffs))  # sympy lists the leading coefficient first
        if not gf_irreducible_p(dense, p, ZZ):
            return False
        order = p ** (len(coeffs) - 1) - 1
        return all(gf_pow_mod([1, 0], order // q, dense, p, ZZ) != [1]
                   for q in factorint(order))

    for p, n in ((3, 2), (5, 2), (7, 2), (3, 3)):
        ctx = RingContext(p, 1)
        expected = {
            lower + (1,)
            for lower in itertools.product(range(p), repeat=n)
            if sympy_primitive(lower + (1,), p)
        }
        assert {f.coeffs for f in iter_primitive(ctx, n)} == expected
        for f in iter_monic_polys(ctx, n):
            assert _is_primitive(f) == (f.coeffs in expected)
        assert expected


# the strongly primitive generators the suites at p = 17..29 are built on,
# pinned so that a faster order computation cannot move them
STRONG_P2 = {
    17: ([3, 1, 1], 4896, [14, 1]),
    19: ([2, 1, 1], 6840, [17, 12]),
    23: ([5, 2, 1], 12144, [22, 15]),
    29: ([2, 5, 1], 24360, [11, 10]),
}


@pytest.mark.parametrize("p", sorted(STRONG_P2))
def test_strong_search_keeps_its_generators(p):
    f, period, h1 = STRONG_P2[p]
    assert certificate_to_dict(find_primitive(RingContext(p, 2), 2, strongly=True)) == {
        "p": p, "e": 2, "n": 2, "f": f, "period": period, "h1": h1, "h_f": h1,
        "strongly_primitive": True, "seed": None,
    }


# (p, e, n); (x-1)^4 over Z/3 (n = 4) has order 9, so the p-part of the
# bound is reached, and e = 3 lifts by p twice
ORDER_GRID = [(3, e, n) for e in (1, 2, 3) for n in (1, 2, 3)] + [
    (3, 1, 4), (5, 1, 3), (5, 2, 2), (7, 2, 2),
]


@pytest.mark.parametrize("p, e, n", ORDER_GRID)
def test_order_and_search_match_the_divisor_scan(p, e, n):
    ctx = RingContext(p, e)
    orders = {}
    for f in iter_monic_polys(ctx, n):
        orders[f] = order_of_x_divisor_scan(f)
        assert order_of_x(f) == orders[f] == order_of_x_bruteforce(f), f
    for strongly in (False, True):
        expected = [f for f, t in orders.items() if _qualifies(f, t, strongly)]
        assert list(iter_primitive(ctx, n, strongly)) == expected


def test_search_computes_one_mod_p_order_per_residue():
    ctx = RingContext(7, 2)
    polyring._order_mod_p.cache_clear()
    assert len(list(iter_primitive(ctx, 2))) == 384
    info = polyring._order_mod_p.cache_info()
    assert sum(1 for _ in iter_monic_polys(ctx, 2)) == 2058
    assert (info.misses, info.hits) == (42, 2058 - 42)
    assert info.maxsize is not None


def test_search_lifts_only_the_candidates_primitive_mod_p(monkeypatch):
    # 8 of the 42 unit-constant residues of degree 2 mod 7 are primitive;
    # only their 49 lifts each reach the order over Z/49
    lifted = []

    def lift(f, t):
        lifted.append(f)
        return polyring._lift_order(f, t)

    monkeypatch.setattr(primitivity, "_lift_order", lift)
    assert len(list(iter_primitive(RingContext(7, 2), 2))) == 384
    assert len(lifted) == 8 * 49
    assert all(order_of_x(reduce_mod_p(f)) == 48 for f in lifted)
