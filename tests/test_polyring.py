import itertools

import pytest
from hypothesis import given, settings, strategies as st

from oracles import order_of_x_bruteforce
from residueseq.errors import InvalidInputError
from residueseq.ringcore import RingContext
from residueseq.polyring import (
    RingPolynomial,
    apply_poly_to_sequence,
    format_poly_spec,
    one,
    order_of_x,
    parse_poly_spec,
    poly_mulmod,
    poly_powmod,
    reduce_mod_p,
    ward_bound,
    with_exponent,
    x_poly,
)

Z9 = RingContext(3, 2)
Z3 = RingContext(3, 1)
FIB9 = RingPolynomial(Z9, (8, 8, 1))  # x^2 - x - 1 over Z/9


def slow_mulmod(a, b, f):
    # independent schoolbook oracle: convolve, then long-divide by monic f
    m = f.ctx.modulus
    n = f.degree
    prod = [0] * (max(a.degree + b.degree + 1, 1))
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            prod[i + j] = (prod[i + j] + ai * bj) % m
    for k in range(len(prod) - 1, n - 1, -1):
        c = prod[k]
        prod[k] = 0
        for i in range(n + 1):
            prod[k - n + i] = (prod[k - n + i] - c * f.coeff(i)) % m
    return RingPolynomial(f.ctx, tuple(prod[:n]))


def test_canonical_form():
    assert RingPolynomial(Z9, (1, 0, 0)).coeffs == (1,)
    assert RingPolynomial(Z9, (10, -1)).coeffs == (1, 8)
    assert RingPolynomial(Z9, ()).is_zero()
    assert RingPolynomial(Z9, (0,)).degree == -1


def test_mulmod_examples():
    x = x_poly(Z9)
    xp1 = RingPolynomial(Z9, (1, 1))
    assert poly_mulmod(one(Z9), xp1, FIB9) == xp1
    assert poly_mulmod(x, x, FIB9) == RingPolynomial(Z9, (1, 1))
    assert poly_mulmod(xp1, xp1, FIB9) == RingPolynomial(Z9, (2, 3))


def test_mulmod_rejects_mismatched_context():
    with pytest.raises(InvalidInputError):
        poly_mulmod(x_poly(Z3), x_poly(Z9), FIB9)


@settings(max_examples=200)
@given(st.data())
def test_mulmod_matches_schoolbook_oracle(data):
    coeffs = st.lists(st.integers(0, 8), min_size=0, max_size=2)
    a = RingPolynomial(Z9, tuple(data.draw(coeffs)))
    b = RingPolynomial(Z9, tuple(data.draw(coeffs)))
    assert poly_mulmod(a, b, FIB9) == slow_mulmod(a, b, FIB9)


def test_powmod_examples():
    x = x_poly(Z9)
    assert poly_powmod(x, 0, FIB9) == one(Z9)
    assert poly_powmod(x, 1, FIB9) == x
    # x^8 mod f: 3x + 4; its mod-3 reduction is 1, as the period-8 order
    # over Z/3 demands
    r = poly_powmod(x, 8, FIB9)
    assert r == RingPolynomial(Z9, (4, 3))
    assert reduce_mod_p(r) == one(Z3)


def test_powmod_matches_repeated_multiplication():
    x = x_poly(Z9)
    acc = one(Z9)
    for k in range(30):
        assert poly_powmod(x, k, FIB9) == acc
        acc = poly_mulmod(acc, x, FIB9)


def test_order_examples():
    assert order_of_x(RingPolynomial(Z3, (2, 2, 1))) == 8
    assert order_of_x(FIB9) == 24
    assert order_of_x(RingPolynomial(Z3, (2, 1))) == 1  # x - 1
    assert order_of_x(RingPolynomial(Z3, (1, 1))) == 2  # x - 2


def test_order_requires_unit_constant():
    with pytest.raises(InvalidInputError):
        order_of_x(RingPolynomial(Z9, (3, 0, 1)))


def test_order_handles_repeated_factors():
    # f = (x-1)^2 mod 3 has order 3, which does not divide 3^2 - 1
    f = RingPolynomial(Z3, (1, 1, 1))
    assert order_of_x(f) == 3
    assert order_of_x_bruteforce(f) == 3


def all_candidates_z9():
    for c0, c1 in itertools.product(range(9), repeat=2):
        if c0 % 3:
            yield RingPolynomial(Z9, (c0, c1, 1))


def test_order_minimality_and_ward_bound():
    x = x_poly(Z9)
    for f in all_candidates_z9():
        t = order_of_x(f)
        assert t <= ward_bound(f)
        assert poly_powmod(x, t, f) == one(Z9)
        for d in range(1, t):
            if t % d == 0:
                assert poly_powmod(x, d, f) != one(Z9)


def test_order_lift_chain():
    for f in all_candidates_z9():
        t1 = order_of_x(reduce_mod_p(f))
        assert order_of_x(f) in (t1, 3 * t1)


def test_apply_poly_examples():
    mseq = [0, 1, 1, 2, 0, 2, 2, 1]
    assert apply_poly_to_sequence(one(Z3), mseq, period=8) == mseq
    assert apply_poly_to_sequence(x_poly(Z3), mseq, period=8) == mseq[1:] + mseq[:1]
    got = apply_poly_to_sequence(RingPolynomial(Z3, (1, 1)), mseq, period=8)
    assert got == [1, 2, 0, 2, 2, 1, 0, 1]


def test_apply_poly_linearity():
    g = RingPolynomial(Z9, (2, 5, 1))
    s = [1, 4, 7, 2, 0, 8]
    t = [3, 3, 1, 6, 5, 2]
    both = [(a + b) % 9 for a, b in zip(s, t)]
    lhs = apply_poly_to_sequence(g, both, period=6)
    rhs = [
        (a + b) % 9
        for a, b in zip(
            apply_poly_to_sequence(g, s, period=6),
            apply_poly_to_sequence(g, t, period=6),
        )
    ]
    assert lhs == rhs


def test_with_exponent():
    f27 = with_exponent(FIB9, 3)
    assert f27.ctx.modulus == 27
    assert f27.coeffs == (8, 8, 1)
    assert with_exponent(f27, 2) == FIB9
    assert reduce_mod_p(FIB9).coeffs == (2, 2, 1)


def test_poly_spec_roundtrip():
    text = "p=3 e=2; f=8,8,1"
    f = parse_poly_spec(text)
    assert f == FIB9
    assert format_poly_spec(f) == text
    zero = RingPolynomial(Z9, ())
    assert parse_poly_spec(format_poly_spec(zero)) == zero
    for bad in ("p=3; f=1", "p=3 e=2; g=1", "p=3 e=2; f=9,1", "nonsense"):
        with pytest.raises(InvalidInputError):
            parse_poly_spec(bad)
