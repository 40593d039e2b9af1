import itertools
import random

import pytest
from hypothesis import given, strategies as st

from oracles import interpolate_lagrange
from residueseq.errors import InvalidInputError
from residueseq.ringcore import (
    RingContext,
    UnivariateFn,
    carry_c1,
    carry_map_poly,
    format_univariate,
    interpolate,
    padic_expand,
    parse_univariate,
)


def test_context_validation():
    RingContext(3, 2)
    with pytest.raises(InvalidInputError):
        RingContext(2, 2)
    with pytest.raises(InvalidInputError):
        RingContext(9, 1)
    with pytest.raises(InvalidInputError):
        RingContext(3, 0)
    with pytest.raises(InvalidInputError):
        RingContext(3, 21)  # 3^21 > 2^31


def test_padic_expand_examples():
    ctx = RingContext(3, 2)
    assert padic_expand(0, ctx) == (0, 0)
    assert padic_expand(5, ctx) == (2, 1)
    for p, e in ((3, 2), (5, 3), (7, 1)):
        ctx = RingContext(p, e)
        assert padic_expand(ctx.modulus - 1, ctx) == (p - 1,) * e


def test_padic_expand_rejects_noncanonical():
    ctx = RingContext(3, 2)
    with pytest.raises(InvalidInputError):
        padic_expand(9, ctx)
    with pytest.raises(InvalidInputError):
        padic_expand(-1, ctx)


@given(st.sampled_from([(3, 2), (3, 4), (5, 3), (7, 2), (11, 2)]), st.data())
def test_padic_roundtrip(pe, data):
    ctx = RingContext(*pe)
    a = data.draw(st.integers(min_value=0, max_value=ctx.modulus - 1))
    assert sum(d * ctx.p**i for i, d in enumerate(padic_expand(a, ctx))) == a


def test_carry_examples():
    assert carry_c1(2, 3) == 0
    assert carry_c1(4, 3) == 1
    assert carry_c1(8, 3) == 2


@given(st.integers(min_value=0, max_value=10**9), st.sampled_from([3, 5, 7, 11]))
def test_carry_is_second_digit(a, p):
    digits = []
    v = a
    while v:
        v, d = divmod(v, p)
        digits.append(d)
    digits += [0, 0]
    assert carry_c1(a, p) == digits[1]


def test_interpolate_examples():
    for c in range(3):
        assert interpolate([c, c, c], 3).coeffs == ((c,) if c else ())
    assert interpolate([0, 1, 2], 3).coeffs == (0, 1)
    assert interpolate([0, 1, 1], 3).coeffs == (0, 0, 1)  # table of C1(2+x)


def test_interpolate_is_bijection_for_p3():
    seen = set()
    for table in itertools.product(range(3), repeat=3):
        fn = interpolate(table, 3)
        assert fn.table() == table
        seen.add(fn.coeffs)
    assert len(seen) == 27


def test_interpolate_matches_lagrange_reference():
    # the closed form against the Lagrange-basis sum: every table at p = 3
    # and p = 5, then seeded random tables at larger p
    for p in (3, 5):
        for table in itertools.product(range(p), repeat=p):
            assert interpolate(table, p) == interpolate_lagrange(table, p), table
    rng = random.Random(11)
    for p in (7, 11, 13, 17, 19):
        for _ in range(30):
            table = [rng.randrange(p) for _ in range(p)]
            assert interpolate(table, p) == interpolate_lagrange(table, p), table


def test_interpolate_wrong_length():
    with pytest.raises(InvalidInputError):
        interpolate([0, 1], 3)


@given(st.sampled_from([3, 5, 7]), st.data())
def test_interpolate_matches_table(p, data):
    table = data.draw(st.lists(st.integers(0, p - 1), min_size=p, max_size=p))
    fn = interpolate(table, p)
    assert fn.degree < p
    assert list(fn.table()) == table


def test_carry_map_poly_examples():
    assert carry_map_poly(0, 5).coeffs == ()
    assert carry_map_poly(2, 3).coeffs == (0, 0, 1)
    assert carry_map_poly(1, 5).coeff(4) == 4


def test_carry_map_top_coefficient():
    for p in (3, 5, 7, 11):
        for u in range(p):
            assert carry_map_poly(u, p).coeff(p - 1) == (p - u) % p


def test_univariate_exponent_folding():
    # x^p acts as x, so high powers fold back below p
    g = UnivariateFn(5, (0, 0, 0, 0, 0, 1))  # x^5
    assert g.coeffs == (0, 1)
    h = UnivariateFn(3, (1, 0, 0, 2))  # 1 + 2x^3 = 1 + 2x
    assert h.coeffs == (1, 2)
    assert h.table() == tuple((1 + 2 * x) % 3 for x in range(3))


def test_univariate_format_parse():
    g = UnivariateFn(5, (1, 2, 3))
    text = format_univariate(g)
    assert text == "3x^2+2x+1"
    assert parse_univariate(text, 5) == g
    assert parse_univariate("x^2-x-1", 3).coeffs == (2, 2, 1)
    assert parse_univariate("x", 7).coeffs == (0, 1)
    assert format_univariate(UnivariateFn(3, ())) == "0"
    assert parse_univariate("0", 3).coeffs == ()
    with pytest.raises(InvalidInputError):
        parse_univariate("x+?", 3)
