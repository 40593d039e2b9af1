import itertools
import random

import pytest

from oracles import from_table_per_point, psi_zw_expanded, value_table_by_eval_map
from residueseq.errors import InvalidInputError
from residueseq.ringcore import RingContext, UnivariateFn, interpolate
from residueseq.polyring import RingPolynomial
from residueseq.sequences import generate, level
from residueseq.compress import (
    CompressingMap,
    MultivariatePoly,
    compress_sequence,
    eval_map,
    format_multipoly,
    from_table,
    image_set,
    is_permutation,
    multipoly_from_json,
    multipoly_to_json,
    parse_multipoly,
    psi_zw,
    value_table,
    zero_poly,
)

Z9 = RingContext(3, 2)
FIB9 = RingPolynomial(Z9, (8, 8, 1))


def test_canonical_reduction():
    # x0^3 folds to x0, matching coefficients combine, zeros vanish
    m = MultivariatePoly(3, 2, {(3, 0): 1, (1, 0): 2, (0, 2): 0})
    assert m.coeffs == {}
    m = MultivariatePoly(3, 1, {(4,): 1})
    assert m.coeffs == {(2,): 1}
    with pytest.raises(InvalidInputError):
        MultivariatePoly(3, 1, {(-1,): 1})  # not folded to x0


def test_from_table_reproduces_table():
    rng = random.Random(1)
    for p, arity in ((3, 1), (3, 2), (3, 3), (5, 1), (5, 2)):
        for _ in range(5):
            table = [rng.randrange(p) for _ in range(p**arity)]
            poly = from_table(p, arity, table)
            assert list(poly.table()) == table
            assert all(max(e) <= p - 1 for e in poly.coeffs) or not poly.coeffs


def test_from_table_matches_per_point_reference():
    # all-zero, constant, seeded random and single-nonzero tables (one per
    # position) against the per-point tensor loop
    rng = random.Random(3)
    for p, arity in ((3, 0), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2)):
        size = p**arity
        tables = [[0] * size, [rng.randrange(1, p)] * size]
        tables += [[rng.randrange(p) for _ in range(size)] for _ in range(4)]
        tables += [[rng.randrange(1, p) if j == i else 0 for j in range(size)]
                   for i in range(size)]
        for table in tables:
            assert from_table(p, arity, table) == from_table_per_point(p, arity, table), (
                p, arity, table)


def test_from_table_exhaustive_arity1():
    seen = set()
    for table in itertools.product(range(3), repeat=3):
        poly = from_table(3, 1, table)
        assert poly.table() == table
        seen.add(tuple(sorted(poly.coeffs.items())))
    assert len(seen) == 27


def test_psi_zw_examples():
    assert psi_zw(3, 2, 2, 2) == MultivariatePoly(3, 1, {(0,): 2})
    m = psi_zw(3, 2, 1, 2)
    assert m.coeffs == {(0,): 1, (2,): 1}  # x0^2 + 1
    assert m.table() == (1, 2, 2)
    m = psi_zw(3, 3, 0, 1)
    assert [pt for pt in itertools.product(range(3), repeat=2) if m(pt) == 0] == [(0, 0)]
    with pytest.raises(InvalidInputError):
        psi_zw(3, 1, 0, 1)  # no lower level to mask


def test_psi_zw_matches_interpolated_table():
    # psi_zw is interpolated from its table; the reference expands
    # (z - w) * prod(1 - x_i^(p-1)) + w instead
    for p, e in ((3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)):
        for z in range(p):
            for w in range(p):
                direct = psi_zw(p, e, z, w)
                table = tuple(
                    z if all(c == 0 for c in pt) else w
                    for pt in itertools.product(range(p), repeat=e - 1)
                )
                assert direct.table() == table
                assert direct == psi_zw_expanded(p, e, z, w), (p, e, z, w)


def test_image_and_permutation():
    assert image_set(UnivariateFn(5, (0, 1))) == {0, 1, 2, 3, 4}
    assert is_permutation(UnivariateFn(5, (0, 1)))
    assert image_set(UnivariateFn(7, (0, 0, 1))) == {0, 1, 2, 4}
    assert image_set(UnivariateFn(5, (0, 0, 1))) == {0, 1, 4}
    assert not is_permutation(UnivariateFn(5, (0, 0, 1)))


def test_full_monomial_coefficient():
    # the coefficient of the all-(p-1) exponent tuple
    assert psi_zw(3, 2, 1, 2).coeff((2,)) == 1  # w - z
    assert zero_poly(3, 1).coeff((2,)) == 0
    # the uniformity threshold value for p = 3, e = 2
    assert (-1) ** 2 * (3 + 1) // 2 % 3 == 2


def test_eval_map():
    g = UnivariateFn(3, (0, 1))
    m = CompressingMap(g=g, eta=zero_poly(3, 1), e=2)
    assert eval_map(m, (2, 1)) == 1
    g2 = UnivariateFn(3, (0, 0, 1))
    m2 = CompressingMap(g=g2, eta=zero_poly(3, 1), e=2)
    assert eval_map(m2, (0, 2)) == 1
    m3 = CompressingMap(g=g, eta=psi_zw(3, 2, 1, 2), e=2)
    assert eval_map(m3, (0, 2)) == 0  # g(2) + z = 2 + 1
    with pytest.raises(InvalidInputError):
        eval_map(m, (1, 1, 1))
    with pytest.raises(InvalidInputError):
        eval_map(m, (1, 3))


def test_map_validation():
    with pytest.raises(InvalidInputError):
        CompressingMap(g=UnivariateFn(3, (5,)), eta=zero_poly(3, 1), e=2)
    with pytest.raises(InvalidInputError):
        CompressingMap(g=UnivariateFn(3, (0, 1)), eta=zero_poly(3, 2), e=2)
    with pytest.raises(InvalidInputError):
        CompressingMap(g=UnivariateFn(5, (0, 1)), eta=zero_poly(3, 1), e=2)


def test_compress_sequence():
    s = generate(FIB9, (0, 1))
    g = UnivariateFn(3, (0, 1))
    m = CompressingMap(g=g, eta=zero_poly(3, 1), e=2)
    assert compress_sequence(m, s) == level(s, 1)

    zero = generate(FIB9, (0, 0))
    m17 = CompressingMap(g=g, eta=psi_zw(3, 2, 1, 2), e=2)
    assert compress_sequence(m17, zero).terms == bytes((1,))  # phi(0, 0) = z

    eta_sq = from_table(3, 1, [x * x % 3 for x in range(3)])
    msq = CompressingMap(g=g, eta=eta_sq, e=2)
    got = compress_sequence(msq, s)
    a0, a1 = level(s, 0), level(s, 1)
    assert all(got.at(t) == (a1.at(t) + a0.at(t) ** 2) % 3 for t in range(24))


def test_top_digit_degree_matches_g():
    # freezing the lower digits leaves a shifted copy of g in the top one
    g = UnivariateFn(5, (1, 3, 0, 2))
    eta = from_table(5, 1, [2, 0, 1, 4, 4])
    m = CompressingMap(g=g, eta=eta, e=2)
    for lower in range(5):
        table = [eval_map(m, (lower, top)) for top in range(5)]
        assert interpolate(table, 5).degree == g.degree


def test_value_table_matches_eval():
    m = CompressingMap(g=UnivariateFn(3, (0, 0, 1)), eta=psi_zw(3, 2, 0, 1), e=2)
    table = value_table(m, Z9)
    for v in range(9):
        assert table[v] == eval_map(m, (v % 3, v // 3))
    with pytest.raises(InvalidInputError):
        value_table(m, RingContext(3, 3))


@pytest.mark.parametrize("p, e", [(3, 2), (3, 3), (5, 2), (5, 3), (7, 2), (3, 4)])
def test_value_table_matches_the_eval_map_table(p, e):
    # the tables of g and eta, read by digit, against eval_map per residue
    rng = random.Random(p * 10 + e)
    ctx = RingContext(p, e)
    for _ in range(30):
        deg = rng.randrange(1, p)
        g = UnivariateFn(p, tuple(rng.randrange(p) for _ in range(deg)) + (rng.randrange(1, p),))
        eta = from_table(p, e - 1, [rng.randrange(p) for _ in range(p ** (e - 1))])
        m = CompressingMap(g=g, eta=eta, e=e)
        assert value_table(m, ctx) == value_table_by_eval_map(m, ctx)


def test_text_format_roundtrip():
    m = MultivariatePoly(3, 2, {(2, 0): 2, (0, 0): 1})
    text = format_multipoly(m)
    assert text == "p=3 vars=2; 2:(2,0) 1:(0,0)"
    assert parse_multipoly(text) == m
    zero = zero_poly(3, 2)
    assert format_multipoly(zero) == "p=3 vars=2; 0"
    assert parse_multipoly(format_multipoly(zero)) == zero
    with pytest.raises(InvalidInputError):
        parse_multipoly("p=3 vars=2; 2:2,0")


def test_json_table_roundtrip():
    m = psi_zw(3, 3, 1, 2)
    text = multipoly_to_json(m)
    assert multipoly_from_json(text) == m
    assert multipoly_to_json(multipoly_from_json(text)) == text
