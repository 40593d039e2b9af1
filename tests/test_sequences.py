import pytest

from residueseq.errors import InvalidInputError
from residueseq.ringcore import RingContext
from residueseq.polyring import RingPolynomial, with_exponent
from residueseq.primitivity import certify, iter_primitive
from residueseq.sequences import (
    alpha_sequence,
    carry_identity_check,
    dump_rows,
    generate,
    is_primitive_sequence,
    least_period,
    level,
    shift_identity_check,
    verify_recurring_identities,
)

Z9 = RingContext(3, 2)
Z3 = RingContext(3, 1)
FIB9 = RingPolynomial(Z9, (8, 8, 1))
FIB3 = RingPolynomial(Z3, (2, 2, 1))

FIB9_TERMS = (0, 1, 1, 2, 3, 5, 8, 4, 3, 7, 1, 8, 0, 8, 8, 7, 6, 4, 1, 5, 6, 2, 8, 1)
MSEQ = (0, 1, 1, 2, 0, 2, 2, 1)
ALPHA = (1, 2, 0, 2, 2, 1, 0, 1)


def test_generate_fibonacci_mod3():
    s = generate(FIB3, (0, 1))
    assert s.terms == MSEQ
    assert s.period == 8


def test_generate_fibonacci_mod9():
    s = generate(FIB9, (0, 1))
    assert s.period == 24
    assert s.terms == FIB9_TERMS
    # recurrence holds at every index, including across the wrap
    for t in range(s.period):
        assert s.at(t + 2) == (s.at(t + 1) + s.at(t)) % 9


def test_generate_zero_state():
    s = generate(FIB9, (0, 0))
    assert s.terms == (0,)
    assert s.period == 1


def test_shifted_equals_generate_from_the_rotated_state():
    # primitive and non-primitive states over Z/9, and the zero state
    # over Z/3, whose period 1 is below the degree
    for f, init in ((FIB9, (0, 1)), (FIB9, (3, 6)), (FIB9, (0, 0)), (FIB3, (0, 0)),
                    (FIB3, (2, 1))):
        s = generate(f, init)
        for r in range(-1, 2 * s.period + 1):
            assert s.shifted(r) == generate(f, s.state_at(r))


def test_generate_errors():
    with pytest.raises(InvalidInputError):
        generate(FIB9, (0, 1, 2))
    with pytest.raises(InvalidInputError):
        generate(RingPolynomial(Z9, (8, 8, 2)), (0, 1))   # not monic
    with pytest.raises(InvalidInputError):
        generate(RingPolynomial(Z9, (3, 0, 1)), (0, 1))   # f(0) not a unit


def test_least_period():
    assert least_period([1, 2, 1, 2, 1, 2]) == 2
    assert least_period([0]) == 1
    assert least_period([1, 2, 3]) == 3


def test_levels():
    s = generate(FIB9, (0, 1))
    a0 = level(s, 0)
    assert a0.terms == MSEQ
    assert a0.period == 8
    a1 = level(s, 1)
    assert a1.period == 24
    assert a1.terms == tuple(v // 3 for v in FIB9_TERMS)
    with pytest.raises(InvalidInputError):
        level(s, 2)


def test_level_of_scaled_msequence():
    # 3 * (m-sequence lift): level 1 recovers the m-sequence itself
    s = generate(FIB9, (0, 3))
    assert level(s, 0).is_zero()
    assert level(s, 1).terms == MSEQ


def test_is_primitive_sequence():
    cert = certify(FIB9)
    assert is_primitive_sequence(generate(FIB9, (0, 1)), cert)
    assert not is_primitive_sequence(generate(FIB9, (0, 0)), cert)
    assert not is_primitive_sequence(generate(FIB9, (3, 6)), cert)
    with pytest.raises(InvalidInputError):
        is_primitive_sequence(generate(RingPolynomial(Z9, (2, 1, 1)), (0, 1)), cert)


def test_alpha_sequence():
    cert = certify(FIB9)
    s = generate(FIB9, (0, 1))
    alpha = alpha_sequence(s, cert)
    assert alpha.terms == ALPHA
    # alpha satisfies the same recurrence mod p, so it is an m-sequence
    for t in range(alpha.period):
        assert alpha.at(t + 2) == (alpha.at(t + 1) + alpha.at(t)) % 3
    with pytest.raises(InvalidInputError):
        alpha_sequence(generate(FIB9, (3, 6)), cert)


def test_alpha_constant_hf_scales_level0():
    weak = next(
        f for f in iter_primitive(Z9, 2)
        if certify(f).h_f.degree == 0
    )
    cert = certify(weak)
    c = cert.h_f.coeff(0)
    s = generate(weak, (0, 1))
    alpha = alpha_sequence(s, cert)
    a0 = level(s, 0)
    assert all(alpha.at(t) == c * a0.at(t) % 3 for t in range(24))


def test_alpha_commutes_with_shift():
    cert = certify(FIB9)
    s = generate(FIB9, (0, 1))
    shifted = generate(FIB9, s.state_at(1))
    a, b = alpha_sequence(s, cert), alpha_sequence(shifted, cert)
    assert all(b.at(t) == a.at(t + 1) for t in range(24))


def test_shift_identity_j0_and_all_j():
    cert = certify(FIB9)
    s = generate(FIB9, (0, 1))
    for j in range(3):
        assert shift_identity_check(s, cert, j) is None


def test_shift_identity_all_primitive_states():
    for f in iter_primitive(Z9, 2):
        cert = certify(f)
        for s0 in range(9):
            for s1 in range(9):
                if s0 % 3 == 0 and s1 % 3 == 0:
                    continue
                s = generate(f, (s0, s1))
                for j in range(3):
                    assert shift_identity_check(s, cert, j) is None


def test_carry_identity_e3():
    f27 = with_exponent(FIB9, 3)
    cert = certify(f27)
    s = generate(f27, (0, 1))
    assert s.period == 72
    for j in range(3):
        assert carry_identity_check(s, cert, j) is None
        assert verify_recurring_identities(s, cert, j)
    with pytest.raises(InvalidInputError):
        carry_identity_check(generate(FIB9, (0, 1)), certify(FIB9), 1)


def test_dump_rows_columns():
    cert = certify(FIB9)
    s = generate(FIB9, (0, 1))
    rows = list(dump_rows(s))
    assert rows[0] == ["t", "a", "a0", "a1"]
    assert len(rows) == 25
    assert rows[1] == [0, 0, 0, 0]
    alpha = alpha_sequence(s, cert)
    rows = list(dump_rows(s, alpha=alpha))
    assert rows[0][-1] == "alpha"
    assert rows[1][-1] == 1
