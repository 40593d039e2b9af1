import functools
import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import (
    apply_mod_p_per_term,
    generate_by_tuple_state,
    generate_loop,
    identity_failure_per_j,
    identity_failure_per_term,
    is_primitive_sequence_per_term,
    least_period_divisor_scan,
    unit_rows,
)
from residueseq import sequences
from residueseq.analysis import _lex_reps, _sample_primitive_states
from residueseq.compress import CompressingMap, compress_sequence, zero_poly
from residueseq.errors import InvalidInputError
from residueseq.ringcore import RingContext, UnivariateFn
from residueseq.polyring import RingPolynomial, one, with_exponent
from residueseq.primitivity import certify, find_primitive, iter_primitive
from residueseq.sequences import (
    _basis,
    _digits,
    alpha_sequence,
    apply_mod_p,
    dump_rows,
    generate,
    identity_failure,
    is_primitive_sequence,
    least_period,
    level,
    level_sequence,
)

Z9 = RingContext(3, 2)
Z3 = RingContext(3, 1)
FIB9 = RingPolynomial(Z9, (8, 8, 1))
FIB3 = RingPolynomial(Z3, (2, 2, 1))

# terms mod 9 and mod 3 are stored as bytes
FIB9_TERMS = bytes((0, 1, 1, 2, 3, 5, 8, 4, 3, 7, 1, 8, 0, 8, 8, 7, 6, 4, 1, 5, 6, 2, 8, 1))
MSEQ = bytes((0, 1, 1, 2, 0, 2, 2, 1))
ALPHA = bytes((1, 2, 0, 2, 2, 1, 0, 1))


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
    assert s.terms == bytes((0,))
    assert s.period == 1


def test_shifted_equals_generate_from_the_rotated_state():
    # primitive and non-primitive states over Z/9, and the zero state
    # over Z/3, whose period 1 is below the degree
    for f, init in ((FIB9, (0, 1)), (FIB9, (3, 6)), (FIB9, (0, 0)), (FIB3, (0, 0)),
                    (FIB3, (2, 1))):
        s = generate(f, init)
        for r in range(-1, 2 * s.period + 1):
            assert s.shifted(r) == generate(f, s.state_at(r))


def test_rotated_levels_and_alpha_are_those_of_the_rotated_sequence():
    # least periods are rotation-invariant, so rotating a level or alpha
    # gives the level or alpha of the shifted sequence, at every r
    for f in (FIB9, next(f for f in iter_primitive(RingContext(3, 3), 2))):
        cert = certify(f)
        s = generate(f, (0, 1))
        a, top = alpha_sequence(s, cert), level(s, f.ctx.e - 1)
        for r in range(-1, 2 * s.period + 1):
            assert a.shifted(r) == alpha_sequence(s.shifted(r), cert)
            assert top.shifted(r) == level(s.shifted(r), f.ctx.e - 1)


# rings (p, e, n) small enough for the tuple-state oracle
KERNEL_RINGS = [(p, e, n) for p in (3, 5, 7, 11, 13) for e in range(1, 5) for n in range(1, 5)
                if p ** (e * n) <= 3**8]


@functools.lru_cache(maxsize=None)
def _first_primitive(p, e, n):
    return find_primitive(RingContext(p, e), n).f


@settings(max_examples=100, deadline=None)
@given(ring=st.sampled_from(KERNEL_RINGS), primitive=st.booleans(), data=st.data())
def test_generate_matches_the_tuple_state_oracle(ring, primitive, data):
    p, e, n = ring
    ctx = RingContext(p, e)
    m = ctx.modulus
    residues = st.lists(st.integers(0, m - 1), min_size=n, max_size=n)
    if primitive:
        f = _first_primitive(p, e, n)
    else:  # monic with a unit constant term, primitive or not
        f = RingPolynomial(ctx, tuple(data.draw(residues.filter(lambda c: c[0] % p))) + (1,))
    for state in ((0,) * n, (m - 1,) * n, tuple(data.draw(residues))):
        assert generate(f, state) == generate_by_tuple_state(f, state)
    # every recurrence coefficient m - 1 on every entry m - 1: each slot of
    # the packed product takes its largest sum, n * (m - 1)^2
    ones = RingPolynomial(ctx, (1,) * (n + 1))
    assert generate(ones, (m - 1,) * n) == generate_by_tuple_state(ones, (m - 1,) * n)


# every (p, e, n) in {3, 5, 7} x {1, 2, 3} x {1, 2, 3}, one n = 4, the moduli
# 243 and 289 on either side of 256, where generate stops reading one byte per
# slot, and p = 65537, where no native slot holds the combination and generate
# walks the terms
BASIS_RINGS = [(p, e, n) for p in (3, 5, 7) for e in (1, 2, 3) for n in (1, 2, 3)]
BASIS_RINGS += [(3, 2, 4), (3, 5, 2), (17, 2, 2), (65537, 1, 1)]


@pytest.mark.parametrize("p,e,n", BASIS_RINGS)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_generate_matches_the_term_loop(p, e, n, data):
    ctx = RingContext(p, e)
    m = ctx.modulus
    residues = st.lists(st.integers(0, m - 1), min_size=n, max_size=n)
    # monic with a unit constant term, primitive or not
    f = RingPolynomial(ctx, tuple(data.draw(residues.filter(lambda c: c[0] % p))) + (1,))
    zero_mod_p = tuple(p * v % m for v in data.draw(residues))
    for state in ((0,) * n, zero_mod_p, (m - 1,) * n, tuple(data.draw(residues))):
        assert generate(f, state) == generate_loop(f, state)


@pytest.mark.parametrize("p,e,n", BASIS_RINGS)
def test_first_class_is_the_generated_impulse_sequence(p, e, n):
    # _lex_reps walks the class through (0, ..., 0, 1) and builds no
    # _basis; it is the sequence generate gives from that state, in the
    # same store (bytes to p^e = 256, an array above, 65537 with no slot)
    f = _first_primitive(p, e, n)
    impulse = (0,) * (n - 1) + (1,)
    sequences._basis.cache_clear()
    walked = next(_lex_reps(f))
    assert sequences._basis.cache_info().currsize == 0
    generated = generate(f, impulse)
    assert walked == generated
    assert type(walked.terms) is type(generated.terms) is (bytes if p**e <= 256 else array)
    assert (walked.period, walked.initial_state) == (generated.period, impulse)


@pytest.mark.parametrize("p,e,n", [r for r in BASIS_RINGS if r[0] != 65537])
def test_basis_rows_match_the_list_back_substitution(p, e, n):
    # the packed rows of _basis, read slot t at bits t*w, are the unit-state
    # sequences E_k over one period of the impulse: those of the list
    # back-substitution and those generate_loop walks from each unit state
    ctx = RingContext(p, e)
    m = ctx.modulus
    rng = random.Random(100 * p + 10 * e + n)
    fs = [_first_primitive(p, e, n)]
    for _ in range(2):  # monic with a unit constant term, primitive or not
        unit = rng.choice([c for c in range(m) if c % p])
        fs.append(RingPolynomial(ctx, (unit, *(rng.randrange(m) for _ in range(n - 1)), 1)))
    for f in fs:
        typecode, nbytes, units = _basis(f)[:3]
        w = 8 * array(typecode).itemsize
        rows = [[row >> t * w & (1 << w) - 1 for t in range(8 * nbytes // w)] for row in units]
        assert rows == unit_rows(f)
        for k, row in enumerate(rows):
            seq = generate_loop(f, tuple(int(i == k) for i in range(n)))
            assert row == [seq.at(t) for t in range(len(row))]


@pytest.mark.parametrize("p,e,n,size", [(3, 1, 1, 1), (3, 2, 2, 2), (7, 2, 2, 4),
                                        (7, 3, 3, 8), (3, 5, 3, 8), (65537, 1, 1, None)])
def test_generate_slot_widths_and_barrett_step(p, e, n, size):
    # the narrowest native slot that holds n*(m-1)^2 * mu, or none; one
    # Barrett step gives x // m for every slot value x up to n*(m-1)^2. At
    # p^e = 243 the 8-byte slots are read one low byte at stride 8
    f = _first_primitive(p, e, n)
    m = f.ctx.modulus
    basis = _basis(f)
    assert (basis and array(basis[0]).itemsize) == size
    if basis is not None:
        bound, mu, shift = n * (m - 1) ** 2, basis[3], basis[4]
        xs = range(bound + 1) if bound < 10**6 else [*range(10**4), *range(bound - 10**4, bound + 1)]
        assert all(x * mu >> shift == x // m for x in xs)
        assert bound * mu >> 8 * size == 0
    state = tuple(range(m - n, m))
    assert generate(f, state) == generate_loop(f, state)


def test_generate_errors():
    # a non-generator f is rejected by the shared check, tested in test_primitivity
    with pytest.raises(InvalidInputError):
        generate(FIB9, (0, 1, 2))


def test_least_period():
    assert least_period([1, 2, 1, 2, 1, 2]) == 2
    assert least_period([0]) == 1
    assert least_period([1, 2, 3]) == 3


@pytest.mark.parametrize("length", [0, 1, 2, 3, 5, 7, 11, 13, 16, 27, 49, 48, 336])
def test_least_period_matches_the_divisor_scan(length):
    rng = random.Random(length)
    divisors = [d for d in range(1, length + 1) if length % d == 0]
    cases = [[7] * length]
    for d in divisors:
        # a small alphabet often repeats inside the block, a large one rarely
        for symbols in (2, 3, 1000):
            cases.append([rng.randrange(symbols) for _ in range(d)] * (length // d))
        for q in divisors:
            if q > 1 and d * q in divisors:
                # the period q*d holds and d does not: the one marker in each
                # q*d block is the only term that breaks the d-fold repeat
                block = [rng.randrange(3) for _ in range(d)] * q
                block[-1] = -1
                cases.append(block * (length // (d * q)))
                assert least_period(cases[-1]) == d * q
    for values in cases:
        assert least_period(values) == least_period_divisor_scan(values), values


# 3^5 = 243 translates the terms as bytes, 17^2 = 289 reads a table per term
@pytest.mark.parametrize("p,e,n", [(3, 3, 2), (7, 2, 2), (17, 2, 2), (3, 5, 2)])
def test_level_matches_the_digit_comprehension(p, e, n):
    ctx = RingContext(p, e)
    f = _first_primitive(p, e, n)
    m = ctx.modulus
    rng = random.Random(p * 100 + e)
    states = [(0,) * n, (1,) + (0,) * (n - 1), (p,) + (0,) * (n - 1), (m - 1,) * n]
    states += [tuple(rng.randrange(m) for _ in range(n)) for _ in range(3)]
    assert isinstance(_digits(p, e, 0), bytes) == (m <= 256)
    for state in states:
        s = generate(f, state)
        for i in range(e):
            digits = [(v // p**i) % p for v in s.terms]
            d = least_period_divisor_scan(digits)
            lvl = level(s, i)
            assert (lvl.p, lvl.terms, lvl.period) == (p, bytes(digits[:d]), d)
            assert lvl == level_sequence(p, [v // p**i % p for v in s.terms])


def test_levels():
    s = generate(FIB9, (0, 1))
    a0 = level(s, 0)
    assert a0.terms == MSEQ
    assert a0.period == 8
    a1 = level(s, 1)
    assert a1.period == 24
    assert a1.terms == bytes(v // 3 for v in FIB9_TERMS)
    with pytest.raises(InvalidInputError):
        level(s, 2)


# m = 9 and p = 3 store bytes; m = 289 an array and p = 17 bytes; m = 257^2,
# past every native slot of _basis so generate walks, and p = 257 arrays
@pytest.mark.parametrize("p,e,coeffs", [(3, 2, (8, 8, 1)), (17, 2, (3, 1, 1)),
                                        (257, 2, (257**2 - 3, 1))])
def test_every_producer_stores_the_same_values_alike(p, e, coeffs):
    def stored(modulus):
        return bytes if modulus <= 256 else array

    f = RingPolynomial(RingContext(p, e), coeffs)
    fp = RingPolynomial(RingContext(p, 1), tuple(c % p for c in coeffs))
    init = (0,) * (f.degree - 1) + (1,)
    s = generate(f, init)
    assert type(s.terms) is stored(p**e)
    a0, top = level(s, 0), level(s, e - 1)
    top_map = CompressingMap(g=UnivariateFn(p, (0, 1)), eta=zero_poly(p, e - 1), e=e)
    # level 0 is the sequence of f mod p from init mod p; phi = x_(e-1) is the top level
    lows = [generate(fp, init).terms, a0.terms, level_sequence(p, [v % p for v in s.terms]).terms,
            apply_mod_p(one(fp.ctx), a0).terms]
    tops = [top.terms, level_sequence(p, [v // p ** (e - 1) for v in s.terms]).terms,
            apply_mod_p(one(fp.ctx), top).terms, compress_sequence(top_map, s).terms]
    for same in (lows, tops):
        assert all(terms == same[0] for terms in same)
        assert {type(terms) for terms in same} == {stored(p)}
    assert a0.period == p**f.degree - 1  # f mod p is primitive: no short cycle


@pytest.mark.parametrize("p,coeffs", [(3, (8, 8, 1)), (17, (3, 1, 1))])
def test_sequences_are_unhashable_whatever_their_store(p, coeffs):
    # m = 9 stores bytes and m = 289 an array: neither hashes, both compare
    f = RingPolynomial(RingContext(p, 2), coeffs)
    s, again = generate(f, (0, 1)), generate(f, (0, 1))
    a, a_again = level(s, 1), level(again, 1)
    for seq, same in ((s, again), (a, a_again)):
        with pytest.raises(TypeError):
            hash(seq)
        assert seq == same and seq is not same


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
    assert identity_failure(generate(FIB9, (0, 1)), cert) is None
    with pytest.raises(InvalidInputError, match="needs e >= 2"):
        identity_failure(generate(FIB3, (0, 1)), certify(FIB3))
    with pytest.raises(InvalidInputError, match="only defined for primitive"):
        identity_failure(generate(FIB9, (3, 6)), cert)


def test_shift_identity_all_primitive_states():
    for f in iter_primitive(Z9, 2):
        cert = certify(f)
        for s0 in range(9):
            for s1 in range(9):
                if s0 % 3 == 0 and s1 % 3 == 0:
                    continue
                assert identity_failure(generate(f, (s0, s1)), cert) is None


def test_carry_identity_e3():
    f27 = with_exponent(FIB9, 3)
    cert = certify(f27)
    s = generate(f27, (0, 1))
    assert s.period == 72
    assert identity_failure(s, cert) is None
    with pytest.raises(InvalidInputError):
        identity_failure(s, certify(FIB9))


def _h_f_plus_one(cert):
    h = cert.h_f
    return cert._replace(h_f=RingPolynomial(h.ctx, (h.coeff(0) + 1,) + h.coeffs[1:]))


def _period_times_p_plus_one(cert):
    return cert._replace(T=(cert.f.ctx.p + 1) * cert.T)


@pytest.mark.parametrize("p,e", [(3, 2), (3, 3), (3, 4), (5, 3)])
def test_identity_failure_matches_per_j_checks(p, e):
    """One pass over j gives the per-j checks' first failure, when both
    identities hold, when the shift identity breaks (alpha off by a_0) and
    when only the carry identity breaks (T scaled by p + 1 moves the
    top-level shift by whole periods, not the carry shift)."""
    ctx = RingContext(p, e)
    genuine = find_primitive(ctx, 2)
    states = _sample_primitive_states(ctx, 2, 3, random.Random(p * 10 + e))
    expected = [(genuine, None), (_h_f_plus_one(genuine), (1, "shift")),
                (_period_times_p_plus_one(genuine), (1, "carry") if e >= 3 else None)]
    for cert, outcome in expected:
        for state in states:
            s = generate(genuine.f, state)
            got = identity_failure(s, cert)
            assert got == identity_failure_per_j(s, cert)
            assert (got[:2] if got else None) == outcome


# the primes of the stream tests: two residues sum within a byte up to 128,
# level terms are bytes up to 256
STREAM_PRIMES = (3, 5, 7, 131, 257)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(STREAM_PRIMES), st.data())
def test_apply_mod_p_matches_the_per_term_oracle(p, data):
    # coefficients mod p^2 and past the period, which wrap
    terms = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=24))
    coeffs = data.draw(st.lists(st.integers(0, p * p - 1), max_size=30))
    g, lvl = RingPolynomial(RingContext(p, 2), coeffs), level_sequence(p, terms)
    got = apply_mod_p(g, lvl)
    assert got == apply_mod_p_per_term(g, lvl)
    assert type(got.terms) is type(lvl.terms)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(STREAM_PRIMES), st.data())
def test_stream_sums_and_carries_match_the_per_term_arithmetic(p, data):
    # the carry identity's terms: sums mod p and the carry out of digit 0,
    # added as ints while a byte holds them and by map chains past p = 128,
    # which no identity ring of the tests reaches with e >= 3
    size = data.draw(st.integers(1, 24))
    rows = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=size, max_size=size),
                              min_size=2, max_size=6))
    streams = [sequences._store(row, p) for row in rows]
    sums = sequences._sum_mod(streams, p)
    carries = sequences._carries(streams[0], streams[1], p)
    assert list(sums) == [sum(column) % p for column in zip(*rows)]
    assert list(carries) == [int(x + y >= p) for x, y in zip(rows[0], rows[1])]
    assert type(sums) is type(carries) is type(streams[0])


@pytest.mark.parametrize("p", [3, 5, 7, 127, 131])
def test_apply_mod_p_folds_more_residues_than_a_byte_holds(p):
    # 300 nonzero coefficients: past 255 // (p - 1) residues a byte, the
    # partial sums are reduced before the next is added
    rng = random.Random(p)
    g = RingPolynomial(RingContext(p, 2), [rng.randrange(1, p) for _ in range(300)] + [1])
    lvl = level_sequence(p, [rng.randrange(p) for _ in range(40)])
    assert apply_mod_p(g, lvl) == apply_mod_p_per_term(g, lvl)


@pytest.mark.parametrize("p,e,n", [(3, 2, 2), (5, 3, 1), (17, 2, 1), (131, 2, 1)])
def test_is_primitive_sequence_matches_the_per_term_oracle(p, e, n):
    # bytes terms (m <= 256) and array terms, on states that are zero mod p
    # and states that are not
    cert = find_primitive(RingContext(p, e), n)
    zero = (0,) * n
    for state in (zero, (p,) + zero[1:], zero[1:] + (p * (p - 1),), zero[1:] + (1,), (p + 1,) + zero[1:]):
        s = generate(cert.f, state)
        assert is_primitive_sequence(s, cert) == is_primitive_sequence_per_term(s, cert)
        assert is_primitive_sequence(s, cert) == any(v % p for v in state)


def _tampered_h_f(cert, k, period_term=False):
    """cert with x^k added to h_f, which changes alpha, so the shift identity
    breaks at j = 1; or with x^k (x^T - 1) added, which leaves every stream
    of period T, alpha among them, as it was but not level 1, so at e >= 3
    only the carry identity breaks."""
    h, T = cert.h_f, cert.T
    coeffs = list(h.coeffs) + [0] * (T + k + 1)
    coeffs[k] += 1
    if period_term:
        coeffs[T + k] -= 1
    return cert._replace(h_f=RingPolynomial(h.ctx, coeffs))


# past each byte bound of the stream scans: p^2 > 128 (13, 3), p^2 > 256 and
# p^e > 256 (17, 3), two residues past a byte (131, 2); and n = 3
IDENTITY_RINGS = [(3, 2, 2), (3, 3, 2), (3, 4, 2), (5, 3, 2), (3, 3, 3), (7, 2, 2),
                  (11, 3, 1), (13, 3, 1), (17, 3, 1), (131, 2, 1)]


@pytest.mark.parametrize("p,e,n", IDENTITY_RINGS)
def test_identity_failure_matches_the_per_term_oracle(p, e, n):
    """The stream compares give the per-term scan's (j, identity, t) when both
    identities hold, when a tampered h_f breaks the shift identity, and when
    one breaks only the carry identity. The state of each ring whose first
    failure comes latest is kept: a tamper fails within the first n terms of
    every state, since the stream of differences is itself a nonzero
    recurring sequence of f mod p."""
    ctx = RingContext(p, e)
    genuine = find_primitive(ctx, n)
    count = 1 if p > 100 else 4
    states = _sample_primitive_states(ctx, n, count, random.Random(100 * p + 10 * e + n))
    cases = [(genuine, None), (_tampered_h_f(genuine, n - 1), "shift"),
             (_tampered_h_f(genuine, 0, period_term=True), "carry" if e >= 3 else None)]
    for cert, identity in cases:
        for state in states:
            s = generate(genuine.f, state)
            got = identity_failure(s, cert)
            assert got == identity_failure_per_term(s, cert)
            assert (got[:2] if got else None) == ((1, identity) if identity else None)


@pytest.mark.parametrize("i,identity", [(2, "shift"), (1, "carry")])
def test_identity_failure_finds_a_late_first_failure(monkeypatch, i, identity):
    # one term of level i changed at the last t of the period: the top level
    # breaks the shift identity at j = 1 where its rotation by p^(e-2) T
    # reads it, level 1 breaks only the carry identity, near the end; the
    # stream compare and the per-term scan meet the same first t
    p, e = 5, 3
    cert = find_primitive(RingContext(p, e), 2)
    s = generate(cert.f, (0, 1))
    genuine = sequences.level

    def changed_at_the_end(seq, j):
        lvl = genuine(seq, j)
        if j != i:
            return lvl
        terms = [lvl.at(t) for t in range(seq.period)]
        terms[-1] = (terms[-1] + 1) % p
        return level_sequence(p, terms)

    monkeypatch.setattr(sequences, "level", changed_at_the_end)
    monkeypatch.setattr(oracles, "level", changed_at_the_end)
    got = identity_failure(s, cert)
    assert got == identity_failure_per_term(s, cert)
    assert got[:2] == (1, identity) and got[2] > s.period // 2


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
