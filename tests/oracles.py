"""Slow reference implementations that the tests compare the package against."""

import functools
import itertools
import math
import random
import time

from residueseq.analysis import DEFAULT_BUDGET, _fmt_coeffs, _report
from residueseq.compress import format_multipoly, value_table
from residueseq.errors import CertificateError, InvalidInputError
from residueseq.polyring import (
    RingPolynomial,
    _factorize,
    apply_poly_to_sequence,
    one,
    poly_mod,
    poly_mulmod,
    poly_powmod,
    reduce_mod_p,
    ward_bound,
    with_exponent,
    x_poly,
)
from residueseq.primitivity import PrimitivityCertificate, compute_h
from residueseq.ringcore import carry_c1, format_univariate
from residueseq.sequences import (
    LRSequence,
    _check_same_generator,
    alpha_sequence,
    apply_mod_p,
    generate,
    is_primitive_sequence,
    level,
    recurrence_coeffs,
)


def generate_by_tuple_state(f: RingPolynomial, init) -> LRSequence:
    """generate as a loop over tuple states: one dot product and one tuple
    rebuild per term, until the initial state recurs."""
    n = f.degree
    if not f.is_monic or n < 1:
        raise InvalidInputError("generator must be monic of degree >= 1")
    if not f.unit_constant_mod_p():
        raise InvalidInputError("f(0) must be a unit mod p")
    init = tuple(v % f.ctx.modulus for v in init)
    if len(init) != n:
        raise InvalidInputError(f"initial state needs {n} entries, got {len(init)}")
    m = f.ctx.modulus
    cs = recurrence_coeffs(f)
    limit = ward_bound(f)
    terms = list(init)
    state = init
    for t in range(1, limit + 1):
        nxt = sum(c * s for c, s in zip(cs, state)) % m
        state = state[1:] + (nxt,)
        if state == init:
            period = t
            break
        terms.append(nxt)
    else:
        raise InvalidInputError(f"no state recurrence within the Ward bound for {f}")
    return LRSequence(f=f, initial_state=init, terms=tuple(terms[:period]), period=period)


def shift_classes_by_dict(f: RingPolynomial, states=None):
    """shift_classes as a walk over tuple states, in the order given (by
    default every primitive state in lex order), with a dict from every
    state reached to (class number, rotation offset); returns (reps, index)."""
    reps: list[LRSequence] = []
    index: dict[tuple[int, ...], tuple[int, int]] = {}
    if states is None:
        states = (st for st in itertools.product(range(f.ctx.modulus), repeat=f.degree)
                  if any(v % f.ctx.p for v in st))
    for state in states:
        if state in index:
            continue
        s = generate_by_tuple_state(f, state)
        ci = len(reps)
        reps.append(s)
        # the states of one least period are distinct and in no earlier class;
        # state_at(t) is terms[t:t+n] read cyclically
        wrapped = tuple(itertools.islice(itertools.cycle(s.terms), s.period + f.degree - 1))
        states_of = zip(*(wrapped[j:j + s.period] for j in range(f.degree)))
        index.update(zip(states_of, zip(itertools.repeat(ci), range(s.period))))
    return reps, index


def order_of_x_bruteforce(f: RingPolynomial) -> int:
    """Sequential-multiplication oracle for order_of_x."""
    if not f.unit_constant_mod_p():
        raise InvalidInputError("f(0) must be a unit mod p")
    xe = poly_mod(x_poly(f.ctx), f)
    unit = one(f.ctx)
    acc = xe
    for t in range(1, ward_bound(f) + 1):
        if acc == unit:
            return t
        acc = poly_mulmod(acc, xe, f)
    if acc == unit:
        return ward_bound(f)
    raise CertificateError(f"order of x mod {f} exceeds the Ward bound")


def _sorted_divisors(factors: dict[int, int]) -> list[int]:
    divisors = [1]
    for q, mult in factors.items():
        divisors = [d * q**i for d in divisors for i in range(mult + 1)]
    return sorted(divisors)


@functools.lru_cache(maxsize=None)
def _period_candidates(p: int, n: int) -> tuple[int, ...]:
    # Every least period over Z/p of a degree-n polynomial with unit
    # constant term divides lcm(p^d - 1 : d <= n) * p^ceil(log_p n):
    # factor into irreducible powers and combine their periods.
    factors: dict[int, int] = {}
    for d in range(1, n + 1):
        for q, mult in _factorize(p**d - 1).items():
            factors[q] = max(factors.get(q, 0), mult)
    m = 0
    while p**m < n:
        m += 1
    if m:
        factors[p] = max(factors.get(p, 0), m)
    return tuple(_sorted_divisors(factors))


def order_of_x_divisor_scan(f: RingPolynomial) -> int:
    """order_of_x as a scan: the least divisor candidate d with x^d = 1
    over Z/p, then the least power of p that closes the gap to Z/(p^e),
    one poly_powmod from x per candidate."""
    if not f.is_monic or f.degree < 1:
        raise InvalidInputError("order is defined for monic f of degree >= 1")
    if not f.unit_constant_mod_p():
        raise InvalidInputError("f(0) must be a unit mod p")
    ctx = f.ctx
    f1 = reduce_mod_p(f)
    x1 = x_poly(f1.ctx)
    unit1 = one(f1.ctx)
    t1 = 0
    for d in _period_candidates(ctx.p, f.degree):
        if poly_powmod(x1, d, f1) == unit1:
            t1 = d
            break
    if t1 == 0:
        raise CertificateError(f"no candidate period matched for {f}")
    if ctx.e == 1:
        return t1
    xe = x_poly(ctx)
    unit = one(ctx)
    t = t1
    for _ in range(ctx.e):
        if poly_powmod(xe, t, f) == unit:
            return t
        t *= ctx.p
    raise CertificateError(f"period of {f} not of the form T1 * p^j, j < e")


def least_period_divisor_scan(values) -> int:
    """least_period as a scan: the least divisor d of the length with
    values[t] == values[t % d] for every t, one generator compare per d."""
    values = list(values)
    length = len(values)
    for d in range(1, length + 1):
        if length % d:
            continue
        if all(values[t] == values[t % d] for t in range(d, length)):
            return d
    return length


def scaled_uniform_scan_per_term(seqs, phi, lam, s):
    """_scaled_uniform_scan as a per-term loop: one comparison of phi(v) and
    phi(lam * v) against s per position, counting each position compared."""
    modulus = len(phi)
    phi_lam = [phi[lam * v % modulus] for v in range(modulus)]
    positions = 0
    for seq in seqs:
        for t in range(seq.period):
            positions += 1
            v = seq.terms[t]
            if (phi[v] == s) != (phi_lam[v] == s):
                return {"state": list(seq.initial_state), "t": t, "s": s}, positions
    return None, positions


def compute_h_lifted(f: RingPolynomial, i: int) -> RingPolynomial:
    """h_i read off the exponent-(e+1) lift of the same coefficient list.

    Pins h_i down modulo p^(e+1-i), one digit more than compute_h; in
    particular h_e becomes visible mod p. Consistent with compute_h
    because the lifted residue reduces correctly at every lower exponent.
    """
    return compute_h(with_exponent(f, f.ctx.e + 1), i)


def verify_alpha_k_injectivity_per_state(cert, m, k, budget=DEFAULT_BUDGET, seed=0):
    """verify_alpha_k_injectivity as the pairwise scan: every ordered pair
    of primitive states, or of the drawn rows with every state, compared in
    ascending t up to its first mismatch, with each state's sequence, alpha
    markers and compressed row built from scratch by generate."""
    started = time.perf_counter()
    ctx = cert.f.ctx
    p = ctx.p
    if not 0 < k < p:
        raise InvalidInputError(f"k must be in [1, {p}), got {k}")
    if m.g.degree >= 2 and not cert.strongly_primitive:
        raise InvalidInputError("deg g >= 2 requires a strongly primitive polynomial")
    table = value_table(m, ctx)
    states = [st for st in itertools.product(range(ctx.modulus), repeat=cert.n)
              if any(v % p for v in st)]
    compressed = []
    positions = []
    for state in states:
        seq = generate(cert.f, state)
        alpha = alpha_sequence(seq, cert)
        compressed.append([table[v] for v in seq.terms])
        positions.append([t for t in range(seq.period) if alpha.at(t) == k])

    # the budget counts 64-bit words of N-bit masks: a table of L * |V|
    # of them and one for each row; over budget, seeded rows are drawn
    total = len(states)
    words = -(-total // 64)
    table_words = len(compressed[0]) * len(set(itertools.chain.from_iterable(compressed)))
    allowed = max(1, budget // words - table_words)
    sampled = allowed < total
    rows = sorted(random.Random(seed).sample(range(total), allowed)) if sampled else range(total)
    pair_space = ((ia, ib) for ia in rows for ib in range(total))

    witness = None
    checked = 0
    pairs = 0
    for ia, ib in pair_space:
        pairs += 1
        ca, cb = compressed[ia], compressed[ib]
        agree = True
        for t in positions[ia]:
            checked += 1
            if ca[t % len(ca)] != cb[t % len(cb)]:
                agree = False
                break
        if agree and states[ia] != states[ib]:
            witness = {"a_state": list(states[ia]), "b_state": list(states[ib]), "k": k}
            break

    params = {
        "p": p,
        "e": ctx.e,
        "n": cert.n,
        "f": _fmt_coeffs(cert.f),
        "g": format_univariate(m.g),
        "eta": format_multipoly(m.eta),
        "k": k,
    }
    counts = {"positions": checked, "pairs": pairs}
    return _report("alpha-k", params, witness, counts, sampled, seed, started)


def equal_at_alpha_k(s_a, s_b, m, cert, k) -> bool:
    """True iff the compressed sequences agree wherever alpha(t) = k,
    with alpha taken from s_a."""
    ctx = s_a.f.ctx
    if not 0 < k < ctx.p:
        raise InvalidInputError(f"k must be in [1, {ctx.p}), got {k}")
    if not is_primitive_sequence(s_a, cert) or not is_primitive_sequence(s_b, cert):
        raise InvalidInputError("both sequences must be primitive")
    alpha = alpha_sequence(s_a, cert)
    table = value_table(m, ctx)
    span = math.lcm(s_a.period, s_b.period, alpha.period)
    return all(table[s_a.at(t)] == table[s_b.at(t)] for t in range(span) if alpha.at(t) == k)


def shift_identity_check(
    s: LRSequence, cert: PrimitivityCertificate, j: int
) -> int | None:
    """First t violating the top-level shift identity, or None.

    Checks a_{e-1}(t + j*p^(e-2)*T) - a_{e-1}(t) = j*alpha(t) mod p over
    one full period; needs e >= 2.
    """
    _check_same_generator(s, cert)
    ctx = s.f.ctx
    if ctx.e < 2:
        raise InvalidInputError("the shift identity needs e >= 2")
    if j < 0:
        raise InvalidInputError("j must be nonnegative")
    p = ctx.p
    top = level(s, ctx.e - 1)
    alpha = alpha_sequence(s, cert)
    shift = j * p ** (ctx.e - 2) * cert.T
    for t in range(s.period):
        lhs = (top.at(t + shift) - top.at(t)) % p
        if lhs != j * alpha.at(t) % p:
            return t
    return None


def carry_identity_check(
    s: LRSequence, cert: PrimitivityCertificate, j: int
) -> int | None:
    """First t violating the carry expansion identity, or None.

    For e >= 3 the shift by j*p^(e-3)*T of the top level expands into the
    lower-level data: a linear term from h_f acting on level 1, the digit-1
    carry of j times h_{e-2} acting on the embedded level 0, the carry of
    the level-(e-2) increment, and (only for e = 3) a binomial(j, 2)
    second-order term.
    """
    _check_same_generator(s, cert)
    ctx = s.f.ctx
    e, p, m = ctx.e, ctx.p, ctx.modulus
    if e < 3:
        raise InvalidInputError("the carry identity needs e >= 3")
    if j < 0:
        raise InvalidInputError("j must be nonnegative")
    a0 = level(s, 0)
    a1 = level(s, 1)
    low = level(s, e - 2)
    top = level(s, e - 1)
    alpha = alpha_sequence(s, cert)
    hf_a1 = apply_mod_p(cert.h_f, a1)
    h_low = compute_h(s.f, e - 2)
    # h_{e-2} acts on level 0 embedded into Z/(p^e); digit 1 of j times
    # the result is what carries up.
    deep = apply_poly_to_sequence(h_low, a0.terms, period=a0.period)
    binom = 0
    hf2_a0 = None
    if e == 3:
        binom = (j * (j - 1) // 2) % p
        hf2_a0 = apply_mod_p(cert.h_f, apply_mod_p(cert.h_f, a0))
    shift = j * p ** (e - 3) * cert.T
    for t in range(s.period):
        lhs = (top.at(t + shift) - top.at(t)) % p
        inc = j * alpha.at(t) % p
        inc_carry = carry_c1(low.at(t) + inc, p)
        jdeep = j * deep[t % a0.period] % m
        rhs = j * hf_a1.at(t) + carry_c1(jdeep, p) + inc_carry
        if e == 3:
            rhs += binom * hf2_a0.at(t)
        if lhs != rhs % p:
            return t
    return None


def identity_failure_per_j(s, cert):
    """identity_failure as the per-j checks: for each j in [0, p) the shift
    identity, then for e >= 3 the carry identity, each rebuilding its streams."""
    checks = (("shift", shift_identity_check), ("carry", carry_identity_check))
    for j in range(s.f.ctx.p):
        for identity, check in checks[:2 if s.f.ctx.e >= 3 else 1]:
            t = check(s, cert, j)
            if t is not None:
                return j, identity, t
    return None
