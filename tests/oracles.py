"""Slow reference implementations that the tests compare the package against."""

import bisect
import functools
import itertools
import math
import random
import time

from residueseq import analysis
from residueseq.analysis import DEFAULT_BUDGET, _report
from residueseq.compress import MultivariatePoly, eval_map, format_multipoly, value_table
from residueseq.errors import CertificateError, InvalidInputError
from residueseq.polyring import (
    RingPolynomial,
    _factorize,
    apply_poly_to_sequence,
    format_coeffs,
    one,
    poly_mod,
    poly_mulmod,
    poly_powmod,
    reduce_mod_p,
    ward_bound,
    with_exponent,
    x_poly,
)
from residueseq.primitivity import PrimitivityCertificate, certify, compute_h, iter_primitive
from residueseq.ringcore import (
    RingContext, UnivariateFn, carry_c1, digit_table, format_univariate,
)
from residueseq.sequences import (
    LRSequence,
    _check_same_generator,
    _store,
    alpha_sequence,
    apply_mod_p,
    generate,
    is_primitive_sequence,
    level,
    level_sequence,
    recurrence_coeffs,
)


def generate_by_tuple_state(f: RingPolynomial, init) -> LRSequence:
    """generate as a loop over tuple states: one dot product and one tuple
    rebuild per term, until the initial state recurs."""
    n = f.degree
    f.check_generator()
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
    return LRSequence(f=f, initial_state=init, terms=_store(terms[:period], m), period=period)


def generate_loop(f: RingPolynomial, init) -> LRSequence:
    """generate as a loop: run the recurrence from an n-entry state until
    the state recurs.

    Requires a unit constant term so the state map is a bijection and the
    first return to the initial state is the least period.

    The state is packed into one int, entry k in slot k of w bits, and the
    coefficients c_{n-1}, ..., c_0 into another, so that slot n-1 of their
    product is the next term before reduction mod m = p^e. A slot of the
    product sums at most n products of two residues, each at most (m-1)^2,
    and w = bit_length(n*m^2) holds n*(m-1)^2: no slot carries into the
    next, and the kernel is exact.
    """
    n = f.degree
    f.check_generator()
    init = tuple(v % f.ctx.modulus for v in init)
    if len(init) != n:
        raise InvalidInputError(f"initial state needs {n} entries, got {len(init)}")
    m = f.ctx.modulus
    w = (n * m * m).bit_length()
    slot = (1 << w) - 1
    top = w * (n - 1)
    coeffs = start = 0
    for c, v in zip(recurrence_coeffs(f), reversed(init)):
        coeffs = coeffs << w | c
        start = start << w | v
    terms = list(init)
    code = start
    for t in range(1, ward_bound(f) + 1):
        nxt = (code * coeffs >> top & slot) % m
        code = code >> w | nxt << top
        if code == start:
            break
        terms.append(nxt)
    else:
        raise InvalidInputError(f"no state recurrence within the Ward bound for {f}")
    return LRSequence(f=f, initial_state=init, terms=_store(terms[:t], m), period=t)


def unit_rows(f: RingPolynomial) -> list[list[int]]:
    """The unit-state sequences E_0, ..., E_(n-1) of f over one period L of
    the impulse u, the sequence from (0, ..., 0, 1), by back-substitution on
    lists: the rotation of u by j starts from (u(j), ..., u(j+n-1)), zero
    below entry n-1-j and one there, so E_(n-1-j) is that rotation minus
    u(j+k) E_k for k > n-1-j, j = 0, 1, ..., n-1, a term at a time mod m."""
    n, m = f.degree, f.ctx.modulus
    u = list(generate_loop(f, (0,) * (n - 1) + (1,)).terms)
    units: dict[int, list[int]] = {}
    for j in range(n):
        rotated = row = u[j:] + u[:j]
        for k in range(n - j, n):
            row = [(a - rotated[k] * b) % m for a, b in zip(row, units[k])]
        units[n - 1 - j] = row
    return [units[k] for k in range(n)]


def period_failure_all_levels(ctx: RingContext, n: int):
    """_period_failure with every level, level 0 included, built by `level`:
    the first shift class of a primitive f of degree n, over all states,
    whose period or level periods break the period laws, as (witness or
    None, classes checked, generators reached)."""
    p, e = ctx.p, ctx.e
    T = p**n - 1
    orbits = generators = 0
    for f in iter_primitive(ctx, n):
        generators += 1
        every_state = itertools.product(range(ctx.modulus), repeat=n)
        for seq in shift_classes_by_dict(f, every_state)[0]:
            orbits += 1
            levels = [level(seq, i) for i in range(e)]
            lowest = next((i for i, lvl in enumerate(levels) if not lvl.is_zero()), None)
            expected = 1 if lowest is None else p ** (e - 1 - lowest) * T
            if seq.period != expected:
                return ({"f": format_coeffs(f), "state": list(seq.initial_state),
                         "period": seq.period, "expected": expected}, orbits, generators)
            for i, lvl in enumerate(levels if lowest == 0 else ()):
                if lvl.period != p**i * T:
                    return ({"f": format_coeffs(f), "state": list(seq.initial_state), "level": i,
                             "period": lvl.period, "expected": p**i * T}, orbits, generators)
    return None, orbits, generators


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
    f.check_generator()
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
    f.check_generator()
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


def s_uniform(u, v, s) -> bool:
    """Whether level sequences u and v hit s at the same positions, read
    one position at a time over a common period."""
    return all((u.at(t) == s) == (v.at(t) == s) for t in range(math.lcm(u.period, v.period)))


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

    # the budget counts 64-bit words of N-bit masks, one mask for each row;
    # over budget, seeded rows are drawn
    total = len(states)
    allowed = max(1, budget // -(-total // 64))
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
        "f": format_coeffs(cert.f),
        "g": format_univariate(m.g),
        "eta": format_multipoly(m.eta),
        "k": k,
    }
    counts = {"positions": checked, "pairs": pairs}
    return _report("alpha-k", params, witness, counts, sampled, seed, started)


def alpha_k_frame_per_state(cert):
    """analysis._alpha_k_frame from its definition: the k-positions of each
    class alpha by a scan per k, each (class, cut) counted over the cyclic
    starts r that bisect to it, and each residue's state bits set one by one."""
    reps = analysis._atlas(cert.f)[0]
    period = reps[0].period
    marks, gaps = [], []
    for alpha in analysis._class_alphas(cert):
        by_k = [tuple(t for t in range(period) if alpha.at(t) == k) for k in range(cert.f.ctx.p)]
        marks.append(tuple(by_k))
        counts = []
        for ts in by_k:
            cuts = [bisect.bisect_left(ts, r) % (len(ts) or 1) for r in range(period)]
            counts.append(tuple(cuts.count(c) for c in range(len(ts) or 1)))
        gaps.append(tuple(counts))
    terms = [v for rep in reps for v in rep.terms]
    masks = tuple(sum(1 << i for i, v in enumerate(terms) if v == residue)
                  for residue in range(cert.f.ctx.modulus))
    return tuple(marks), tuple(gaps), masks


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
    deep = apply_poly_to_sequence(h_low, a0.terms)
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


@functools.lru_cache(maxsize=None)
def _lagrange_basis(p: int, c: int) -> tuple[int, ...]:
    # Indicator polynomial of x = c: product of (x - d)/(c - d) over d != c.
    num = [1]
    denom = 1
    for d in range(p):
        if d == c:
            continue
        num = [(-d * num[0]) % p] + [
            (num[i - 1] - d * num[i]) % p for i in range(1, len(num))
        ] + [num[-1]]
        denom = denom * (c - d) % p
    inv = pow(denom, p - 2, p)
    return tuple(v * inv % p for v in num)


def interpolate_lagrange(values, p: int) -> UnivariateFn:
    """interpolate as a sum of cached Lagrange indicator polynomials, one
    per nonzero table entry."""
    values = list(values)
    if len(values) != p:
        raise InvalidInputError(f"expected a table of {p} values, got {len(values)}")
    coeffs = [0] * p
    for c, v in enumerate(values):
        v %= p
        if v == 0:
            continue
        basis = _lagrange_basis(p, c)
        for k, b in enumerate(basis):
            coeffs[k] = (coeffs[k] + v * b) % p
    return UnivariateFn(p, tuple(coeffs))


def from_table_per_point(p: int, arity: int, values) -> MultivariatePoly:
    """from_table as a per-point tensor loop: each nonzero entry adds the
    product of the Lagrange indicators of its coordinates, O(p^(2*arity))."""
    values = list(values)
    if len(values) != p**arity:
        raise InvalidInputError(
            f"table must have {p ** arity} entries, got {len(values)}"
        )
    coeffs: dict[tuple[int, ...], int] = {}
    for point, v in zip(itertools.product(range(p), repeat=arity), values):
        v %= p
        if v == 0:
            continue
        deltas = [_lagrange_basis(p, c) for c in point]
        for exps in itertools.product(range(p), repeat=arity):
            term = v
            for d, k in zip(deltas, exps):
                term = term * d[k] % p
                if term == 0:
                    break
            if term:
                key = tuple(exps)
                coeffs[key] = (coeffs.get(key, 0) + term) % p
    return MultivariatePoly(p, arity, coeffs)


def value_table_by_eval_map(m, ctx: RingContext) -> tuple[int, ...]:
    """value_table as one eval_map call per residue, on its digit vector."""
    return tuple(eval_map(m, digits) for digits in digit_table(ctx))


def psi_zw_expanded(p: int, e: int, z: int, w: int) -> MultivariatePoly:
    """psi_zw by expanding (z - w) * prod(1 - x_i^(p-1)) + w directly; the
    expansion only has exponents 0 and p-1 per variable."""
    if e < 2:
        raise InvalidInputError("psi needs e >= 2 (at least one lower level)")
    arity = e - 1
    z %= p
    w %= p
    coeffs: dict[tuple[int, ...], int] = {}
    scale = (z - w) % p
    if scale:
        for mask in itertools.product((0, p - 1), repeat=arity):
            sign = -1 if sum(1 for k in mask if k) % 2 else 1
            coeffs[mask] = (coeffs.get(mask, 0) + sign * scale) % p
    zero = (0,) * arity
    coeffs[zero] = (coeffs.get(zero, 0) + w) % p
    return MultivariatePoly(p, arity, coeffs)


def sequences_by_state(f: RingPolynomial, primitive: bool = True) -> list[LRSequence]:
    """The sequence of f from each primitive state, or from every state, in
    lex order of the state; each a rotation of its class rep from the
    tuple-state walk, one object per state."""
    every_state = itertools.product(range(f.ctx.modulus), repeat=f.degree)
    reps, index = shift_classes_by_dict(f, None if primitive else every_state)
    return [reps[ci].shifted(off) for ci, off in (index[st] for st in sorted(index))]


# The distribution laws as scans over every ordered pair of states. They call
# level, _value_set and _proportional through the analysis module, so an
# injection installed there reaches them and the pair walker alike.

def linear_relation_failure_per_pair(ctx: RingContext, n: int):
    """m-sequence pairs over Z/p: dependent pairs give a singleton value
    set, independent pairs reach every value at k != 0. Returns (witness
    or None, cells checked)."""
    p = ctx.p
    cells = 0
    for f in iter_primitive(ctx, n):
        levels = [(s.initial_state, level_sequence(p, s.terms))
                  for s in sequences_by_state(f, primitive=False)]
        for sa, a in levels:
            for sb, b in levels:
                if not any(sb):
                    continue
                lam = analysis._proportional(a, b, p)
                # degree-2 state spaces cannot pair 0 with every value; the
                # law is stated for k != 0
                for k in range(p) if lam is not None else range(1, p):
                    cells += 1
                    got = analysis._value_set(a, b, k)
                    if got != ({lam * k % p} if lam is not None else set(range(p))):
                        return {"f": format_coeffs(f), "a_state": list(sa), "b_state": list(sb),
                                "k": k, "got": sorted(got)}, cells
    return None, cells


def relation_failure_per_pair(ctx: RingContext, n: int):
    """Top-level value sets of any recurring sequence at marker positions:
    all of Z/p, or a singleton in the fully-degenerate proportional case.
    Exhaustive over states, markers and k for the first two generators;
    returns (witness or None, cells checked)."""
    p, e = ctx.p, ctx.e
    cells = 0
    for f in itertools.islice(iter_primitive(ctx, n), 2):
        f1 = RingPolynomial(RingContext(p, 1), tuple(c % p for c in f.coeffs))
        gammas = [level_sequence(p, s.terms) for s in sequences_by_state(f1)]
        for c_seq in sequences_by_state(f, primitive=False):
            c_top = analysis.level(c_seq, e - 1)
            lower_zero = all(analysis.level(c_seq, i).is_zero() for i in range(e - 1))
            for gamma in gammas:
                for k in range(1, p):
                    cells += 1
                    got = analysis._value_set(c_top, gamma, k)
                    if len(got) == p:
                        continue
                    lam = analysis._proportional(c_top, gamma, p) if len(got) == 1 else None
                    if not lower_zero or lam is None or got != {lam * k % p}:
                        return {"f": format_coeffs(f), "state": list(c_seq.initial_state), "k": k,
                                "got": sorted(got)}, cells
    return None, cells


def highest_level_failure_per_pair(ctx: RingContext, n: int):
    """Proportional markers: if the top levels differ by delta + lam * (.)
    wherever alpha = k, then lam = 1, the lower levels agree, and the
    top-level difference is delta * k^{-1} * alpha. Exhaustive over state
    pairs for the first two strongly primitive generators; returns
    (witness or None, cells checked)."""
    p, e = ctx.p, ctx.e
    low = p ** (e - 1)
    cells = 0
    for f in itertools.islice(iter_primitive(ctx, n, strongly=True), 2):
        cert = certify(f)
        # each state's sequence, top level and alpha, in lex order of the state
        data = [(seq, analysis.level(seq, e - 1), alpha_sequence(seq, cert))
                for seq in sequences_by_state(f)]
        for a_seq, a_top, alpha in data:
            for b_seq, b_top, beta in data:
                lam = analysis._proportional(beta, alpha, p)
                if not lam:  # None, or the zero multiple
                    continue
                span = math.lcm(a_seq.period, b_seq.period, alpha.period)
                for k in range(1, p):
                    deltas = {(b_top.at(t) - lam * a_top.at(t)) % p
                              for t in range(span) if alpha.at(t) == k}
                    if len(deltas) != 1:
                        continue
                    cells += 1
                    delta = deltas.pop()
                    kinv = pow(k, p - 2, p)
                    lower_equal = all(a_seq.at(t) % low == b_seq.at(t) % low for t in range(span))
                    diff_ok = all((b_top.at(t) - a_top.at(t)) % p == delta * kinv * alpha.at(t) % p
                                  for t in range(span))
                    if lam != 1 or not lower_equal or not diff_ok:
                        return {"f": format_coeffs(f), "a_state": list(a_seq.initial_state),
                                "b_state": list(b_seq.initial_state),
                                "k": k, "lambda": lam, "delta": delta}, cells
    return None, cells
