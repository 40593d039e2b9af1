"""Linear recurring sequences over Z/(p^e) and their level decomposition.

One full least period is materialized per sequence; every consumer
indexes cyclically. The recurrence is read off a monic generator
f(x) = x^n - c_{n-1} x^{n-1} - ... - c_0 as
a(i+n) = [c_{n-1} a(i+n-1) + ... + c_0 a(i)] mod p^e.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInputError
from .primitivity import PrimitivityCertificate, compute_h
from .polyring import (
    RingPolynomial,
    _factorize,
    apply_poly_to_sequence,
    ward_bound,
)
from .ringcore import carry_c1


@dataclass(frozen=True)
class LRSequence:
    """A recurring sequence with one least period of terms."""

    f: RingPolynomial
    initial_state: tuple[int, ...]
    terms: tuple[int, ...]
    period: int

    def at(self, t: int) -> int:
        return self.terms[t % self.period]

    def state_at(self, t: int) -> tuple[int, ...]:
        n = self.f.degree
        return tuple(self.at(t + k) for k in range(n))

    def shifted(self, r: int) -> "LRSequence":
        """The same terms rotated by r: equals generate(f, state_at(r))."""
        r %= self.period
        return LRSequence(f=self.f, initial_state=self.state_at(r),
                          terms=self.terms[r:] + self.terms[:r], period=self.period)


@dataclass(frozen=True)
class LevelSequence:
    """A sequence over Z/p with one least period of terms."""

    p: int
    terms: tuple[int, ...]
    period: int

    def at(self, t: int) -> int:
        return self.terms[t % self.period]

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.terms)

    def shifted(self, r: int) -> "LevelSequence":
        """The same terms rotated by r, again one least period."""
        r %= self.period
        return LevelSequence(p=self.p, terms=self.terms[r:] + self.terms[:r], period=self.period)


def least_period(values) -> int:
    """Smallest cyclic period of a list known to repeat with its length, by prime
    descent: exact, as the periods dividing the length are the least one's multiples."""
    values = list(values)
    length = d = len(values)
    for q in _factorize(length):
        while d % q == 0 and values[d // q:] == values[:length - d // q]:
            d //= q
    return d


def level_sequence(p: int, values) -> LevelSequence:
    values = list(values)
    d = least_period(values)
    return LevelSequence(p=p, terms=tuple(values[:d]), period=d)


def recurrence_coeffs(f: RingPolynomial) -> tuple[int, ...]:
    """(c_0, ..., c_{n-1}) with c_k = -f_k mod p^e."""
    m = f.ctx.modulus
    return tuple((-f.coeff(k)) % m for k in range(f.degree))


def generate(f: RingPolynomial, init) -> LRSequence:
    """Run the recurrence from an n-entry state until the state recurs.

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
    if not f.is_monic or n < 1:
        raise InvalidInputError("generator must be monic of degree >= 1")
    if not f.unit_constant_mod_p():
        raise InvalidInputError("f(0) must be a unit mod p")
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
    return LRSequence(f=f, initial_state=init, terms=tuple(terms[:t]), period=t)


def level(s: LRSequence, i: int) -> LevelSequence:
    """The i-th base-p digit stream of s, reduced to its least period."""
    ctx = s.f.ctx
    if not 0 <= i < ctx.e:
        raise InvalidInputError(f"level index must be in [0, {ctx.e}), got {i}")
    q = ctx.p**i
    digit = [(v // q) % ctx.p for v in range(ctx.modulus)]
    return level_sequence(ctx.p, list(map(digit.__getitem__, s.terms)))


def _check_same_generator(s: LRSequence, cert: PrimitivityCertificate) -> None:
    if s.f != cert.f:
        raise InvalidInputError("sequence was not generated by the certified f")


def is_primitive_sequence(s: LRSequence, cert: PrimitivityCertificate) -> bool:
    """True iff the mod-p reduction of s is not identically zero."""
    _check_same_generator(s, cert)
    p = s.f.ctx.p
    return any(v % p for v in s.terms)


def apply_mod_p(g: RingPolynomial, lvl: LevelSequence) -> LevelSequence:
    """Apply g to a mod-p sequence, reducing the result mod p."""
    p = lvl.p
    values = apply_poly_to_sequence(g, lvl.terms)
    return level_sequence(p, [v % p for v in values])


def alpha_sequence(s: LRSequence, cert: PrimitivityCertificate) -> LevelSequence:
    """The marker m-sequence h_f(x) applied to the level-0 stream of s."""
    _check_same_generator(s, cert)
    if not is_primitive_sequence(s, cert):
        raise InvalidInputError("alpha is only defined for primitive sequences")
    return apply_mod_p(cert.h_f, level(s, 0))


def identity_failure(
    s: LRSequence, cert: PrimitivityCertificate
) -> tuple[int, str, int] | None:
    """First (j, identity, t) violating a recurring identity, or None.

    For each j in [0, p), checks over one full period the top-level shift
    identity a_{e-1}(t + j*p^(e-2)*T) - a_{e-1}(t) = j*alpha(t) mod p, then
    for e >= 3 the carry expansion identity: the shift by j*p^(e-3)*T of
    the top level expands into a linear term from h_f acting on level 1,
    the digit-1 carry of j times h_{e-2} acting on the embedded level 0,
    the carry of the level-(e-2) increment, and (only for e = 3) a
    binomial(j, 2) second-order term. Needs e >= 2; the streams of s are
    built once for every j, each digit stream once.
    """
    _check_same_generator(s, cert)
    ctx = s.f.ctx
    e, p, m = ctx.e, ctx.p, ctx.modulus
    if e < 2:
        raise InvalidInputError("the shift identity needs e >= 2")
    if not is_primitive_sequence(s, cert):
        raise InvalidInputError("alpha is only defined for primitive sequences")
    top = level(s, e - 1)
    a0 = level(s, 0)
    alpha = apply_mod_p(cert.h_f, a0)  # alpha_sequence(s, cert)
    if e >= 3:
        a1 = level(s, 1)
        low = a1 if e == 3 else level(s, e - 2)
        hf_a1 = apply_mod_p(cert.h_f, a1)
        # h_{e-2} acts on level 0 embedded into Z/(p^e); digit 1 of j times
        # the result is what carries up.
        deep = apply_poly_to_sequence(compute_h(s.f, e - 2), a0.terms)
        if e == 3:
            hf2_a0 = apply_mod_p(cert.h_f, apply_mod_p(cert.h_f, a0))
    for j in range(p):
        shift = j * p ** (e - 2) * cert.T
        for t in range(s.period):
            if (top.at(t + shift) - top.at(t) - j * alpha.at(t)) % p:
                return j, "shift", t
        if e < 3:
            continue
        binom = (j * (j - 1) // 2) % p
        shift = j * p ** (e - 3) * cert.T
        for t in range(s.period):
            lhs = (top.at(t + shift) - top.at(t)) % p
            inc_carry = carry_c1(low.at(t) + j * alpha.at(t) % p, p)
            jdeep = j * deep[t % a0.period] % m
            rhs = j * hf_a1.at(t) + carry_c1(jdeep, p) + inc_carry
            if e == 3:
                rhs += binom * hf2_a0.at(t)
            if lhs != rhs % p:
                return j, "carry", t
    return None


def dump_rows(
    s: LRSequence,
    alpha: LevelSequence | None = None,
    phi: LevelSequence | None = None,
):
    """Rows for the CSV dump: t, a(t), the digits, then optional columns."""
    e = s.f.ctx.e
    header = ["t", "a"] + [f"a{i}" for i in range(e)]
    if alpha is not None:
        header.append("alpha")
    if phi is not None:
        header.append("phi")
    yield header
    levels = [level(s, i) for i in range(e)]
    for t in range(s.period):
        row = [t, s.at(t)] + [lvl.at(t) for lvl in levels]
        if alpha is not None:
            row.append(alpha.at(t))
        if phi is not None:
            row.append(phi.at(t))
        yield row
