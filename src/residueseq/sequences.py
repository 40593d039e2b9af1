"""Linear recurring sequences over Z/(p^e) and their level decomposition.

One full least period is materialized per sequence; every consumer
indexes cyclically. Terms are stored compactly under one rule: `bytes`
when the modulus (p^e for an LRSequence, p for a LevelSequence) is at
most 256, else an `array` of a native unsigned type. So two sequences
with the same values compare equal whichever function built them. The
recurrence is read off a monic generator
f(x) = x^n - c_{n-1} x^{n-1} - ... - c_0 as
a(i+n) = [c_{n-1} a(i+n-1) + ... + c_0 a(i)] mod p^e.
"""

from __future__ import annotations

import functools
import operator
import sys
from array import array
from dataclasses import dataclass

from .errors import InvalidInputError
from .primitivity import PrimitivityCertificate, compute_h
from .polyring import (
    RingPolynomial,
    _factorize,
    apply_poly_to_sequence,
    ward_bound,
)
from .ringcore import RingContext, carry_c1, digit_table


@dataclass(frozen=True)
class LRSequence:
    """A recurring sequence with one least period of terms."""

    f: RingPolynomial
    initial_state: tuple[int, ...]
    terms: bytes | array  # one least period, stored by _store; read-only
    period: int

    __hash__ = None  # unhashable whichever store holds the terms (an array cannot hash)

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
    terms: bytes | array  # one least period, stored by _store; read-only
    period: int

    __hash__ = None  # unhashable whichever store holds the terms (an array cannot hash)

    def at(self, t: int) -> int:
        return self.terms[t % self.period]

    def is_zero(self) -> bool:
        return not any(self.terms)

    def shifted(self, r: int) -> "LevelSequence":
        """The same terms rotated by r, again one least period."""
        r %= self.period
        return LevelSequence(p=self.p, terms=self.terms[r:] + self.terms[:r], period=self.period)


@functools.lru_cache(maxsize=64)
def _primes(length: int) -> tuple[int, ...]:
    # the primes of a period length, factored once for every sequence of it
    return tuple(_factorize(length))


def least_period(values) -> int:
    """Smallest cyclic period of a list, bytes or array known to repeat with its length,
    by prime descent: exact, as the periods dividing the length are the least
    one's multiples."""
    length = d = len(values)
    for q in _primes(length):
        while d % q == 0 and values[d // q:] == values[:length - d // q]:
            d //= q
    return d


def _store(values, modulus: int) -> bytes | array:
    """values as the term store of a sequence mod modulus: bytes when
    modulus <= 256, else an array (RingContext keeps moduli below 2^31, so
    "L" holds every residue). Terms already stored so pass through; other
    values are read one by one, never as a raw buffer."""
    if modulus <= 256:
        return values if type(values) is bytes else bytes(iter(values))
    return values if type(values) is array else array("L", iter(values))


def level_sequence(p: int, values) -> LevelSequence:
    values = _store(values, p)
    d = least_period(values)
    return LevelSequence(p=p, terms=values[:d], period=d)


def recurrence_coeffs(f: RingPolynomial) -> tuple[int, ...]:
    """(c_0, ..., c_{n-1}) with c_k = -f_k mod p^e."""
    m = f.ctx.modulus
    return tuple((-f.coeff(k)) % m for k in range(f.degree))


def _walk(f: RingPolynomial, init: tuple[int, ...]) -> list[int]:
    """One least period of the sequence of f from init, a term at a time,
    until the state recurs.

    The state is packed into one int, entry k in slot k of w bits, and the
    coefficients c_{n-1}, ..., c_0 into another, so that slot n-1 of their
    product is the next term before reduction mod m = p^e. A slot of the
    product sums at most n products of two residues, each at most (m-1)^2,
    and w = bit_length(n*m^2) holds n*(m-1)^2: no slot carries into the
    next, and the kernel is exact.
    """
    n, m = f.degree, f.ctx.modulus
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
            return terms[:t]
        terms.append(nxt)
    raise InvalidInputError(f"no state recurrence within the Ward bound for {f}")


def _little(slots: array) -> array:
    # the slots with little-endian bytes on every host, so that slot t of a
    # packed int sits at bits t*w; byteswap is its own inverse
    if sys.byteorder == "big":
        slots.byteswap()
    return slots


@functools.lru_cache(maxsize=2)
def _basis(f: RingPolynomial):
    """(typecode, byte length, (P_0, ..., P_{n-1}), mu, shift, quotient
    mask) for generate, or None when no native array slot holds the slot
    bound; cached and bounded like the shift-class atlas, for the calls
    that share f.

    The impulse u, the sequence from (0, ..., 0, 1), is walked once; its
    length L = per(f) is a multiple of every period of f. Its rotation by j
    starts from the state (u(j), ..., u(j+n-1)): zero below entry n-1-j and
    one there. P_k packs E_k, the sequence from the k-th unit state, one
    term per w-bit slot of the array type, little-endian. With U the packed
    u, the rotation by j is (U >> j*w) | (U << (L-j)*w) & full, and
    back-substitution, j = 0, 1, ..., n-1, gives P_(n-1-j) as that rotation
    plus ((m - u(j+k)) mod m) P_k for each k > n-1-j, then one Barrett step.

    A combination sum s_k P_k holds at most S = n*(m-1)^2 in a slot, and so
    does a row before its Barrett step, (m-1) + (n-1)*(m-1)^2. With
    2^shift > S*m and mu = ceil(2^shift / m), (x * mu) >> shift = x // m for
    every slot value x <= S (one Barrett step, exact), and the slot width
    holds S*mu, so the quotients come from one multiply of the packed int.
    """
    n, m = f.degree, f.ctx.modulus
    bound = n * (m - 1) ** 2
    shift = (bound * m).bit_length()
    mu = -(-(1 << shift) // m)
    typecode = next((tc for tc in "BHILQ" if bound * mu >> 8 * array(tc).itemsize == 0), None)
    if typecode is None:
        return None
    u = _walk(f, (0,) * (n - 1) + (1,))
    length, w = len(u), 8 * array(typecode).itemsize
    full = (1 << length * w) - 1
    mask = full // ((1 << w) - 1) * ((1 << (w - shift)) - 1)
    packed = int.from_bytes(_little(array(typecode, u)).tobytes(), "little")
    units = [0] * n
    for j in range(n):
        row = packed >> j * w | packed << (length - j) * w & full
        for k in range(n - j, n):
            row += (-u[(j + k) % length]) % m * units[k]
        units[n - 1 - j] = row - m * (row * mu >> shift & mask)
    return typecode, length * w // 8, tuple(units), mu, shift, mask


def generate(f: RingPolynomial, init) -> LRSequence:
    """The sequence of f from an n-entry state, one least period of it.

    Requires a unit constant term so the state map is a bijection and every
    sequence of f is purely periodic. The terms are the combination
    sum s_k P_k of the packed unit-state sequences of _basis(f), over one
    period of the impulse, reduced mod m slot by slot and cut to their
    least period. When m <= 256 every term is the low byte of its slot, so
    a strided slice of the sum's little-endian bytes reads one period;
    larger rings keep the slots as an array of the slot type. When no
    native slot holds the combination, the state is walked a term at a time.
    """
    f.check_generator()
    n, m = f.degree, f.ctx.modulus
    init = tuple(v % m for v in init)
    if len(init) != n:
        raise InvalidInputError(f"initial state needs {n} entries, got {len(init)}")
    basis = _basis(f)
    if basis is None:
        terms = _store(_walk(f, init), m)
    else:
        typecode, nbytes, units, mu, shift, mask = basis
        total = sum(map(operator.mul, init, units))
        total -= m * (total * mu >> shift & mask)
        data = total.to_bytes(nbytes, "little")
        if m <= 256:
            terms = data[::array(typecode).itemsize]
        else:
            terms = _little(array(typecode, data))
        terms = terms[:least_period(terms)]
    return LRSequence(f=f, initial_state=init, terms=terms, period=len(terms))


@functools.lru_cache(maxsize=8)
def _digits(p: int, e: int, i: int) -> bytes | tuple[int, ...]:
    # digit i of every residue mod p^e, for the level streams of one ring: a
    # 256-byte translate table when every residue fits a byte, else a tuple
    digits = tuple(map(operator.itemgetter(i), digit_table(RingContext(p, e))))
    return bytes(digits).ljust(256, b"\0") if p**e <= 256 else digits


def level(s: LRSequence, i: int) -> LevelSequence:
    """The i-th base-p digit stream of s, reduced to its least period: one
    bytes.translate of the terms when p^e <= 256, else a table lookup per term."""
    ctx = s.f.ctx
    if not 0 <= i < ctx.e:
        raise InvalidInputError(f"level index must be in [0, {ctx.e}), got {i}")
    table = _digits(ctx.p, ctx.e, i)
    if isinstance(table, bytes):
        return level_sequence(ctx.p, s.terms.translate(table))
    return level_sequence(ctx.p, map(table.__getitem__, s.terms))


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
