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

import collections
import functools
import itertools
import operator
import sys
from array import array

from .errors import InvalidInputError
from .primitivity import PrimitivityCertificate, compute_h
from .polyring import RingPolynomial, _factorize, ward_bound
from .ringcore import RingContext, digit_table


class LRSequence(collections.namedtuple("LRSequence", "f initial_state terms period")):
    """A recurring sequence with one least period of terms, stored by
    _store and read-only."""

    __slots__ = ()
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


class LevelSequence(collections.namedtuple("LevelSequence", "p terms period")):
    """A sequence over Z/p with one least period of terms, stored by
    _store and read-only."""

    __slots__ = ()
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
    "L" holds every residue). Terms already stored so pass through, a
    bytearray is read as its bytes, and other values are read one by one,
    never as a raw buffer."""
    if modulus <= 256:
        return bytes(values if type(values) in (bytes, bytearray) else iter(values))
    return values if type(values) is array else array("L", iter(values))


def level_sequence(p: int, values) -> LevelSequence:
    values = _store(values, p)
    d = least_period(values)
    return LevelSequence(p=p, terms=values[:d], period=d)


def recurrence_coeffs(f: RingPolynomial) -> tuple[int, ...]:
    """(c_0, ..., c_{n-1}) with c_k = -f_k mod p^e."""
    m = f.ctx.modulus
    return tuple((-f.coeff(k)) % m for k in range(f.degree))


def _walk(f: RingPolynomial, init: tuple[int, ...]) -> bytes | array:
    """One least period of the sequence of f from init, a term at a time,
    until the state recurs, stored by _store.

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
    terms = bytearray(init) if m <= 256 else array("L", init)
    append, code = terms.append, start
    for t in range(1, ward_bound(f) + 1):
        nxt = (code * coeffs >> top & slot) % m
        code = code >> w | nxt << top
        if code == start:
            del terms[t:]
            return _store(terms, m)
        append(nxt)
    raise InvalidInputError(f"no state recurrence within the Ward bound for {f}")


def _little(slots: array) -> array:
    # the slots with little-endian bytes on every host, so that slot t of a
    # packed int sits at bits t*w; byteswap is its own inverse
    if sys.byteorder == "big":
        slots.byteswap()
    return slots


def _packed(terms: bytes | array, b: int) -> int:
    # stored terms as one int, term t in the b-byte slot t at bits 8*b*t:
    # their little-endian bytes spread to the slot width by strided slices,
    # so no term becomes an int object
    data = terms if type(terms) is bytes else _little(terms[:]).tobytes()
    a = len(data) // len(terms)
    if a != b:
        spread = bytearray(len(terms) * b)
        for k in range(min(a, b)):
            spread[k::b] = data[k::a]
        data = spread
    return int.from_bytes(data, "little")


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
    packed = _packed(u, w // 8)
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
        terms = _walk(f, init)
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


def _impulse(f: RingPolynomial) -> LRSequence:
    """generate(f, (0, ..., 0, 1)) by the walk alone, with no _basis: a
    caller that reads only this sequence pays one step and one stored term
    per term of its period."""
    f.check_generator()
    init = (0,) * (f.degree - 1) + (1,)
    terms = _walk(f, init)
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


# ---------------------------------------------------------------------------
# residue streams: whole-period operations on stored terms. A stream of
# residues mod q is stored by _store(values, q); bytes streams go through
# bytes.translate and carry-free int additions, other streams through map
# chains, so no Python code runs per term.

@functools.lru_cache(maxsize=512)
def _byte_table(c: int, q: int, d: int = 1) -> bytes:
    # the translate table of v -> (c * v mod q) // d over every byte v, q <= 256
    return bytes(c * v % q // d for v in range(256))


@functools.lru_cache(maxsize=256)
def _is_table(k: int) -> bytes:
    # the translate table of v -> [v == k] over every byte v
    return bytes(v == k for v in range(256))


def _tiled(terms, span: int):
    """terms repeated to span terms, span a multiple of their number, so that
    tiled[t] is the term at t mod their number for every t < span."""
    return terms * (span // len(terms))


def _rotated(terms, r: int):
    """terms[(t + r) mod len] at t: the same stream read r places on."""
    r %= len(terms)
    return terms[r:] + terms[:r]


def _scaled(terms, c: int, q: int, d: int = 1):
    """(c * v mod q) // d for each term v, stored by _store(.., ceil(q/d)):
    one translate of bytes terms when q <= 256, else a map chain."""
    c %= q
    if type(terms) is bytes and q <= 256:
        return terms.translate(_byte_table(c, q, d))
    values = map(operator.mod, map(c.__mul__, terms), itertools.repeat(q))
    if d > 1:
        values = map(operator.floordiv, values, itertools.repeat(d))
    return _store(values, -(-q // d))


def _equal_to(terms, k: int):
    """[v == k] for each term v: a selector stream for itertools.compress."""
    return terms.translate(_is_table(k)) if type(terms) is bytes else map(k.__eq__, terms)


def _sum_mod(streams, q: int):
    """(x_0(t) + x_1(t) + ...) mod q for streams of residues mod q of one
    length, stored by _store(.., q). When q <= 128 the streams are bytes, and
    their little-endian ints add byte by byte with no carry between bytes
    while a byte sums at most 255 // (q - 1) residues; one translate reduces
    each such partial sum mod q. Larger q adds by map chains."""
    if q > 128:
        return _store(map(operator.mod, map(sum, zip(*streams)), itertools.repeat(q)), q)
    size, reduce, per = len(streams[0]), _byte_table(1, q), 255 // (q - 1)
    total = count = 0
    for x in streams:
        if count == per:
            total = int.from_bytes(total.to_bytes(size, "little").translate(reduce), "little")
            count = 1
        total += int.from_bytes(x, "little")
        count += 1
    return total.to_bytes(size, "little").translate(reduce)


def _carries(x, y, p: int):
    """[x(t) + y(t) >= p] for two streams of residues mod p: the carry out of
    digit 0. Two residues sum below 2p, within a byte when p <= 128."""
    if p > 128:
        return _store(map(p.__le__, map(operator.add, x, y)), p)
    total = int.from_bytes(x, "little") + int.from_bytes(y, "little")
    return total.to_bytes(len(x), "little").translate(_byte_table(1, 256, p))


def _applied(coeffs, terms, q: int):
    """sum_k c_k * terms(t + k) mod q over one period of terms, the shifts
    wrapping at their number: each nonzero c_k mod q scales a rotation, and
    _sum_mod adds them."""
    streams = [_scaled(_rotated(terms, k), c, q) for k, c in enumerate(coeffs) if c % q]
    return _sum_mod(streams, q) if streams else _store(bytes(len(terms)), q)


def _first_mismatch(x, y) -> int:
    """The least t with x(t) != y(t), for streams that differ."""
    return next(itertools.compress(itertools.count(), map(operator.ne, x, y)))


def is_primitive_sequence(s: LRSequence, cert: PrimitivityCertificate) -> bool:
    """True iff the mod-p reduction of s is not identically zero: the terms
    reduced mod p by one translate (a map chain above 256) have a nonzero."""
    _check_same_generator(s, cert)
    return any(_scaled(s.terms, 1, s.f.ctx.p))


def apply_mod_p(g: RingPolynomial, lvl: LevelSequence) -> LevelSequence:
    """Apply g to a mod-p sequence, reducing the result mod p.

    Over one period of lvl, each coefficient c_k scales the rotation of the
    terms by k, by one translate with the table of v -> c_k * v mod p, and
    the scaled streams add as little-endian ints: every term is a residue
    mod p, so a byte holds 255 // (p - 1) of them with no carry into the
    next, and one translate reduces each such partial sum (map chains when
    p > 128, where two residues pass a byte)."""
    return level_sequence(lvl.p, _applied(g.coeffs, lvl.terms, lvl.p))


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

    Each identity is one compare of two streams over the period L of s:
    the top level rotated by the shift, against the sum mod p of the top
    level and the right-hand side. Every stream is tiled to L, so term t is
    the value at t. The terms of each summand are residues mod p (the
    carries are 0 or 1), so _sum_mod adds them without a carry between
    terms. Digit 1 of j times h_{e-2}(level 0) mod p^e depends only on that
    product mod p^2, so h_{e-2} is applied mod p^2 and j scales the result
    by one translate while p^2 <= 256. The first mismatch is searched only
    once a compare has failed.
    """
    _check_same_generator(s, cert)
    ctx = s.f.ctx
    e, p = ctx.e, ctx.p
    if e < 2:
        raise InvalidInputError("the shift identity needs e >= 2")
    if not is_primitive_sequence(s, cert):
        raise InvalidInputError("alpha is only defined for primitive sequences")
    span = s.period
    top = _tiled(level(s, e - 1).terms, span)
    a0 = level(s, 0)
    alpha = _tiled(apply_mod_p(cert.h_f, a0).terms, span)  # alpha_sequence(s, cert)
    if e >= 3:
        a1 = level(s, 1)
        low = _tiled((a1 if e == 3 else level(s, e - 2)).terms, span)
        hf_a1 = _tiled(apply_mod_p(cert.h_f, a1).terms, span)
        # h_{e-2} acts on level 0 embedded into Z/(p^e); digit 1 of j times
        # the result is what carries up, and it reads the result mod p^2.
        deep = _tiled(_applied(compute_h(s.f, e - 2).coeffs, a0.terms, p * p), span)
        if e == 3:
            hf2_a0 = _tiled(apply_mod_p(cert.h_f, apply_mod_p(cert.h_f, a0)).terms, span)
    for j in range(p):
        j_alpha = _scaled(alpha, j, p)
        got = _rotated(top, j * p ** (e - 2) * cert.T)
        want = _sum_mod((top, j_alpha), p)
        if got != want:
            return j, "shift", _first_mismatch(got, want)
        if e < 3:
            continue
        rhs = [top, _scaled(hf_a1, j, p), _scaled(deep, j, p * p, p), _carries(low, j_alpha, p)]
        if e == 3:
            rhs.append(_scaled(hf2_a0, j * (j - 1) // 2, p))
        got = _rotated(top, j * p ** (e - 3) * cert.T)
        want = _sum_mod(rhs, p)
        if got != want:
            return j, "carry", _first_mismatch(got, want)
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
