"""Univariate polynomial arithmetic over Z/(p^e) modulo a monic f(x).

Schoolbook multiplication in one kernel on coefficient tuples; degrees
stay single-digit at the scales this package targets. The order of x mod
f comes by prime descent from an lcm bound over Z/p, cached per residue
of f mod p, then is lifted to Z/(p^e) by p-th powers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import CertificateError, InvalidInputError
from .ringcore import RingContext

__all__ = [
    "RingPolynomial",
    "one",
    "x_poly",
    "poly_mulmod",
    "poly_powmod",
    "order_of_x",
    "ward_bound",
    "apply_poly_to_sequence",
    "with_exponent",
    "reduce_mod_p",
    "parse_poly_spec",
    "format_coeffs",
    "format_poly_spec",
]


@dataclass(frozen=True)
class RingPolynomial:
    """Polynomial over Z/(p^e), coefficients constant-first and trimmed."""

    ctx: RingContext
    coeffs: tuple[int, ...]

    def __post_init__(self):
        m = self.ctx.modulus
        cs = [c % m for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        """-1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def check_generator(self) -> None:
        """Raise InvalidInputError unless f is monic of degree >= 1 with
        f(0) a unit mod p: the generators, whose state map is a bijection."""
        cs = self.coeffs
        if len(cs) < 2 or cs[-1] != 1:
            raise InvalidInputError(f"a generator must be monic of degree >= 1, got {self}")
        if cs[0] % self.ctx.p == 0:
            raise InvalidInputError(f"a generator needs f(0) a unit mod p, got {self}")

    def __str__(self) -> str:
        return format_poly_spec(self)


def one(ctx: RingContext) -> RingPolynomial:
    return RingPolynomial(ctx, (1,))


def x_poly(ctx: RingContext) -> RingPolynomial:
    return RingPolynomial(ctx, (0, 1))


def _require_same_ctx(*polys: RingPolynomial) -> RingContext:
    ctx = polys[0].ctx
    for q in polys[1:]:
        if q.ctx != ctx:
            raise InvalidInputError(f"mismatched ring contexts: {q.ctx} vs {ctx}")
    return ctx


def _reduce(coeffs: list[int], fc: tuple[int, ...], m: int) -> tuple[int, ...]:
    # Canonical remainder mod m of division by monic f (coefficients fc).
    n = len(fc) - 1
    for k in range(len(coeffs) - 1, n - 1, -1):
        c = coeffs[k] % m
        if c:
            base = k - n
            for i in range(n):
                coeffs[base + i] -= c * fc[i]
    cs = [c % m for c in coeffs[:n]]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _mulmod(a: tuple[int, ...], b: tuple[int, ...], fc: tuple[int, ...], m: int) -> tuple[int, ...]:
    # (a * b) mod f on canonical coefficient tuples below deg f
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    return _reduce(prod, fc, m)


def _powmod(base: tuple[int, ...], k: int, fc: tuple[int, ...], m: int) -> tuple[int, ...]:
    # base^k mod f by square and multiply; base canonical below deg f
    result = (1,)
    while k:
        if k & 1:
            result = _mulmod(result, base, fc, m)
        k >>= 1
        if k:
            base = _mulmod(base, base, fc, m)
    return result


def poly_mod(a: RingPolynomial, f: RingPolynomial) -> RingPolynomial:
    """Remainder of a modulo a monic f."""
    _require_same_ctx(a, f)
    if not f.is_monic:
        raise InvalidInputError("modulus polynomial must be monic")
    return RingPolynomial(a.ctx, _reduce(list(a.coeffs), f.coeffs, a.ctx.modulus))


def poly_mulmod(a: RingPolynomial, b: RingPolynomial, f: RingPolynomial) -> RingPolynomial:
    """(a * b) mod f for monic f; inputs already reduced below deg f."""
    ctx = _require_same_ctx(a, b, f)
    if not f.is_monic:
        raise InvalidInputError("modulus polynomial must be monic")
    if a.degree >= f.degree or b.degree >= f.degree:
        raise InvalidInputError("operands must have degree below deg f")
    return RingPolynomial(ctx, _mulmod(a.coeffs, b.coeffs, f.coeffs, ctx.modulus))


def poly_powmod(base: RingPolynomial, k: int, f: RingPolynomial) -> RingPolynomial:
    """base^k mod f by square and multiply; the base is reduced first."""
    if k < 0:
        raise InvalidInputError(f"exponent must be nonnegative, got {k}")
    acc = poly_mod(base, f)
    return RingPolynomial(base.ctx, _powmod(acc.coeffs, k, f.coeffs, base.ctx.modulus))


def ward_bound(f: RingPolynomial) -> int:
    """Upper bound p^(e-1) * (p^n - 1) on the least period of f."""
    ctx = f.ctx
    return ctx.p ** (ctx.e - 1) * (ctx.p ** f.degree - 1)


def _factorize(n: int) -> dict[int, int]:
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


@functools.lru_cache(maxsize=None)
def _period_bound(p: int, n: int) -> tuple[int, tuple[int, ...]]:
    # (N, the primes dividing N): every least period over Z/p of a degree-n
    # polynomial with unit constant term divides N = lcm(p^d - 1 : d <= n)
    # * p^ceil(log_p n); factor into irreducible powers, combine periods.
    factors: dict[int, int] = {}
    for d in range(1, n + 1):
        for q, mult in _factorize(p**d - 1).items():
            factors[q] = max(factors.get(q, 0), mult)
    factors[p] = 0  # p divides no p^d - 1
    while p ** factors[p] < n:
        factors[p] += 1
    return math.prod(q**k for q, k in factors.items()), tuple(filter(factors.get, factors))


@functools.lru_cache(maxsize=4096)
def _order_mod_p(p: int, fc: tuple[int, ...]) -> int:
    # The order of x mod f over Z/p (fc: f mod p) by descent from the bound
    # N, or 0 when x^N != 1; every lift of one residue shares it, and the
    # cache is bounded so that a long random search keeps its memory.
    N, primes = _period_bound(p, len(fc) - 1)
    x = _reduce([0, 1], fc, p)
    if _powmod(x, N, fc, p) != (1,):
        return 0
    t = N
    for q in primes:
        while t % q == 0 and _powmod(x, t // q, fc, p) == (1,):
            t //= q
    return t


def order_of_x(f: RingPolynomial) -> int:
    """Least T > 0 with x^T = 1 mod f over Z/(p^e).

    The order T1 over Z/p comes by prime descent from the lcm bound,
    once per residue of f mod p; T is T1 times the least p^j, j < e,
    with (x^T1)^(p^j) = 1, found by repeated p-th powers.
    """
    f.check_generator()
    ctx = f.ctx
    t = _order_mod_p(ctx.p, tuple(c % ctx.p for c in f.coeffs))
    if t == 0:
        raise CertificateError(f"the order of x mod {f} over Z/{ctx.p} exceeds its bound")
    return _lift_order(f, t)


def _lift_order(f: RingPolynomial, t: int) -> int:
    # the order of x mod f over Z/(p^e) from its order t over Z/p
    ctx = f.ctx
    fc, m = f.coeffs, ctx.modulus
    y = _powmod(_reduce([0, 1], fc, m), t, fc, m)
    for _ in range(ctx.e):
        if y == (1,):
            return t
        y, t = _powmod(y, ctx.p, fc, m), t * ctx.p
    raise CertificateError(f"period of {f} not of the form T1 * p^j, j < e")


def apply_poly_to_sequence(g: RingPolynomial, terms) -> list[int]:
    """Pointwise sum of g's coefficients against shifts of one period of a
    sequence; the shifts wrap at the number of terms given."""
    terms = list(terms)
    period, m = len(terms), g.ctx.modulus
    return [
        sum(c * terms[(t + k) % period] for k, c in enumerate(g.coeffs)) % m
        for t in range(period)
    ]


def with_exponent(f: RingPolynomial, e: int) -> RingPolynomial:
    """The same coefficient list read modulo p^e instead of p^(f.ctx.e)."""
    return RingPolynomial(RingContext(f.ctx.p, e), f.coeffs)


def reduce_mod_p(f: RingPolynomial) -> RingPolynomial:
    return with_exponent(f, 1)


def format_coeffs(f: RingPolynomial) -> str:
    """The coefficients `<c0>,<c1>,...` (constant first), `0` for zero."""
    return ",".join(map(str, f.coeffs)) if f.coeffs else "0"


def format_poly_spec(f: RingPolynomial) -> str:
    """Text form `p=<p> e=<e>; f=<c0>,<c1>,...` (constant first)."""
    return f"p={f.ctx.p} e={f.ctx.e}; f={format_coeffs(f)}"


def parse_poly_spec(text: str) -> RingPolynomial:
    """Inverse of format_poly_spec; round-trips bit-exactly."""
    try:
        header, body = text.split(";", 1)
        fields = dict(tok.split("=", 1) for tok in header.split())
        p = int(fields["p"])
        e = int(fields["e"])
        body = body.strip()
        if not body.startswith("f="):
            raise ValueError("missing f= section")
        raw = body[2:]
        coeffs = () if raw == "0" else tuple(int(c) for c in raw.split(","))
    except (ValueError, KeyError) as exc:
        raise InvalidInputError(f"bad polynomial spec {text!r}: {exc}") from exc
    ctx = RingContext(p, e)
    for c in coeffs:
        ctx.check(c)
    return RingPolynomial(ctx, coeffs)
