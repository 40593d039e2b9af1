"""Univariate polynomial arithmetic over Z/(p^e) modulo a monic f(x).

Schoolbook multiplication throughout; degrees stay single-digit at the
scales this package targets.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import CertificateError, InvalidInputError
from .ringcore import RingContext

__all__ = [
    "RingPolynomial",
    "poly",
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

    @property
    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def unit_constant_mod_p(self) -> bool:
        return self.constant_term % self.ctx.p != 0

    def __str__(self) -> str:
        return format_poly_spec(self)


def poly(ctx: RingContext, coeffs) -> RingPolynomial:
    return RingPolynomial(ctx, tuple(coeffs))


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


def _reduce(coeffs: list[int], f: RingPolynomial, m: int) -> tuple[int, ...]:
    # Remainder of division by monic f; operates on a mutable copy.
    n = f.degree
    fc = f.coeffs
    for k in range(len(coeffs) - 1, n - 1, -1):
        c = coeffs[k]
        if c:
            coeffs[k] = 0
            base = k - n
            for i in range(n):
                coeffs[base + i] = (coeffs[base + i] - c * fc[i]) % m
    return tuple(coeffs[:n])


def poly_mod(a: RingPolynomial, f: RingPolynomial) -> RingPolynomial:
    """Remainder of a modulo a monic f."""
    _require_same_ctx(a, f)
    if not f.is_monic:
        raise InvalidInputError("modulus polynomial must be monic")
    if a.degree < f.degree:
        return a
    return RingPolynomial(a.ctx, _reduce(list(a.coeffs), f, a.ctx.modulus))


def poly_mulmod(
    a: RingPolynomial, b: RingPolynomial, f: RingPolynomial
) -> RingPolynomial:
    """(a * b) mod f for monic f; inputs already reduced below deg f."""
    ctx = _require_same_ctx(a, b, f)
    if not f.is_monic:
        raise InvalidInputError("modulus polynomial must be monic")
    if a.degree >= f.degree or b.degree >= f.degree:
        raise InvalidInputError("operands must have degree below deg f")
    if a.is_zero() or b.is_zero():
        return RingPolynomial(ctx, ())
    m = ctx.modulus
    prod = [0] * (a.degree + b.degree + 1)
    for i, ai in enumerate(a.coeffs):
        if ai:
            for j, bj in enumerate(b.coeffs):
                prod[i + j] = (prod[i + j] + ai * bj) % m
    return RingPolynomial(ctx, _reduce(prod, f, m))


def poly_powmod(base: RingPolynomial, k: int, f: RingPolynomial) -> RingPolynomial:
    """base^k mod f by square and multiply; the base is reduced first."""
    if k < 0:
        raise InvalidInputError(f"exponent must be nonnegative, got {k}")
    _require_same_ctx(base, f)
    result = one(base.ctx)
    acc = poly_mod(base, f)
    while k:
        if k & 1:
            result = poly_mulmod(result, acc, f)
        k >>= 1
        if k:
            acc = poly_mulmod(acc, acc, f)
    return result


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


def order_of_x(f: RingPolynomial) -> int:
    """Least T > 0 with x^T = 1 mod f over Z/(p^e).

    Scans the divisor candidates for the order over Z/p, then multiplies
    by the least power of p that closes the gap to Z/(p^e); that power is
    at most p^(e-1).
    """
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


def apply_poly_to_sequence(g: RingPolynomial, terms, period: int) -> list[int]:
    """Pointwise sum of g's coefficients against shifts of the sequence.

    The shifts wrap at the declared period and the output covers one full
    input window.
    """
    terms = list(terms)
    m = g.ctx.modulus
    if period <= 0 or len(terms) < period:
        raise InvalidInputError("declared period must fit inside the terms given")
    return [
        sum(c * terms[(t + k) % period] for k, c in enumerate(g.coeffs)) % m
        for t in range(len(terms))
    ]


def with_exponent(f: RingPolynomial, e: int) -> RingPolynomial:
    """The same coefficient list read modulo p^e instead of p^(f.ctx.e)."""
    return RingPolynomial(RingContext(f.ctx.p, e), f.coeffs)


def reduce_mod_p(f: RingPolynomial) -> RingPolynomial:
    return with_exponent(f, 1)


def format_poly_spec(f: RingPolynomial) -> str:
    """Text form `p=<p> e=<e>; f=<c0>,<c1>,...` (constant first)."""
    body = ",".join(str(c) for c in f.coeffs) if f.coeffs else "0"
    return f"p={f.ctx.p} e={f.ctx.e}; f={body}"


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
