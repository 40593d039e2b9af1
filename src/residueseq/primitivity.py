"""Primitive and strongly-primitive polynomial testing and search.

A monic f over Z/(p^e) with unit constant term is primitive when the
order of x mod f reaches p^(e-1) * (p^n - 1). For primitive f the residue
x^(p^(i-1)*T) mod f equals 1 + p^i * h_i(x) for lift polynomials h_i of
degree < n; h_1 mod p decides strong primitivity.

The search needs the order over Z/p only to know whether it is
T = p^n - 1, so it asks each residue mod p that question alone: x^T = 1
and x^(T/q) != 1 for each prime q of T, once per residue. Only the lifts
of a residue that passes are built and lifted to their order over
Z/(p^e); certify and order_of_x take the exact order by descent.
"""

from __future__ import annotations

import collections
import functools
import itertools
import random

from .errors import CertificateError, InvalidInputError
from .ringcore import RingContext
from .polyring import (
    RingPolynomial,
    _factorize,
    _lift_order,
    _powmod,
    _reduce,
    order_of_x,
    poly_powmod,
    reduce_mod_p,
    ward_bound,
    x_poly,
)

EXHAUSTIVE_LIMIT = 10**6
DEFAULT_SEARCH_BUDGET = 200_000


def _strong(f: RingPolynomial, h1: RingPolynomial) -> bool:
    # the strong test on a primitive f's lift polynomial h_1
    return f.ctx.e >= 2 and reduce_mod_p(h1).degree >= 1


def _qualifies(f: RingPolynomial, period: int, strongly: bool = False) -> bool:
    # the primitivity predicate on period, the order of x mod f; h_1
    # exists only for primitive f, so the strong test runs second
    return period == ward_bound(f) and (not strongly or _strong(f, compute_h(f, 1)))


@functools.lru_cache(maxsize=None)
def _unit_primes(p: int, n: int) -> tuple[int, ...]:
    # the primes of T = p^n - 1, the order of the units of GF(p^n)
    return tuple(_factorize(p**n - 1))


@functools.lru_cache(maxsize=4096)
def _primitive_mod_p(p: int, fc: tuple[int, ...]) -> bool:
    # whether x has order T = p^n - 1 mod f over Z/p (fc: f mod p, monic):
    # x^T = 1 and x^(T/q) != 1 for each prime q of T, which is exact; every
    # lift of one residue shares it, and the cache is bounded like
    # _order_mod_p's so that a long random search keeps its memory
    n = len(fc) - 1
    T = p**n - 1
    x = _reduce([0, 1], fc, p)
    return (_powmod(x, T, fc, p) == (1,)
            and all(_powmod(x, T // q, fc, p) != (1,) for q in _unit_primes(p, n)))


def _search_residue(p: int, lower: tuple[int, ...]) -> bool:
    # the search's test of a candidate x^n + ... + c_0 before it is built:
    # its order over Z/(p^e) is T1 * p^j with j < e and T1 its order over
    # Z/p, so a T1 short of p^n - 1 rules it out before any lift
    return _primitive_mod_p(p, tuple(c % p for c in lower) + (1,))


def compute_h(f: RingPolynomial, i: int) -> RingPolynomial:
    """Lift polynomial h_i with x^(p^(i-1)*T) = 1 + p^i * h_i mod f.

    Returns the canonical representative with coefficients in
    [0, p^(e-i)); h_i is only determined to that precision. Raises
    CertificateError when a coefficient of the residue minus one is not
    divisible by p^i, which signals a non-primitive f.
    """
    ctx = f.ctx
    if not 1 <= i <= ctx.e:
        raise InvalidInputError(f"level index must be in [1, {ctx.e}], got {i}")
    f.check_generator()
    T = ctx.p ** f.degree - 1
    r = poly_powmod(x_poly(ctx), ctx.p ** (i - 1) * T, f)
    diff = [(r.coeff(k) - (1 if k == 0 else 0)) % ctx.modulus for k in range(f.degree)]
    q = ctx.p**i
    h = []
    for k, c in enumerate(diff):
        if c % q:
            raise CertificateError(
                f"coefficient {c} of x^{ctx.p ** (i - 1) * T} - 1 at degree {k} "
                f"is not divisible by {ctx.p}^{i}; {f} is not primitive"
            )
        h.append(c // q)
    return RingPolynomial(ctx, tuple(h))


class PrimitivityCertificate(collections.namedtuple(
        "PrimitivityCertificate", "f n T period h1 h_f strongly_primitive seed",
        defaults=(None,))):
    """Order facts and lift polynomials for a primitive f."""

    __slots__ = ()


def order_and_certificate(
    f: RingPolynomial, seed: int | None = None
) -> tuple[int, PrimitivityCertificate | None]:
    """The order of x mod f, and the certificate when that order makes f
    primitive (None otherwise); the order is computed once."""
    ctx = f.ctx
    n = f.degree
    period = order_of_x(f)
    if not _qualifies(f, period):
        return period, None
    h1 = compute_h(f, 1)
    return period, PrimitivityCertificate(
        f=f, n=n, T=ctx.p**n - 1, period=period, h1=h1, h_f=reduce_mod_p(h1),
        strongly_primitive=_strong(f, h1), seed=seed,
    )


def certify(f: RingPolynomial, seed: int | None = None) -> PrimitivityCertificate:
    """Build the certificate; raises InvalidInputError when f is not primitive."""
    period, cert = order_and_certificate(f, seed)
    if cert is None:
        raise InvalidInputError(f"{f} is not primitive: period {period} != {ward_bound(f)}")
    return cert


def iter_monic_polys(ctx: RingContext, n: int, keep=None):
    """Monic degree-n polynomials with unit constant term, lexicographic
    in the coefficient tuple (c_0, ..., c_{n-1}); keep, when given, is
    asked of each such tuple before its polynomial is built."""
    if n < 1:
        raise InvalidInputError(f"degree must be >= 1, got {n}")
    for lower in itertools.product(range(ctx.modulus), repeat=n):
        if lower[0] % ctx.p and (keep is None or keep(lower)):
            yield RingPolynomial(ctx, lower + (1,))


def iter_primitive(ctx: RingContext, n: int, strongly: bool = False):
    """Exhaustive stream of (strongly) primitive degree-n polynomials: only
    the lifts of residues primitive over Z/p are built and ordered."""
    T = ctx.p**n - 1
    for f in iter_monic_polys(ctx, n, functools.partial(_search_residue, ctx.p)):
        if _qualifies(f, _lift_order(f, T), strongly):
            yield f


def find_primitive(
    ctx: RingContext,
    n: int,
    strongly: bool = False,
    search_budget: int = DEFAULT_SEARCH_BUDGET,
    seed: int = 0,
) -> PrimitivityCertificate | None:
    """First qualifying polynomial, or None when the budget runs out.

    Exhaustive lexicographic enumeration while the candidate space
    p^(e*n) stays small; seeded random sampling beyond that, with the
    seed recorded in the certificate.
    """
    if strongly and ctx.e < 2:
        raise InvalidInputError("strong primitivity needs e >= 2")
    if ctx.modulus**n <= EXHAUSTIVE_LIMIT:
        for f in iter_primitive(ctx, n, strongly):
            return certify(f)
        return None
    rng = random.Random(seed)
    for _ in range(search_budget):
        lower = tuple(rng.randrange(ctx.modulus) for _ in range(n))
        if lower[0] % ctx.p == 0 or not _search_residue(ctx.p, lower):
            continue
        f = RingPolynomial(ctx, lower + (1,))
        if _qualifies(f, _lift_order(f, ctx.p**n - 1), strongly):
            return certify(f, seed=seed)
    return None


def certificate_to_dict(cert: PrimitivityCertificate) -> dict:
    return {
        "p": cert.f.ctx.p,
        "e": cert.f.ctx.e,
        "n": cert.n,
        "f": list(cert.f.coeffs),
        "period": cert.period,
        "h1": list(cert.h1.coeffs),
        "h_f": list(cert.h_f.coeffs),
        "strongly_primitive": cert.strongly_primitive,
        "seed": cert.seed,
    }
