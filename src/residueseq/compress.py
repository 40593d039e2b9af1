"""Compressing maps on the digit levels of residues.

A map phi(x_0, ..., x_{e-1}) = g(x_{e-1}) + eta(x_0, ..., x_{e-2}) sends
a residue's digit vector to Z/p. eta is kept in canonical reduced
multivariate form (every exponent <= p-1 via x^p = x), so two maps are
equal as functions exactly when they are equal coefficientwise.
"""

from __future__ import annotations

import itertools
import json

from .errors import InvalidInputError
from .ringcore import (
    RingContext, UnivariateFn, _fold_exponent, checked_record, interpolate, is_odd_prime,
)
from .sequences import LRSequence, LevelSequence, level_sequence


class MultivariatePoly(checked_record("MultivariatePoly", "p arity coeffs")):
    """Canonical multivariate polynomial over Z/p with x^p = x reduced;
    coeffs maps exponent tuples to nonzero coefficients."""

    __slots__ = ()

    def __new__(cls, p: int, arity: int, coeffs: dict):
        if not is_odd_prime(p):
            raise InvalidInputError(f"p must be an odd prime, got {p}")
        if arity < 0:
            raise InvalidInputError("arity must be nonnegative")
        clean = {}
        for exps, c in coeffs.items():
            if len(exps) != arity:
                raise InvalidInputError(f"exponent tuple {exps} does not match arity {arity}")
            folded = tuple(_fold_exponent(k, p) for k in exps)
            c %= p
            if c:
                clean[folded] = (clean.get(folded, 0) + c) % p
        return tuple.__new__(cls, (p, arity, {k: v for k, v in sorted(clean.items()) if v}))

    def __hash__(self):
        return hash((self.p, self.arity, tuple(self.coeffs.items())))

    def __call__(self, point) -> int:
        point = tuple(point)
        if len(point) != self.arity:
            raise InvalidInputError(
                f"expected {self.arity} coordinates, got {len(point)}"
            )
        total = 0
        for exps, c in self.coeffs.items():
            term = c
            for x, k in zip(point, exps):
                if k:
                    term = term * pow(x, k, self.p) % self.p
            total += term
        return total % self.p

    def table(self) -> tuple[int, ...]:
        """Dense value table over product(range(p), repeat=arity)."""
        return tuple(
            self(pt) for pt in itertools.product(range(self.p), repeat=self.arity)
        )

    def coeff(self, exps: tuple[int, ...]) -> int:
        return self.coeffs.get(tuple(exps), 0)


def zero_poly(p: int, arity: int) -> MultivariatePoly:
    return MultivariatePoly(p, arity, {})


def from_table(p: int, arity: int, values) -> MultivariatePoly:
    """Interpolate a dense table (product order, x_0 slowest) to canonical form.

    One variable at a time, every line of p entries along it is replaced by
    that line's coefficients; the reduced monomials in several variables are
    products of one-variable ones, so the result is the coefficient table.
    """
    if not is_odd_prime(p):
        raise InvalidInputError(f"p must be an odd prime, got {p}")
    values = list(values)
    if len(values) != p**arity:
        raise InvalidInputError(
            f"table must have {p ** arity} entries, got {len(values)}"
        )
    for axis in range(arity):
        stride = p ** (arity - 1 - axis)
        for block in range(0, len(values), p * stride):
            for base in range(block, block + stride):
                line = slice(base, base + p * stride, stride)
                fn = interpolate(values[line], p)
                values[line] = [fn.coeff(k) for k in range(p)]
    exponents = itertools.product(range(p), repeat=arity)
    return MultivariatePoly(p, arity, {k: c for k, c in zip(exponents, values) if c})


def psi_zw(p: int, e: int, z: int, w: int) -> MultivariatePoly:
    """The two-valued map: z at the all-zero tuple, w elsewhere."""
    if e < 2:
        raise InvalidInputError("psi needs e >= 2")
    return from_table(p, e - 1, [z % p] + [w % p] * (p ** (e - 1) - 1))


def image_set(g: UnivariateFn) -> set[int]:
    return {g(x) for x in range(g.p)}


def is_permutation(g: UnivariateFn) -> bool:
    return len(image_set(g)) == g.p


class CompressingMap(checked_record("CompressingMap", "g eta e")):
    """phi(x_0, ..., x_{e-1}) = g(x_{e-1}) + eta(x_0, ..., x_{e-2})."""

    __slots__ = ()

    def __new__(cls, g: UnivariateFn, eta: MultivariatePoly, e: int):
        if e < 2:
            raise InvalidInputError("compressing maps need e >= 2")
        if eta.p != g.p:
            raise InvalidInputError("g and eta must share the same p")
        if eta.arity != e - 1:
            raise InvalidInputError(f"eta must take {e - 1} variables, got {eta.arity}")
        if not 1 <= g.degree <= g.p - 1:
            raise InvalidInputError(f"deg g must lie in [1, {g.p - 1}], got {g.degree}")
        return tuple.__new__(cls, (g, eta, e))

    @property
    def p(self) -> int:
        return self.g.p


def eval_map(m: CompressingMap, digits) -> int:
    """g of the top digit plus eta of the lower digits, mod p."""
    digits = tuple(digits)
    if len(digits) != m.e:
        raise InvalidInputError(f"expected {m.e} digits, got {len(digits)}")
    for d in digits:
        if not 0 <= d < m.p:
            raise InvalidInputError(f"digit {d} out of range [0, {m.p})")
    return (m.g(digits[-1]) + m.eta(digits[:-1])) % m.p


def value_table(m: CompressingMap, ctx: RingContext) -> tuple[int, ...]:
    """phi over every residue of Z/(p^e), indexed by residue value, read
    from the tables of g and eta."""
    if ctx.p != m.p or ctx.e != m.e:
        raise InvalidInputError(f"map over (p={m.p}, e={m.e}) does not fit {ctx}")
    p = m.p
    # residue r has digits d_0 (least significant) to d_(e-1); eta's table
    # has x_0 slowest, so the lower digits of r read it at the place
    # sum d_i * p^(e-2-i): order lists those places for r = 0, ..., p^(e-1) - 1
    order = [0]
    for _ in range(m.e - 1):
        order = [d * len(order) + i for i in order for d in range(p)]
    et = m.eta.table()
    return tuple((gx + et[i]) % p for gx in m.g.table() for i in order)


def compress_sequence(m: CompressingMap, s: LRSequence) -> LevelSequence:
    """phi applied to the digit vectors of s, reduced to its least period."""
    ctx = s.f.ctx
    table = value_table(m, ctx)
    return level_sequence(m.p, [table[v] for v in s.terms])


def format_multipoly(eta: MultivariatePoly) -> str:
    """Text form `p=<p> vars=<m>; c:(e0,...,ek) ...`, terms in descending
    lexicographic exponent order; `0` for the zero polynomial."""
    items = sorted(eta.coeffs.items(), reverse=True)
    if not items:
        body = "0"
    else:
        body = " ".join(
            f"{c}:({','.join(str(k) for k in exps)})" for exps, c in items
        )
    return f"p={eta.p} vars={eta.arity}; {body}"


def parse_multipoly(text: str) -> MultivariatePoly:
    """Inverse of format_multipoly."""
    try:
        header, body = text.split(";", 1)
        fields = dict(tok.split("=", 1) for tok in header.split())
        p = int(fields["p"])
        arity = int(fields["vars"])
        body = body.strip()
        coeffs: dict[tuple[int, ...], int] = {}
        if body != "0":
            for term in body.split():
                c_part, exps_part = term.split(":", 1)
                if not (exps_part.startswith("(") and exps_part.endswith(")")):
                    raise ValueError(f"bad term {term!r}")
                exps = tuple(
                    int(v) for v in exps_part[1:-1].split(",") if v != ""
                )
                coeffs[exps] = int(c_part)
    except (ValueError, KeyError) as exc:
        raise InvalidInputError(f"bad multivariate spec {text!r}: {exc}") from exc
    return MultivariatePoly(p, arity, coeffs)


def multipoly_to_json(eta: MultivariatePoly) -> str:
    """Dense JSON table form; inputs enumerated in product order."""
    return json.dumps(
        {"p": eta.p, "vars": eta.arity, "values": list(eta.table())},
        sort_keys=True,
    )


def multipoly_from_json(text: str) -> MultivariatePoly:
    """Inverse of multipoly_to_json; every value must be a residue in [0, p)."""
    data = json.loads(text)
    try:
        p, arity, values = data["p"], data["vars"], list(data["values"])
    except (KeyError, TypeError) as exc:
        raise InvalidInputError(f"eta table needs p, vars and a values list: {exc!r}") from None
    if not all(type(v) is int for v in (p, arity, *values)):
        raise InvalidInputError("p, vars and every table value must be integers")
    ctx = RingContext(p, 1)
    return from_table(p, arity, [ctx.check(v) for v in values])
