"""Arithmetic in Z/(p^e): residues, base-p digits, carries, interpolation.

Residues are plain ints in [0, p^e) throughout; a RingContext pins down
the ambient ring and validates it once.
"""

from __future__ import annotations

import collections
import functools
import re

from .errors import InvalidInputError

# p^e stays below 2^31 so a product of two residues fits in 64 bits.
MAX_MODULUS = 1 << 31


def is_odd_prime(p: int) -> bool:
    """Trial-division primality test; p is tiny at desk scale."""
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def checked_record(name: str, fields: str):
    """A namedtuple base whose _make, and so _replace, go back through the
    subclass constructor: a modified copy is checked and normalised like
    any new record."""
    base = collections.namedtuple(name, fields)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


class RingContext(checked_record("RingContext", "p e")):
    """The ambient ring Z/(p^e) for an odd prime p and exponent e >= 1."""

    __slots__ = ()

    def __new__(cls, p: int, e: int):
        if not is_odd_prime(p):
            raise InvalidInputError(f"p must be an odd prime, got {p}")
        if e < 1:
            raise InvalidInputError(f"e must be >= 1, got {e}")
        m = p ** e
        if m >= MAX_MODULUS:
            raise InvalidInputError(f"{p}^{e} = {m} exceeds the 2^31 cap")
        return tuple.__new__(cls, (p, e))

    @property
    def modulus(self) -> int:
        return self.p ** self.e

    def check(self, value: int) -> int:
        if not 0 <= value < self.modulus:
            raise InvalidInputError(
                f"{value} is not a canonical residue modulo {self.modulus}"
            )
        return value


def padic_expand(a: int, ctx: RingContext) -> tuple[int, ...]:
    """Base-p digits of a residue, least significant first, length e."""
    ctx.check(a)
    digits = []
    for _ in range(ctx.e):
        a, d = divmod(a, ctx.p)
        digits.append(d)
    return tuple(digits)


@functools.lru_cache(maxsize=None)
def digit_table(ctx: RingContext) -> tuple[tuple[int, ...], ...]:
    """Digit vectors of every residue in [0, p^e), indexed by residue."""
    return tuple(padic_expand(a, ctx) for a in range(ctx.modulus))


def carry_c1(a: int, p: int) -> int:
    """Second base-p digit of a nonnegative integer.

    Defined on all of Z>=0, not just residues: the recurrence identities
    apply it to sums of digits that may exceed p^e.
    """
    if a < 0:
        raise InvalidInputError(f"carry argument must be nonnegative, got {a}")
    return (a // p) % p


def _fold_exponent(k: int, p: int) -> int:
    """The exponent in [0, p-1] that x^k reduces to by x^p = x on Z/p."""
    if k < 0:
        raise InvalidInputError(f"exponents must be nonnegative, got {k}")
    return (k - 1) % (p - 1) + 1 if k else 0


class UnivariateFn(checked_record("UnivariateFn", "p coeffs")):
    """A function Z/p -> Z/p as its unique polynomial of degree < p.

    Coefficients are constant-first with trailing zeros trimmed; exponents
    >= p are folded by x^p = x at construction.
    """

    __slots__ = ()

    def __new__(cls, p: int, coeffs):
        if not is_odd_prime(p):
            raise InvalidInputError(f"p must be an odd prime, got {p}")
        folded = [0] * p
        for k, c in enumerate(coeffs):
            k = _fold_exponent(k, p)
            folded[k] = (folded[k] + c) % p
        while folded and folded[-1] == 0:
            folded.pop()
        return tuple.__new__(cls, (p, tuple(folded)))

    @property
    def degree(self) -> int:
        """Degree of the canonical form; -1 for the zero function."""
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.p
        return acc

    def table(self) -> tuple[int, ...]:
        return tuple(self(x) for x in range(self.p))


def interpolate(values, p: int) -> UnivariateFn:
    """The unique polynomial of degree < p matching a length-p value table.

    It is sum_c values[c] * (1 - (x - c)^(p-1)). As binomial(p-1, k) is
    (-1)^k mod p, its x^0 coefficient is values[0] and its x^k coefficient,
    for 1 <= k <= p-1, is -sum_c values[c] * c^(p-1-k).
    """
    values = list(values)
    if len(values) != p:
        raise InvalidInputError(f"expected a table of {p} values, got {len(values)}")
    coeffs = values[:1] + [
        -sum(v * pow(c, p - 1 - k, p) for c, v in enumerate(values) if v) for k in range(1, p)
    ]
    return UnivariateFn(p, tuple(coeffs))


def carry_map_poly(u: int, p: int) -> UnivariateFn:
    """Polynomial form of x -> C1(u + x) on Z/p.

    Its x^(p-1) coefficient equals -u mod p.
    """
    if not 0 <= u < p:
        raise InvalidInputError(f"u must be a digit in [0, {p}), got {u}")
    return interpolate([carry_c1(u + x, p) for x in range(p)], p)


def format_univariate(g: UnivariateFn) -> str:
    """Text form like `2x^2+x+1`, highest degree first; `0` for zero."""
    parts = []
    for k in range(g.degree, -1, -1):
        c = g.coeff(k)
        if c == 0:
            continue
        if k == 0:
            parts.append(str(c))
        elif k == 1:
            parts.append("x" if c == 1 else f"{c}x")
        else:
            parts.append(f"x^{k}" if c == 1 else f"{c}x^{k}")
    return "+".join(parts) if parts else "0"


_TERM_RE = re.compile(r"^([+-]?\d*)\*?(x(?:\^(\d+))?)?$")


def parse_univariate(text: str, p: int) -> UnivariateFn:
    """Inverse of format_univariate; also tolerates `-` and `*` in terms."""
    cleaned = text.replace(" ", "")
    if not cleaned:
        raise InvalidInputError("empty polynomial text")
    coeffs = [0] * p
    for term in cleaned.replace("-", "+-").split("+"):
        if term == "":
            continue
        match = _TERM_RE.match(term)
        if not match or (match.group(1) in ("", "+", "-") and not match.group(2)):
            raise InvalidInputError(f"bad polynomial term {term!r} in {text!r}")
        raw_coeff, has_x, raw_exp = match.group(1), match.group(2), match.group(3)
        c = 1 if raw_coeff in ("", "+") else -1 if raw_coeff == "-" else int(raw_coeff)
        k = _fold_exponent(0 if not has_x else 1 if raw_exp is None else int(raw_exp), p)
        coeffs[k] = (coeffs[k] + c) % p
    return UnivariateFn(p, tuple(coeffs))
