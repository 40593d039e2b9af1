"""Slow reference implementations that the tests compare the package against."""

from residueseq.errors import CertificateError, InvalidInputError
from residueseq.polyring import (
    RingPolynomial,
    one,
    poly_mod,
    poly_mulmod,
    ward_bound,
    with_exponent,
    x_poly,
)
from residueseq.primitivity import compute_h


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


def compute_h_lifted(f: RingPolynomial, i: int) -> RingPolynomial:
    """h_i read off the exponent-(e+1) lift of the same coefficient list.

    Pins h_i down modulo p^(e+1-i), one digit more than compute_h; in
    particular h_e becomes visible mod p. Consistent with compute_h
    because the lifted residue reduces correctly at every lower exponent.
    """
    return compute_h(with_exponent(f, f.ctx.e + 1), i)
