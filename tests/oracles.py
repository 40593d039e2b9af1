"""Slow reference implementations that the tests compare the package against."""

import itertools
import random
import time

from residueseq.analysis import DEFAULT_BUDGET, _fmt_coeffs, _report
from residueseq.compress import format_multipoly, value_table
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
from residueseq.ringcore import format_univariate
from residueseq.sequences import alpha_sequence, generate


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


def verify_alpha_k_injectivity_per_state(cert, m, k, budget=DEFAULT_BUDGET, seed=0):
    """verify_alpha_k_injectivity with every primitive state's sequence,
    alpha markers and compressed row built from scratch by generate."""
    started = time.perf_counter()
    ctx = cert.f.ctx
    p = ctx.p
    k %= p
    if k == 0:
        raise InvalidInputError("k must be nonzero")
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

    total = len(states)
    avg = max(1, sum(len(ps) for ps in positions) // max(1, total))
    sampled = total * total * avg > budget
    if sampled:
        rng = random.Random(seed)
        want = max(1, budget // avg)
        pair_space = sorted(
            (rng.randrange(total), rng.randrange(total)) for _ in range(want)
        )
    else:
        pair_space = itertools.product(range(total), repeat=2)

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
        "f": _fmt_coeffs(cert.f),
        "g": format_univariate(m.g),
        "eta": format_multipoly(m.eta),
        "k": k,
    }
    counts = {"positions": checked, "pairs": pairs}
    return _report("alpha-k", params, witness, counts, sampled, seed, started)
