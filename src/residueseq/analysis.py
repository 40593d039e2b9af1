"""Experiment harness: uniformity predicates and exhaustive theorem checks.

Every experiment is a pure function of its parameters and seed and yields
a UniformityReport; a failing verdict always carries a replayable
witness. A work budget guards the two suites whose scans grow without
bound: alpha-k counts 64-bit mask words, thm9 counts positions, and the
other suites take none. A scan over its budget falls back to seeded
sampling and marks the report accordingly.
"""

from __future__ import annotations

import bisect
import functools
import inspect
import itertools
import math
import operator
import random
import time
from array import array
from dataclasses import dataclass

from .errors import InvalidInputError
from .ringcore import (
    RingContext,
    UnivariateFn,
    format_univariate,
    carry_map_poly,
    is_odd_prime,
)
from .polyring import RingPolynomial
from .primitivity import (
    PrimitivityCertificate,
    certify,
    find_primitive,
    iter_primitive,
)
from .sequences import (
    LRSequence,
    LevelSequence,
    alpha_sequence,
    generate,
    identity_failure,
    level,
    level_sequence,
)
from .compress import (
    CompressingMap,
    format_multipoly,
    from_table,
    image_set,
    is_permutation,
    psi_zW,
    psi_zw,
    value_table,
)

DEFAULT_BUDGET = 10**8


# ---------------------------------------------------------------------------
# reports

@dataclass
class UniformityReport:
    """Outcome record of one experiment cell."""

    experiment: str
    params: dict
    verdict: str
    witness: dict | None
    counts: dict
    sampled: bool
    seed: int
    ms: int = 0

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "experiment": self.experiment,
            "params": self.params,
            "verdict": self.verdict,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        out["counts"] = self.counts
        out["sampled"] = self.sampled
        out["seed"] = self.seed
        if include_timing:
            out["ms"] = self.ms
        return out


def _report(experiment, params, witness, counts, sampled, seed, started):
    return UniformityReport(
        experiment=experiment,
        params=params,
        verdict="holds" if witness is None else "fails",
        witness=witness,
        counts=counts,
        sampled=sampled,
        seed=seed,
        ms=int((time.perf_counter() - started) * 1000),
    )


def _fmt_coeffs(f: RingPolynomial) -> str:
    return ",".join(str(c) for c in f.coeffs) if f.coeffs else "0"


# ---------------------------------------------------------------------------
# Legendre symbols and quadratic-residue counting

def legendre(a: int, p: int) -> int:
    """+1 for a nonzero square mod p, -1 for a nonsquare, 0 when p | a."""
    if not is_odd_prime(p):
        raise InvalidInputError(f"p must be an odd prime, got {p}")
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def legendre_sum(w: int, p: int) -> int:
    """Sum of (x^2 + w | p) over x in Z/p; p-1 when p | w, else -1."""
    return sum(legendre(x * x + w, p) for x in range(p))


def squares(p: int) -> set[int]:
    return {x * x % p for x in range(p)}


def intersection_count(p: int, w: int) -> int:
    """|I and (w + I)| for the square image I, by brute-force sets."""
    if w % p == 0:
        raise InvalidInputError("w must be nonzero mod p")
    sq = squares(p)
    return len(sq & {(w + v) % p for v in sq})


def intersection_count_formula(p: int, w: int) -> int:
    """Closed form (p + 1 + (w|p) + (-w|p)) / 4 for the same count."""
    if w % p == 0:
        raise InvalidInputError("w must be nonzero mod p")
    total = p + 1 + legendre(w, p) + legendre(-w, p)
    if total % 4:
        raise InvalidInputError(f"formula value {total} is not divisible by 4")
    return total // 4


def thm9_choose_w(p: int) -> int:
    """Shift w used by the thm9 count: the smallest w != 0 when p = 3 mod 4,
    else the smallest w with (w|p) = (-w|p) = -1."""
    if not is_odd_prime(p):
        raise InvalidInputError(f"p must be an odd prime, got {p}")
    if p % 4 == 3:
        return 1
    for w in range(1, p):
        if legendre(w, p) == -1 and legendre(-w, p) == -1:
            return w
    raise InvalidInputError(f"no qualifying w below {p}")


# ---------------------------------------------------------------------------
# s-uniformity

def s_uniform_witness(
    u: LevelSequence,
    v: LevelSequence,
    s: int,
    marker: LevelSequence | None = None,
    marker_value: int | None = None,
) -> int | None:
    """First position where the s-hit sets of u and v disagree, or None.

    Positions run over one common period; a marker restricts them to
    marker != 0, or to marker == marker_value when a value is given.
    """
    if marker is None and marker_value is not None:
        raise InvalidInputError("marker_value given without a marker sequence")
    periods = [u.period, v.period]
    if marker is not None:
        periods.append(marker.period)
    for t in range(math.lcm(*periods)):
        if marker is not None:
            mv = marker.at(t)
            if marker_value is None:
                if mv == 0:
                    continue
            elif mv != marker_value:
                continue
        if (u.at(t) == s) != (v.at(t) == s):
            return t
    return None


def s_uniform(
    u: LevelSequence,
    v: LevelSequence,
    s: int,
    marker: LevelSequence | None = None,
    marker_value: int | None = None,
) -> bool:
    return s_uniform_witness(u, v, s, marker, marker_value) is None


# ---------------------------------------------------------------------------
# state enumeration

def _state_codes(seq: LRSequence):
    """The base-p^e codes of the states of one least period of seq, by
    offset; the first entry is most significant, so int order is lex order."""
    m, terms, period = seq.f.ctx.modulus, seq.terms, seq.period
    codes = terms
    for k in range(1, seq.f.degree):  # Horner, entry k read k terms on
        k %= period
        codes = map(operator.add, map(operator.mul, codes, itertools.repeat(m)),
                    terms[k:] + terms[:k])
    return codes


def shift_classes(f: RingPolynomial, primitive: bool = True):
    """Shift-class representatives of the sequences of f started from every
    primitive initial state (nonzero mod p), or from every state.

    Returns (reps, walked): reps in lex order of their initial state, each
    the least state of its class, and walked the number of states the
    walk marked. Verdicts of rotation-invariant checks carry over from the
    rep to the whole class. The walk keeps one byte per state code and the
    reps; _slots adds random access to the states.
    """
    m, n = f.ctx.modulus, f.degree
    seen = bytearray(m**n)  # by state code: 0 unseen, 1 walked, 2 left out
    if primitive:
        for state in itertools.product(range(0, m, f.ctx.p), repeat=n):
            seen[functools.reduce(lambda c, v: c * m + v, state)] = 2
    reps: list[LRSequence] = []
    code = seen.find(0)
    while code >= 0:
        s = generate(f, (code // m**(n - 1 - k) % m for k in range(n)))
        reps.append(s)
        # the states of one least period are distinct and in no earlier class
        for c in _state_codes(s):
            seen[c] = 1
        code = seen.find(0, code)
    return reps, seen.count(1)


def _slots(reps) -> array:
    """For the states of the classes of reps in lex order, the place of
    each in the periods of reps laid end to end: ci * L + offset when every
    period is L."""
    f = reps[0].f
    where = array("q", [-1]) * f.ctx.modulus**f.degree
    for i, c in enumerate(itertools.chain.from_iterable(map(_state_codes, reps))):
        where[c] = i
    return array("q", (i for i in where if i >= 0))


@functools.lru_cache(maxsize=2)
def _atlas(f: RingPolynomial, primitive: bool = True):
    """(reps, _slots(reps)) for shift_classes(f, primitive): random access
    to the states, cached and bounded for the cells that share f;
    read-only."""
    reps, _ = shift_classes(f, primitive)
    return tuple(reps), _slots(reps)


def _sequences(f: RingPolynomial, primitive: bool = True) -> list[LRSequence]:
    """The sequence of f from each primitive state, or from every state, in
    lex order of the state; each a rotation of its class rep."""
    reps, slots = _atlas(f, primitive)
    laid = [rep.shifted(off) for rep in reps for off in range(rep.period)]
    return [laid[i] for i in slots]


@functools.lru_cache(maxsize=2)
def _class_alphas(cert: PrimitivityCertificate) -> tuple[LevelSequence, ...]:
    """alpha_sequence of each class rep of _atlas(cert.f), built once for
    the cells that share the generator; read-only."""
    return tuple(alpha_sequence(rep, cert) for rep in _atlas(cert.f)[0])


# ---------------------------------------------------------------------------
# agreement at the marker value k

def _walk_row(live, abit, count, masks):
    """Compares the pairwise scan makes between row a (bit abit) and the
    states in live, at the agreement masks of a's count k-positions; returns
    them and the states of live that agree with a everywhere."""
    checked = 0
    for done, mask in enumerate(masks):
        if live in (0, abit):
            # a alone is left, if anything: it agrees with itself from here on
            checked += (count - done) * bool(live)
            break
        checked += live.bit_count()
        live &= mask
    return checked, live


def _check_marker(p: int, k: int) -> None:
    if not 0 < k < p:
        raise InvalidInputError(f"k must be in [1, {p}), got {k}")


def verify_alpha_k_injectivity(
    cert: PrimitivityCertificate,
    m: CompressingMap,
    k: int,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
) -> UniformityReport:
    """Scan ordered pairs of primitive states: agreement of the compressed
    sequences at alpha(t) = k must force equal states.

    The scan walks rows of agreement bitmasks, each row a state paired
    with every state, with counts equal to the pairwise scan:
    counts.pairs is the ordered pairs covered and counts.positions the
    compares the pairwise scan makes, each pair compared in ascending t up
    to its first mismatch; the witness is the first agreeing pair of
    distinct states in lex order.

    The budget counts 64-bit mask words: the agreement table plus one
    full-width mask per row. When the rows do not all fit, a seeded
    sample of as many as fit is walked, in lex order, and the report is
    marked sampled.

    deg g >= 2 requires a strongly primitive certificate; deg g = 1 works
    for any primitive one. A counterexample would falsify the
    implementation, not the statement it checks.
    """
    started = time.perf_counter()
    ctx = cert.f.ctx
    p = ctx.p
    _check_marker(p, k)
    if m.g.degree >= 2 and not cert.strongly_primitive:
        raise InvalidInputError("deg g >= 2 requires a strongly primitive polynomial")
    table = value_table(m, ctx)  # also rejects a map that does not fit the ring
    reps, slots = _atlas(cert.f)
    rows = [[table[v] for v in rep.terms] for rep in reps]
    marks = [[t for t in range(len(row)) if alpha.at(t) == k]
             for row, alpha in zip(rows, _class_alphas(cert))]
    # state (ci, r) is bit ci*L + r: every primitive state of f has the same
    # least period L, so a rotation of every L-bit block rotates every class
    period = reps[0].period
    total = len(slots)
    full = (1 << total) - 1
    blocks = sum(1 << (ci * period) for ci in range(len(reps)))
    by_value: dict[int, int] = {}
    for i, v in enumerate(itertools.chain.from_iterable(rows)):
        by_value[v] = by_value.get(v, 0) | 1 << i
    # agree[t][v]: the states whose compressed row is v at t, each L-bit
    # block of by_value[v] rotated so that bit r takes bit (r + t) % L
    agree = []
    for t in range(period):
        low = ((1 << (period - t)) - 1) * blocks
        high = full ^ low
        agree.append({v: (mask >> t) & low | (mask << (period - t)) & high
                      for v, mask in by_value.items()})

    def state(i):
        """The i-th state in lex order; its bit is slots[i]."""
        ci, r = divmod(slots[i], period)
        return list(reps[ci].state_at(r))

    # rows of one ceil(N/64)-word mask each that fit beside the L*|V| of agree
    allowed = max(1, budget // -(-total // 64) - period * len(by_value))
    sampled = allowed < total
    walk = sorted(random.Random(seed).sample(range(total), allowed)) if sampled else range(total)

    def masks(ia):
        """The number of a's k-positions and, lazily, their agreement masks
        in ascending t."""
        ci, r = divmod(slots[ia], period)
        row, ms = rows[ci], marks[ci]
        cut = bisect.bisect_left(ms, r)
        return len(ms), (agree[(t - r) % period][row[t]] for t in ms[cut:] + ms[:cut])

    witness = None
    checked = 0
    pairs = len(walk) * total
    for j, ia in enumerate(walk):
        abit = 1 << slots[ia]
        done, agreeing = _walk_row(full, abit, *masks(ia))
        others = agreeing & ~abit
        if others:
            flags = format(others, f"0{total}b")[::-1]  # flags[i] is bit i
            ib = next(ib for ib, b in enumerate(slots) if flags[b] == "1")
            # the pairwise scan stops at (a, b): recount a's row up to it
            upto = bytearray(b"0" * total)
            for b in slots[:ib + 1]:
                upto[~b] = ord("1")
            done, _ = _walk_row(int(upto, 2), abit, *masks(ia))
            checked += done
            pairs = j * total + ib + 1
            witness = {"a_state": state(ia), "b_state": state(ib), "k": k}
            break
        checked += done

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


# ---------------------------------------------------------------------------
# uniform-map constructions

def construct_thm7(g: UnivariateFn, s: int, e: int) -> CompressingMap:
    """Map g(x_top) + psi_{z,w} whose compressed sequences for a and -a
    are s-uniform; z and w solve g(0) + z = s and g((p-1)/2) + w = s."""
    if not is_permutation(g):
        raise InvalidInputError("g must be a permutation polynomial")
    p = g.p
    z = (s - g(0)) % p
    w = (s - g((p - 1) // 2)) % p
    return CompressingMap(g=g, eta=psi_zw(p, e, z, w), e=e)


def thm8_mask_set(g: UnivariateFn, s: int) -> set[int]:
    """The shifts w for which s is missed by w + image(g)."""
    img = image_set(g)
    return {w for w in range(g.p) if (s - w) % g.p not in img}


def construct_thm8(
    g: UnivariateFn,
    s: int,
    lam: int,
    r: int,
    e: int,
    assignment: dict | int | None = None,
) -> CompressingMap | None:
    """Map g(x_top) + psi_{z,W} whose compressed sequences for a and
    lambda*a are s-uniform; None when the construction does not apply.

    Needs a non-permutation g whose fibre over r is closed under scaling
    by lambda, and a nonempty W = {w : s not in w + image(g)}. The
    off-zero values of psi are free in W; they default to the constant
    min(W) and are never chosen randomly.
    """
    p = g.p
    lam %= p
    if lam in (0, 1):
        raise InvalidInputError("the scaling factor must avoid 0 and 1")
    img = image_set(g)
    if r % p not in img:
        raise InvalidInputError(f"r = {r} is not a value of g")
    if is_permutation(g):
        return None
    r %= p
    for y in range(p):
        if (g(y) == r) != (g(lam * y % p) == r):
            return None
    allowed = thm8_mask_set(g, s)
    if not allowed:
        return None
    z = (s - r) % p
    if assignment is None:
        assignment = min(allowed)
    return CompressingMap(g=g, eta=psi_zW(p, e, z, allowed, assignment), e=e)


@dataclass
class UniformCount:
    """Per-s verdicts of the scaled-pair uniformity scan."""

    holding: tuple[int, ...]
    vacuous: tuple[int, ...]
    failing: dict[int, dict]
    pairs: int
    positions: int
    sampled: bool
    seed: int

    @property
    def count(self) -> int:
        return len(self.holding)


def count_uniform_s(
    cert: PrimitivityCertificate,
    m: CompressingMap,
    lam: int,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
) -> UniformCount:
    """For each s, test s-uniformity of (compress(a), compress(lam * a))
    over all primitive a.

    s outside the image of the map is vacuously uniform and reported
    separately. Verdicts are memoized per shift class of the initial
    state, which is exact because uniformity is rotation-invariant; if
    even that exceeds the budget the scan samples states instead.
    """
    started = time.perf_counter()
    ctx = cert.f.ctx
    p = ctx.p
    if not cert.strongly_primitive:
        raise InvalidInputError("the count needs a strongly primitive polynomial")
    lam %= ctx.modulus
    if lam % p == 0:
        raise InvalidInputError("the scaling factor must be a unit")
    phi = value_table(m, ctx)
    img = set(phi)

    reps, walked = shift_classes(cert.f)
    period = reps[0].period if reps else 1
    positions = 0
    sampled = len(reps) * period * p > budget
    if sampled:
        slots = _slots(reps)
        # a sample of the lex-ordered states draws by their number alone
        drawn = sorted(random.Random(seed).sample(range(len(slots)), max(1, budget // (period * p))))
        seqs = [reps[ci].shifted(off) for ci, off in (divmod(slots[i], period) for i in drawn)]
        pairs = len(seqs)
    else:
        seqs = reps
        pairs = walked

    holding = []
    vacuous = []
    failing: dict[int, dict] = {}
    for s in range(p):
        if s not in img:
            vacuous.append(s)
            continue
        witness, scanned = _scaled_uniform_scan(seqs, phi, lam, s)
        positions += scanned
        if witness is None:
            holding.append(s)
        else:
            failing[s] = witness
    return UniformCount(
        holding=tuple(holding),
        vacuous=tuple(vacuous),
        failing=failing,
        pairs=pairs,
        positions=positions,
        sampled=sampled,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# suites

def suite_carry(ps=(3, 5, 7, 11)) -> list[UniformityReport]:
    """Top coefficient of the interpolated carry map equals -u mod p."""
    reports = []
    for p in ps:
        started = time.perf_counter()
        witness = None
        for u in range(p):
            fn = carry_map_poly(u, p)
            if fn.coeff(p - 1) != (p - u) % p:
                witness = {"u": u, "coefficient": fn.coeff(p - 1)}
                break
        counts = {"positions": p, "pairs": 0}
        reports.append(_report("carry", {"p": p}, witness, counts, False, 0, started))
    return reports


def suite_legendre(ps=(3, 5, 7, 11, 13)) -> list[UniformityReport]:
    """The square-shift character sum and the image-overlap closed form."""
    reports = []
    for p in ps:
        started = time.perf_counter()
        witness = None
        for w in range(p):
            expected = p - 1 if w % p == 0 else -1
            got = legendre_sum(w, p)
            if got != expected:
                witness = {"w": w, "sum": got, "expected": expected}
                break
        reports.append(
            _report("legendre-sum", {"p": p}, witness, {"positions": p, "pairs": 0},
                    False, 0, started)
        )
        started = time.perf_counter()
        witness = None
        for w in range(1, p):
            brute = intersection_count(p, w)
            formula = intersection_count_formula(p, w)
            if brute != formula:
                witness = {"w": w, "brute": brute, "formula": formula}
                break
        reports.append(
            _report("legendre-intersection", {"p": p}, witness,
                    {"positions": p - 1, "pairs": 0}, False, 0, started)
        )
    return reports


def _generator(ctx: RingContext, n: int, strongly: bool = False) -> PrimitivityCertificate:
    """The first qualifying generator of degree n over ctx."""
    cert = find_primitive(ctx, n, strongly=strongly)
    if cert is None:
        raise InvalidInputError(f"no qualifying polynomial for p={ctx.p}, e={ctx.e}, n={n}")
    return cert


def _sample_primitive_states(ctx: RingContext, n: int, count: int, rng: random.Random):
    # there are p^(en) - p^((e-1)n) primitive states; draw all of them if fewer
    count = min(count, ctx.modulus**n - (ctx.modulus // ctx.p) ** n)
    states = {}  # in order of first draw
    while len(states) < count:
        state = tuple(rng.randrange(ctx.modulus) for _ in range(n))
        if any(v % ctx.p for v in state):
            states[state] = None
    return list(states)


def _recurrence_failure(seqs, cert, p, e):
    """First (sequence, j) breaking the shift identity, or for e >= 3 the
    carry identity, as (witness or None, positions compared); each
    identity checked for one j counts one period."""
    checks = 2 if e >= 3 else 1
    positions = 0
    for seq in seqs:
        failure = identity_failure(seq, cert)
        if failure is not None:
            j, identity, t = failure
            positions += (j * checks + (identity == "carry") + 1) * seq.period
            return {"state": list(seq.initial_state), "j": j, "t": t,
                    "identity": identity}, positions
        positions += p * checks * seq.period
    return None, positions


def suite_recurrence(
    p: int = 3, n: int = 2, es=(2, 3, 4), num_states: int = 10, seed: int = 0
) -> list[UniformityReport]:
    """Shift and carry expansion identities over seeded primitive states,
    for every j in [0, p)."""
    reports = []
    for e in es:
        started = time.perf_counter()
        ctx = RingContext(p, e)
        cert = _generator(ctx, n)
        states = _sample_primitive_states(ctx, n, num_states, random.Random(seed))
        witness, positions = _recurrence_failure(
            (generate(cert.f, state) for state in states), cert, p, e)
        params = {
            "p": p, "e": e, "n": n, "f": _fmt_coeffs(cert.f),
            # a constant: the golden report and the benchmark digests pin it
            "states": len(states), "j_max": p - 1, "fallback_reading": False,
        }
        counts = {"positions": positions, "pairs": len(states)}
        reports.append(_report("recurrence", params, witness, counts, False, seed, started))
    return reports


def _period_failure(ctx: RingContext, n: int):
    """First shift class of a primitive f of degree n, over all states,
    whose period or level periods break the period laws, as (witness or
    None, classes checked, generators reached)."""
    p, e = ctx.p, ctx.e
    T = p**n - 1
    orbits = generators = 0
    for f in iter_primitive(ctx, n):
        generators += 1
        for seq in shift_classes(f, primitive=False)[0]:
            orbits += 1
            levels = [level(seq, i) for i in range(e)]
            lowest = next((i for i, lvl in enumerate(levels) if not lvl.is_zero()), None)
            expected = 1 if lowest is None else p ** (e - 1 - lowest) * T
            if seq.period != expected:
                return ({"f": _fmt_coeffs(f), "state": list(seq.initial_state),
                         "period": seq.period, "expected": expected}, orbits, generators)
            for i, lvl in enumerate(levels if lowest == 0 else ()):
                if lvl.period != p**i * T:
                    return ({"f": _fmt_coeffs(f), "state": list(seq.initial_state), "level": i,
                             "period": lvl.period, "expected": p**i * T}, orbits, generators)
    return None, orbits, generators


def suite_periods(p: int = 3, n: int = 2, es=(2, 3)) -> list[UniformityReport]:
    """Period laws for every primitive f and every state, via one
    representative per shift orbit (periods are rotation-invariant)."""
    reports = []
    for e in es:
        started = time.perf_counter()
        witness, orbits, num_f = _period_failure(RingContext(p, e), n)
        params = {"p": p, "e": e, "n": n, "generators": num_f}
        counts = {"positions": orbits, "pairs": num_f}
        reports.append(_report("periods", params, witness, counts, False, 0, started))
    return reports


def _value_set(a: LevelSequence, b: LevelSequence, k: int) -> set[int]:
    span = math.lcm(a.period, b.period)
    return {a.at(t) for t in range(span) if b.at(t) == k}


def _proportional(u: LevelSequence, v: LevelSequence, p: int) -> int | None:
    # lambda with u = lambda * v, if any (0 allowed for the zero sequence).
    span = math.lcm(u.period, v.period)
    for lam in range(p):
        if all(u.at(t) == lam * v.at(t) % p for t in range(span)):
            return lam
    return None


def _linear_relation_failure(ctx: RingContext, n: int):
    """m-sequence pairs over Z/p: dependent pairs give a singleton value
    set, independent pairs reach every value at k != 0. Returns (witness
    or None, cells checked)."""
    p = ctx.p
    cells = 0
    for f in iter_primitive(ctx, n):
        levels = [(s.initial_state, level_sequence(p, s.terms))
                  for s in _sequences(f, primitive=False)]
        for sa, a in levels:
            for sb, b in levels:
                if not any(sb):
                    continue
                lam = _proportional(a, b, p)
                # degree-2 state spaces cannot pair 0 with every value; the
                # law is stated for k != 0
                for k in range(p) if lam is not None else range(1, p):
                    cells += 1
                    got = _value_set(a, b, k)
                    if got != ({lam * k % p} if lam is not None else set(range(p))):
                        return {"f": _fmt_coeffs(f), "a_state": list(sa), "b_state": list(sb),
                                "k": k, "got": sorted(got)}, cells
    return None, cells


def _relation_failure(ctx: RingContext, n: int):
    """Top-level value sets of any recurring sequence at marker positions:
    all of Z/p, or a singleton in the fully-degenerate proportional case.
    Exhaustive over states, markers and k for the first two generators;
    returns (witness or None, cells checked)."""
    p, e = ctx.p, ctx.e
    cells = 0
    for f in itertools.islice(iter_primitive(ctx, n), 2):
        f1 = RingPolynomial(RingContext(p, 1), tuple(c % p for c in f.coeffs))
        gammas = [level_sequence(p, s.terms) for s in _sequences(f1)]
        for c_seq in _sequences(f, primitive=False):
            c_top = level(c_seq, e - 1)
            lower_zero = all(level(c_seq, i).is_zero() for i in range(e - 1))
            for gamma in gammas:
                for k in range(1, p):
                    cells += 1
                    got = _value_set(c_top, gamma, k)
                    if len(got) == p:
                        continue
                    lam = _proportional(c_top, gamma, p) if len(got) == 1 else None
                    if not lower_zero or lam is None or got != {lam * k % p}:
                        return {"f": _fmt_coeffs(f), "state": list(c_seq.initial_state), "k": k,
                                "got": sorted(got)}, cells
    return None, cells


def _highest_level_failure(ctx: RingContext, n: int):
    """Proportional markers: if the top levels differ by delta + lam * (.)
    wherever alpha = k, then lam = 1, the lower levels agree, and the
    top-level difference is delta * k^{-1} * alpha. Exhaustive over state
    pairs for the first two strongly primitive generators; returns
    (witness or None, cells checked)."""
    p, e = ctx.p, ctx.e
    low = p ** (e - 1)
    cells = 0
    for f in itertools.islice(iter_primitive(ctx, n, strongly=True), 2):
        cert = certify(f)
        reps, slots = _atlas(f)
        rep_alphas = _class_alphas(cert)
        period = reps[0].period
        # each state's sequence, top level and alpha (rotated from its class
        # rep's), in lex order of the state
        data = []
        for ci, off in (divmod(i, period) for i in slots):
            seq = reps[ci].shifted(off)
            data.append((seq, level(seq, e - 1), rep_alphas[ci].shifted(off)))
        for a_seq, a_top, alpha in data:
            for b_seq, b_top, beta in data:
                lam = _proportional(beta, alpha, p)
                if not lam:  # None, or the zero multiple
                    continue
                span = math.lcm(a_seq.period, b_seq.period, alpha.period)
                for k in range(1, p):
                    deltas = {(b_top.at(t) - lam * a_top.at(t)) % p
                              for t in range(span) if alpha.at(t) == k}
                    if len(deltas) != 1:
                        continue
                    cells += 1
                    delta = deltas.pop()
                    kinv = pow(k, p - 2, p)
                    lower_equal = all(a_seq.at(t) % low == b_seq.at(t) % low for t in range(span))
                    diff_ok = all((b_top.at(t) - a_top.at(t)) % p == delta * kinv * alpha.at(t) % p
                                  for t in range(span))
                    if lam != 1 or not lower_equal or not diff_ok:
                        return {"f": _fmt_coeffs(f), "a_state": list(a_seq.initial_state),
                                "b_state": list(b_seq.initial_state),
                                "k": k, "lambda": lam, "delta": delta}, cells
    return None, cells


def suite_distribution(p: int = 3, n: int = 2, e: int = 2) -> list[UniformityReport]:
    """Value-distribution laws for m-sequence pairs, the top-level value
    sets of a recurring sequence at marked positions, and proportional
    markers forcing equal lower levels; they need n >= 2 and e >= 2."""
    if n < 2 or e < 2:
        raise InvalidInputError(f"the distribution laws need n >= 2 and e >= 2, got n={n}, e={e}")
    reports = []
    for experiment, law, ring_e in (
        ("distribution-linear-relation", _linear_relation_failure, 1),
        ("distribution-relation", _relation_failure, e),
        ("distribution-highest-level", _highest_level_failure, e),
    ):
        started = time.perf_counter()
        witness, cells = law(RingContext(p, ring_e), n)
        reports.append(_report(experiment, {"p": p, "n": n, "e": ring_e}, witness,
                               {"positions": cells, "pairs": 0}, False, 0, started))
    return reports


def _eta_grid(p: int, e: int, seed: int):
    """Canonical eta polynomials: the full table space when it has at most
    1000 tables (all p^p functions at e = 2), a seeded sample of 27
    tables otherwise."""
    arity = e - 1
    size = p**arity
    if p**size <= 1000:
        for values in itertools.product(range(p), repeat=size):
            yield from_table(p, arity, values)
        return
    rng = random.Random(seed)
    for _ in range(27):
        yield from_table(p, arity, [rng.randrange(p) for _ in range(size)])


def suite_alpha_k(
    p: int = 3,
    e: int = 2,
    n: int = 2,
    f_coeffs=None,
    deg_g: int = 1,
    ks=None,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
) -> list[UniformityReport]:
    """Injectivity-from-agreement over a grid of eta maps and markers k."""
    ctx = RingContext(p, e)
    if deg_g not in (1, 2):
        raise InvalidInputError(f"deg g must be 1 or 2 in this suite, got {deg_g}")
    g = UnivariateFn(p, (0,) * deg_g + (1,))  # x^deg_g
    ks = tuple(ks) if ks else tuple(range(1, p))
    for k in ks:  # every marker, before the first cell runs
        _check_marker(p, k)
    if f_coeffs is not None:
        f = RingPolynomial(ctx, tuple(ctx.check(c) for c in f_coeffs))
        if f.degree != n:
            raise InvalidInputError(f"f has degree {f.degree}, but n = {n}")
        cert = certify(f)
    else:
        cert = _generator(ctx, n, strongly=deg_g >= 2)
    reports = []
    for eta in _eta_grid(p, e, seed):
        m = CompressingMap(g=g, eta=eta, e=e)
        for k in ks:
            reports.append(verify_alpha_k_injectivity(cert, m, k, budget, seed))
    return reports


def _scaled_uniform_scan(seqs, phi, lam, s):
    """First disagreement of compress(a) and compress(lam * a) on hitting
    s, over one period of each a in seqs, as (witness or None, positions
    compared); phi is the map's value table on Z/(p^e)."""
    modulus = len(phi)
    split = [(phi[v] == s) != (phi[lam * v % modulus] == s) for v in range(modulus)]
    positions = 0
    for seq in seqs:
        t = next(itertools.compress(itertools.count(), map(split.__getitem__, seq.terms)), None)
        if t is not None:
            return {"state": list(seq.initial_state), "t": t, "s": s}, positions + t + 1
        positions += seq.period
    return None, positions


def suite_thm7(ps=(3, 5), e: int = 2, n: int = 2) -> list[UniformityReport]:
    """Permutation-top maps: compressed a and -a are s-uniform for the
    map constructed for each s; plus the closed form z = 0, w = (p+1)/2
    at g = x, s = 0."""
    reports = []
    for p in ps:
        ctx = RingContext(p, e)
        cert = _generator(ctx, n)
        g = UnivariateFn(p, (0, 1))

        started = time.perf_counter()
        m0 = construct_thm7(g, 0, e)
        zero = (0,) * (e - 1)
        probe = (1,) + (0,) * (e - 2)
        z0, w0 = m0.eta(zero), m0.eta(probe)
        witness = None
        if z0 != 0 or w0 != (p + 1) // 2:
            witness = {"z": z0, "w": w0, "expected_w": (p + 1) // 2}
        reports.append(
            _report("thm7-closed-form", {"p": p, "e": e, "g": "x", "s": 0}, witness,
                    {"positions": 2, "pairs": 0}, False, 0, started)
        )

        reps, walked = shift_classes(cert.f)
        for s in range(p):
            started = time.perf_counter()
            m = construct_thm7(g, s, e)
            witness, positions = _scaled_uniform_scan(
                reps, value_table(m, ctx), ctx.modulus - 1, s)
            params = {"p": p, "e": e, "n": n, "f": _fmt_coeffs(cert.f), "g": "x",
                      "s": s, "eta": format_multipoly(m.eta)}
            counts = {"positions": positions, "pairs": walked}
            reports.append(_report("thm7", params, witness, counts, False, 0, started))
    return reports


def suite_thm8(ps=(5, 7), e: int = 2, n: int = 2) -> list[UniformityReport]:
    """Non-permutation tops with a lambda-closed fibre: compressed a and
    lambda*a are s-uniform for the constructed masked map; permutation
    tops must be rejected as inapplicable."""
    reports = []
    for p in ps:
        ctx = RingContext(p, e)
        cert = _generator(ctx, n)
        g = UnivariateFn(p, (0, 0, 1))
        lam = p - 1

        started = time.perf_counter()
        witness = None
        if construct_thm8(UnivariateFn(p, (0, 1)), 0, lam, 0, e) is not None:
            witness = {"reason": "permutation top was not rejected"}
        reports.append(
            _report("thm8-inapplicable", {"p": p, "e": e, "g": "x"}, witness,
                    {"positions": 1, "pairs": 0}, False, 0, started)
        )

        reps, walked = shift_classes(cert.f)
        for s in range(p):
            started = time.perf_counter()
            m = construct_thm8(g, s, lam, 0, e)
            if m is None:
                reports.append(
                    _report("thm8", {"p": p, "e": e, "s": s, "applicable": False},
                            None, {"positions": 0, "pairs": 0}, False, 0, started)
                )
                continue
            witness, positions = _scaled_uniform_scan(
                reps, value_table(m, ctx), ctx.modulus - 1, s)
            params = {"p": p, "e": e, "n": n, "f": _fmt_coeffs(cert.f), "g": "x^2",
                      "s": s, "lambda": lam, "eta": format_multipoly(m.eta)}
            counts = {"positions": positions, "pairs": walked}
            reports.append(_report("thm8", params, witness, counts, False, 0, started))
    return reports


def suite_thm9(
    ps=(5, 7, 11), e: int = 2, n: int = 2,
    budget: int = DEFAULT_BUDGET, seed: int = 0,
) -> list[UniformityReport]:
    """The number of non-vacuous s-uniform values for g = x^2 with the
    zero-pinned shift mask equals floor(p/4) + 1 and matches the
    image-set prediction."""
    reports = []
    for p in ps:
        started = time.perf_counter()
        ctx = RingContext(p, e)
        cert = _generator(ctx, n, strongly=True)
        w = thm9_choose_w(p)
        g = UnivariateFn(p, (0, 0, 1))
        m = CompressingMap(g=g, eta=psi_zw(p, e, 0, w), e=e)
        uc = count_uniform_s(cert, m, ctx.modulus - 1, budget, seed)
        sq = squares(p)
        predicted = sorted(sq - {(w + v) % p for v in sq})
        expected_count = p // 4 + 1
        witness = None
        if list(uc.holding) != predicted or uc.count != expected_count:
            witness = {"holding": list(uc.holding), "predicted": predicted,
                       "expected_count": expected_count}
        params = {"p": p, "e": e, "n": n, "f": _fmt_coeffs(cert.f), "w": w,
                  "lambda": -1, "count": uc.count,
                  "vacuous": list(uc.vacuous)}
        counts = {"positions": uc.positions, "pairs": uc.pairs}
        reports.append(_report("thm9", params, witness, counts, uc.sampled, seed, started))
    return reports


SUITES = {
    "recurrence": suite_recurrence,
    "carry": suite_carry,
    "periods": suite_periods,
    "distribution": suite_distribution,
    "alpha-k": suite_alpha_k,
    "thm7": suite_thm7,
    "thm8": suite_thm8,
    "thm9": suite_thm9,
    "legendre": suite_legendre,
}

# what `all` runs, in order: every suite at its defaults, alpha-k once
# with g = x on the fixed generator 8,8,1 and once with g = x^2
ALL_SUITES = (
    ("carry", {}), ("legendre", {}), ("recurrence", {}), ("periods", {}),
    ("distribution", {}), ("alpha-k", {"deg_g": 1, "f_coeffs": (8, 8, 1)}),
    ("alpha-k", {"deg_g": 2}), ("thm7", {}), ("thm8", {}), ("thm9", {}),
)

SUITE_NAMES = (*SUITES, "all")


def run_suite(
    name: str,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    **overrides,
) -> list[UniformityReport]:
    """Run a named suite, each override replacing the default of the
    suite parameter it names; `all` runs ALL_SUITES and takes none."""
    if name == "all" and overrides:
        raise InvalidInputError(f"suite 'all' takes no overrides, got {sorted(overrides)}")
    reports = []
    for entry, kwargs in ALL_SUITES if name == "all" else ((name, overrides),):
        if entry not in SUITES:
            raise InvalidInputError(f"unknown suite {entry!r}; choose from {SUITE_NAMES}")
        takes = inspect.signature(SUITES[entry]).parameters
        shared = {k: v for k, v in (("budget", budget), ("seed", seed)) if k in takes}
        # looked up by name, so a wrapper installed on the module attribute
        # (a tracer or profiler) sees the call
        reports += globals()[SUITES[entry].__name__](**kwargs, **shared)
    return reports
