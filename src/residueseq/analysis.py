"""Experiment harness: exhaustive and budgeted checks of the theorems.

Every experiment is a pure function of its parameters and seed and yields
a UniformityReport; a failing verdict always carries a replayable
witness. A work budget guards the two suites whose scans grow without
bound: alpha-k counts 64-bit mask words, thm9 counts p^e value-table
entries per s plus the positions its failing walks read, and the other
suites take none. A scan over its budget falls back to seeded sampling
and marks the report accordingly.
"""

from __future__ import annotations

import bisect
import collections
import copy
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
from .polyring import RingPolynomial, format_coeffs, reduce_mod_p
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


@functools.lru_cache(maxsize=64)
def _level0_period(fp: RingPolynomial) -> int:
    """The least period of the sequence of fp over Z/p from (0, ..., 0, 1):
    for a primitive fp every nonzero state lies on that one cycle, so it is
    the level-0 period of every state nonzero mod p. One generate per
    residue, shared by every lift of fp; bounded."""
    return generate(fp, (0,) * (fp.degree - 1) + (1,)).period


@functools.lru_cache(maxsize=4)
def _fibers(p: int, e: int, n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """By layer i < e, the fiber of states congruent to p^i * (0, ..., 0, 1)
    mod p^(i+1), in lex order: p^((e-1-i)n) states, shared by the generators
    of one ring; bounded, read-only."""
    m, layers = p**e, []
    for i in range(e):
        step = p ** (i + 1)  # entries p^i * (c + p*t), t < p^(e-1-i), c the entry of u
        layers.append(tuple(itertools.product(
            *[range(0, m, step)] * (n - 1), range(p**i, m, step))))
    return tuple(layers)


def _fiber_classes(f: RingPolynomial, t_u: int):
    """Every shift class of f over all states, each once and started at
    some member; t_u is the period of the sequence of f mod p from
    u = (0, ..., 0, 1). Raises RuntimeError when they miss a state.

    A class of layer i holds states p^i * s' with s' nonzero mod p. When
    s' mod p lies on the cycle of f mod p through u, the class meets the
    fiber p^i * u mod p^(i+1) exactly at the offsets k * t_u from a fiber
    state in it. So one walk of each fiber, generating from each fiber
    state no earlier class has met, lists those classes once each. With
    the zero state's class they cover every state exactly when their
    periods sum to p^(en), as they do when f mod p is primitive.
    """
    n = f.degree
    classes = [generate(f, (0,) * n)]
    for fiber in _fibers(f.ctx.p, f.ctx.e, n):
        left = set(fiber)
        for start in fiber:
            if start not in left:
                continue
            s = generate(f, start)
            # the states at offsets k * t_u, entry j read from every t_u-th term
            met = set(zip(*(s.terms[j::t_u] for j in range(n))))
            if not met <= left:
                raise RuntimeError(f"the sequence of {f} from {start} misses its fiber states: "
                                   f"it meets {min(met - left)} at an offset k * {t_u}")
            left -= met
            classes.append(s)
    covered = sum(s.period for s in classes)
    if covered != f.ctx.modulus**n:
        raise RuntimeError(f"the fiber classes of {f} cover {covered} of {f.ctx.modulus**n} states")
    return classes


def _state_count(f: RingPolynomial, primitive: bool = True) -> int:
    """The states shift_classes(f, primitive) covers: m^n - (m/p)^n primitive
    states, or all m^n. f(0) is a unit, so every state lies on a cycle and
    a cycle through a primitive state stays primitive."""
    m, n = f.ctx.modulus, f.degree
    return m**n - (m // f.ctx.p) ** n if primitive else m**n


def _sample_primitive_states(ctx: RingContext, n: int, count: int, rng: random.Random):
    """count distinct primitive states of length n over ctx, drawn by rng
    and listed in order of first draw; all p^(en) - p^((e-1)n) of them
    when count is larger. The recurrence suite and a sampled thm9 count
    draw their states here."""
    count = min(count, ctx.modulus**n - (ctx.modulus // ctx.p) ** n)
    states = {}  # in order of first draw
    while len(states) < count:
        state = tuple(rng.randrange(ctx.modulus) for _ in range(n))
        if any(v % ctx.p for v in state):
            states[state] = None
    return list(states)


def shift_classes(f: RingPolynomial, primitive: bool = True):
    """Shift-class representatives of the sequences of f started from every
    primitive initial state (nonzero mod p), or from every state.

    Returns (reps, walked): reps in lex order of their initial state, each
    the least state of its class, and walked the number of states they
    cover, _state_count(f, primitive). The classes are those of
    _fiber_classes, of layer 0 alone when primitive, each rotated to its
    least state. Verdicts of rotation-invariant checks carry over from the
    rep to the whole class. _atlas adds random access to the states.
    """
    p, reps = f.ctx.p, []
    for s in _fiber_classes(f, _level0_period(reduce_mod_p(f))):
        if primitive and not any(v % p for v in s.initial_state):
            continue
        codes = list(_state_codes(s))
        reps.append(s.shifted(codes.index(min(codes))))
    reps.sort(key=lambda s: s.initial_state)
    return reps, _state_count(f, primitive)


@functools.lru_cache(maxsize=2)
def _atlas(f: RingPolynomial, primitive: bool = True):
    """(reps, slots) for shift_classes(f, primitive): slots gives the states
    in lex order, each by its place in the periods of reps laid end to end,
    ci * L + offset when every period is L. Random access to the states,
    cached and bounded for the cells that share f; read-only."""
    reps, _ = shift_classes(f, primitive)
    where = array("q", [-1]) * f.ctx.modulus**f.degree
    for i, c in enumerate(itertools.chain.from_iterable(map(_state_codes, reps))):
        where[c] = i
    return tuple(reps), array("q", (i for i in where if i >= 0))


def _lex_reps(f: RingPolynomial):
    """The reps of shift_classes(f), one at a time. The class through
    (0, ..., 0, 1), the lex-first primitive state, is generated alone; the
    others are enumerated only once it is read past."""
    yield generate(f, (0,) * (f.degree - 1) + (1,))
    yield from shift_classes(f)[0][1:]


@functools.lru_cache(maxsize=2)
def _class_alphas(cert: PrimitivityCertificate) -> tuple[LevelSequence, ...]:
    """alpha_sequence of each class rep of _atlas(cert.f), built once for
    the cells that share the generator; read-only."""
    return tuple(alpha_sequence(rep, cert) for rep in _atlas(cert.f)[0])


@functools.lru_cache(maxsize=2)
def _alpha_k_frame(cert: PrimitivityCertificate):
    """(marks, gaps, masks): the part of the alpha-k cells of cert that no
    map changes, built once for the cells that share the generator;
    read-only. With L the period of the reps of _atlas(cert.f):
    - marks[ci][k], the positions t < L where class ci's alpha is k, ascending;
    - gaps[ci][k][c], the number of starts r < L whose first k-position at
      or after r, cyclically, is mark c: m_c - m_(c-1), and
      m_0 + L - m_(K-1) at c = 0, or L at c = 0 when there is no mark;
    - masks[v], the state bits ci*L + r whose rep term is the residue v.
    """
    reps = _atlas(cert.f)[0]
    period = reps[0].period
    marks, gaps = [], []
    for alpha in _class_alphas(cert):
        by_k = [[] for _ in range(cert.f.ctx.p)]
        for t in range(period):
            by_k[alpha.at(t)].append(t)
        marks.append(tuple(map(tuple, by_k)))
        gaps.append(tuple((ts[0] + period - ts[-1], *map(operator.sub, ts[1:], ts[:-1]))
                          if ts else (period,) for ts in by_k))
    masks = [0] * cert.f.ctx.modulus
    for i, v in enumerate(itertools.chain.from_iterable(rep.terms for rep in reps)):
        masks[v] |= 1 << i
    return tuple(marks), tuple(gaps), tuple(masks)


# ---------------------------------------------------------------------------
# agreement at the marker value k

def _walk_row(live, abit, masks):
    """Compares the pairwise scan makes between row a (bit abit) and the
    states in live, at the list of agreement masks of a's k-positions;
    returns them and the states of live that agree with a everywhere."""
    checked = 0
    for done, mask in enumerate(masks):
        if live in (0, abit):
            # a alone is left, if anything: it agrees with itself from here on
            checked += (len(masks) - done) * bool(live)
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
    distinct states in lex order. A state's masks are its class rep's,
    each rotated back by the state's offset, so one walk per (class,
    cyclic start) settles every row, and a holding cell counts each
    walk's compares once per state of its gap. The part no map changes
    (marks, gaps, residue masks) is _alpha_k_frame's, one per generator.

    The budget counts 64-bit mask words, one N-bit mask per row: when
    fewer than N rows fit, a seeded sample of max(1, budget // ceil(N/64))
    rows is walked, in lex order, and the report is marked sampled.

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
    marks, gaps, masks = _alpha_k_frame(cert)
    marks, gaps = [by_k[k] for by_k in marks], [by_k[k] for by_k in gaps]
    # state (ci, r) is bit ci*L + r: every primitive state of f has the same
    # least period L, so a rotation of every L-bit block rotates every class
    period = reps[0].period
    total = len(slots)
    full = (1 << total) - 1
    blocks = sum(1 << (ci * period) for ci in range(len(reps)))
    by_value = [0] * p  # by map value, the states whose rep term takes it
    for v, mask in enumerate(masks):
        by_value[table[v]] |= mask

    def rotated(mask, s):
        """Every L-bit block of mask rotated: bit q takes bit (q + s) % L, 0 <= s <= L."""
        low = (blocks << (period - s)) - blocks
        return (mask >> s) & low | (mask << (period - s)) & (full ^ low)

    def rep_masks(ci):
        """At each k-position t of class ci's rep, the states whose value at t is the rep's."""
        terms = reps[ci].terms
        return [rotated(by_value[table[terms[t]]], t) for t in marks[ci]]

    def cut_of(ia):
        """The (class, cut) that state ia walks."""
        ci, r = divmod(slots[ia], period)
        return ci, bisect.bisect_left(marks[ci], r) % (len(marks[ci]) or 1)

    # state (ci, r) walks its rep's masks from cut = bisect_left(marks[ci], r),
    # rotated by -r, which popcounts and the early exit do not see: its compares
    # depend on (ci, cut) alone, and a class fails at all of its states or none;
    # weights counts the walked states of each (ci, cut)
    allowed = max(1, budget // -(-total // 64))
    sampled = allowed < total
    if sampled:
        walk = sorted(random.Random(seed).sample(range(total), allowed))
        weights = collections.Counter(map(cut_of, walk))
    else:
        walk = range(total)
        weights = {(ci, cut): n for ci, gap in enumerate(gaps) for cut, n in enumerate(gap)}
    walked = {}
    for ci, cuts in itertools.groupby(sorted(weights), operator.itemgetter(0)):
        rep, abit = rep_masks(ci), 1 << ci * period
        for _, cut in cuts:
            done, agreeing = _walk_row(full, abit, rep[cut:] + rep[:cut])
            walked[ci, cut] = done, agreeing & ~abit != 0

    witness = None
    pairs = len(walk) * total
    if not any(fails for _, fails in walked.values()):
        checked = sum(walked[key][0] * n for key, n in weights.items())
    else:
        # the first walked state a whose class fails, after the compares of
        # the rows before it; then the pairwise scan of row a: each b in lex
        # order, compared at a's k-positions in a's frame up to the first
        # mismatch, until the first b other than a that agrees at all of them
        j, ia = next((j, ia) for j, ia in enumerate(walk) if walked[cut_of(ia)][1])
        checked = sum(walked[cut_of(i)][0] for i in walk[:j])
        rows = [[table[v] for v in rep.terms] for rep in reps]
        ci, r = divmod(slots[ia], period)
        ts = sorted((t - r) % period for t in marks[ci])
        seen = [rows[ci][(t + r) % period] for t in ts]
        for ib, b in enumerate(slots):
            row, rb = rows[b // period], b % period
            miss = next((i for i, (t, v) in enumerate(zip(ts, seen))
                         if row[(t + rb) % period] != v), None)
            checked += len(ts) if miss is None else miss + 1
            if miss is None and ib != ia:
                break
        pairs = j * total + ib + 1
        states = (divmod(slots[i], period) for i in (ia, ib))
        a_state, b_state = (list(reps[c].state_at(s)) for c, s in states)
        witness = {"a_state": a_state, "b_state": b_state, "k": k}

    params = {
        "p": p,
        "e": ctx.e,
        "n": cert.n,
        "f": format_coeffs(cert.f),
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
    g: UnivariateFn, s: int, lam: int, r: int, e: int
) -> CompressingMap | None:
    """Map g(x_top) + psi_{z,W} whose compressed sequences for a and
    lambda*a are s-uniform; None when the construction does not apply.

    Needs a non-permutation g whose fibre over r is closed under scaling
    by lambda, and a nonempty W = {w : s not in w + image(g)}. The
    off-zero values of psi are free in W; they are the constant min(W),
    never chosen randomly.
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
    return CompressingMap(g=g, eta=psi_zw(p, e, z, min(allowed)), e=e)


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
    separately. Every other s is settled by _scaled_uniform_scan: one pass
    over its table of p^e split flags, and for a failing s a walk of the
    shift classes to its first disagreement, shared across s. The budget
    prices p^e entries per s plus the positions the failing walks read;
    once the running total would pass it, the scan instead draws
    max(1, budget // (period * p)) seeded primitive states as the
    recurrence suite does, reads them in lex order and generates each
    once, so it walks no class.
    """
    ctx = cert.f.ctx
    p = ctx.p
    if not cert.strongly_primitive:
        raise InvalidInputError("the count needs a strongly primitive polynomial")
    lam %= ctx.modulus
    if lam % p == 0:
        raise InvalidInputError("the scaling factor must be a unit")
    phi = value_table(m, ctx)
    img = set(phi)
    scan = [s for s in range(p) if s in img]

    # a tee that is never advanced keeps every rep a copy has read: the
    # failing s share one read of the classes, each from the first rep
    classes = itertools.tee(_lex_reps(cert.f), 1)[0]
    verdicts: dict[int, tuple] = {}
    spent = 0
    for s in scan:
        spent += ctx.modulus
        if spent > budget:
            break
        witness, positions = _scaled_uniform_scan(
            cert.f, copy.copy(classes), phi, lam, s, budget - spent)
        if positions is None:
            break
        verdicts[s] = witness, positions
        if witness is not None:
            spent += positions
    pairs = _state_count(cert.f)
    sampled = len(verdicts) < len(scan)
    if sampled:
        # every primitive state has period cert.period; in lex order, the
        # witness of s is its first failing state drawn
        states = sorted(_sample_primitive_states(
            ctx, cert.n, max(1, budget // (cert.period * p)), random.Random(seed)))
        seqs = [generate(cert.f, state) for state in states]
        pairs = len(seqs)
        verdicts = {s: _first_split(seqs, _split_values(phi, lam, s), s) for s in scan}

    return UniformCount(
        holding=tuple(s for s, (witness, _) in verdicts.items() if witness is None),
        vacuous=tuple(s for s in range(p) if s not in img),
        failing={s: witness for s, (witness, _) in verdicts.items() if witness is not None},
        pairs=pairs,
        positions=sum(positions for _, positions in verdicts.values()),
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
            "p": p, "e": e, "n": n, "f": format_coeffs(cert.f),
            # a constant: the golden report and the benchmark digests pin it
            "states": len(states), "j_max": p - 1, "fallback_reading": False,
        }
        counts = {"positions": positions, "pairs": len(states)}
        reports.append(_report("recurrence", params, witness, counts, False, seed, started))
    return reports


def _class_period_failure(seq: LRSequence, t_u: int, T: int):
    """How the shift class of seq breaks the period laws, as the witness
    fields after f, or None; t_u is the level-0 period of a state nonzero
    mod p. Its period and its level periods do not change under rotation,
    so every member of the class gives the same verdict."""
    p, e = seq.f.ctx.p, seq.f.ctx.e
    levels = [level(seq, i) for i in range(1, e)]
    if any(v % p for v in seq.initial_state):
        lowest = 0
    else:
        lowest = next((i for i, lvl in enumerate(levels, 1) if not lvl.is_zero()), None)
    expected = 1 if lowest is None else p ** (e - 1 - lowest) * T
    if seq.period != expected:
        return {"state": list(seq.initial_state), "period": seq.period, "expected": expected}
    if lowest != 0:
        return None
    for i, period in enumerate([t_u] + [lvl.period for lvl in levels]):
        if period != p**i * T:
            return {"state": list(seq.initial_state), "level": i,
                    "period": period, "expected": p**i * T}
    return None


def _period_failure(ctx: RingContext, n: int):
    """First shift class of a primitive f of degree n, over all states,
    whose period or level periods break the period laws, as (witness or
    None, classes checked, generators reached).

    Level 0 of the sequence of f from s is the sequence of f mod p from
    s mod p: it is zero exactly when s is zero mod p, and otherwise its
    period is _level0_period of f mod p. A generator is settled by its
    classes from _fiber_classes, each checked from the member it starts
    at: the verdicts do not change under rotation, so when every class
    holds, f adds its class count. When one fails, shift_classes lists
    them again in lex order, each from its least state, which gives the
    least failing state as the witness and the classes checked up to it."""
    T = ctx.p**n - 1
    orbits = generators = 0
    for f in iter_primitive(ctx, n):
        generators += 1
        t_u = _level0_period(reduce_mod_p(f))
        classes = _fiber_classes(f, t_u)
        if not any(_class_period_failure(seq, t_u, T) for seq in classes):
            orbits += len(classes)
            continue
        for seq in shift_classes(f, primitive=False)[0]:
            orbits += 1
            failure = _class_period_failure(seq, t_u, T)
            if failure is not None:
                return {"f": format_coeffs(f), **failure}, orbits, generators
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


def _level_atlas(f: RingPolynomial, primitive: bool = True):
    """_atlas(f, primitive) for f over Z/p, and each rep as a level sequence."""
    reps, slots = _atlas(f, primitive)
    return reps, slots, [(level_sequence(f.ctx.p, rep.terms),) for rep in reps]


def _pair_law(gens, first, cell, second=None, names=("a_state", "b_state")):
    """(witness or None, cells) of a law over the pairs (a, b) of states of
    each f in gens, failing at its lex-first failing pair. first(f) and
    second(f) give an _atlas and, by class, a tuple of the rep's sequences;
    with no second, b runs over the states of first(f) too.

    cell(a, b) gives (cells, failure or None) and must not change when a
    and b rotate together. Each b, in lex order, is rotated once and paired
    with every class rep whose row has not failed; a row ends at its first
    failing b, and only class totals are kept. Since (shift_r rep, b) maps
    one to one onto (rep, shift_-r b), a class counts its rep's row times
    its period, and the first failing a is the rep of the first failing
    class, as a rep is the least state of its class.
    """
    cells = 0
    for f in gens:
        b_reps, b_slots, b_data = member = (second or first)(f)
        reps, slots, data = first(f) if second else member
        b_at = [(cb, r) for cb, rep in enumerate(b_reps) for r in range(rep.period)]
        a_class = [ci for ci, rep in enumerate(reps) for _ in range(rep.period)]
        totals, failed = [0] * len(reps), [None] * len(reps)
        for cb, rb in map(b_at.__getitem__, b_slots):
            b = tuple(s.shifted(rb) for s in b_data[cb])
            for ci, a in enumerate(data):
                if failed[ci] is None:
                    got, found = cell(a, b)
                    totals[ci] += got
                    if found is not None:
                        failed[ci] = found, cb, rb
        for ci in map(a_class.__getitem__, slots):
            cells += totals[ci]
            if failed[ci] is not None:
                found, cb, rb = failed[ci]
                states = map(list, (reps[ci].initial_state, b_reps[cb].state_at(rb)))
                return {"f": format_coeffs(f), **dict(zip(names, states)), **found}, cells
    return None, cells


def _linear_relation_failure(ctx: RingContext, n: int):
    """m-sequence pairs over Z/p: dependent pairs give a singleton value
    set, independent pairs reach every value at k != 0. Returns (witness
    or None, cells checked)."""
    p = ctx.p

    def cell(a, b):
        (a,), (b,) = a, b
        if b.is_zero():
            return 0, None
        lam = _proportional(a, b, p)
        # degree-2 state spaces cannot pair 0 with every value; the law is
        # stated for k != 0
        ks = range(p) if lam is not None else range(1, p)
        for k in ks:
            got = _value_set(a, b, k)
            if got != ({lam * k % p} if lam is not None else set(range(p))):
                return k + 1 - ks[0], {"k": k, "got": sorted(got)}
        return len(ks), None

    return _pair_law(iter_primitive(ctx, n), functools.partial(_level_atlas, primitive=False), cell)


def _relation_failure(ctx: RingContext, n: int):
    """Top-level value sets of any recurring sequence at marker positions:
    all of Z/p, or a singleton in the fully-degenerate proportional case.
    Exhaustive over states, markers and k for the first two generators;
    returns (witness or None, cells checked)."""
    p, e = ctx.p, ctx.e

    def states(f):
        reps, slots = _atlas(f, primitive=False)
        return reps, slots, [(level(c, e - 1), all(level(c, i).is_zero() for i in range(e - 1)))
                             for c in reps]

    def cell(c, gamma):
        (top, lower_zero), (gamma,) = c, gamma
        for k in range(1, p):
            got = _value_set(top, gamma, k)
            if len(got) == p:
                continue
            lam = _proportional(top, gamma, p) if len(got) == 1 else None
            if not lower_zero or lam is None or got != {lam * k % p}:
                return k, {"k": k, "got": sorted(got)}
        return p - 1, None

    return _pair_law(itertools.islice(iter_primitive(ctx, n), 2), states, cell,
                     second=lambda f: _level_atlas(reduce_mod_p(f)), names=("state",))


def _highest_level_failure(ctx: RingContext, n: int):
    """Proportional markers: if the top levels differ by delta + lam * (.)
    wherever alpha = k, then lam = 1, the lower levels agree, and the
    top-level difference is delta * k^{-1} * alpha. Exhaustive over state
    pairs for the first two strongly primitive generators; returns
    (witness or None, cells checked)."""
    p, e = ctx.p, ctx.e
    low = p ** (e - 1)

    def states(f):
        reps, slots = _atlas(f)
        alphas = _class_alphas(certify(f))
        return reps, slots, [(rep, level(rep, e - 1), alpha) for rep, alpha in zip(reps, alphas)]

    def cell(a, b):
        (a_seq, a_top, alpha), (b_seq, b_top, beta) = a, b
        lam = _proportional(beta, alpha, p)
        if not lam:  # None, or the zero multiple
            return 0, None
        span = math.lcm(a_seq.period, b_seq.period, alpha.period)
        lower_equal = all(a_seq.at(t) % low == b_seq.at(t) % low for t in range(span))
        cells = 0
        for k in range(1, p):
            deltas = {(b_top.at(t) - lam * a_top.at(t)) % p
                      for t in range(span) if alpha.at(t) == k}
            if len(deltas) != 1:
                continue
            cells += 1
            delta = deltas.pop()
            kinv = pow(k, p - 2, p)
            diff_ok = all((b_top.at(t) - a_top.at(t)) % p == delta * kinv * alpha.at(t) % p
                          for t in range(span))
            if lam != 1 or not lower_equal or not diff_ok:
                return cells, {"k": k, "lambda": lam, "delta": delta}
        return cells, None

    return _pair_law(itertools.islice(iter_primitive(ctx, n, strongly=True), 2), states, cell)


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


def _split_values(phi, lam, s) -> list[bool]:
    """By v in Z/(p^e), whether exactly one of phi(v) and phi(lam * v) is s;
    phi is the map's value table on Z/(p^e)."""
    modulus = len(phi)
    return [(phi[v] == s) != (phi[lam * v % modulus] == s) for v in range(modulus)]


def _first_split(seqs, split, s, limit=math.inf):
    """First disagreement of compress(a) and compress(lam * a) on hitting
    s, over one period of each a in seqs, as (witness or None, positions
    compared), or (None, None) once the positions would pass limit; split
    is _split_values(phi, lam, s). seqs are read one at a time."""
    positions = 0
    for seq in seqs:
        t = next(itertools.compress(itertools.count(), map(split.__getitem__, seq.terms)), None)
        positions += seq.period if t is None else t + 1
        if positions > limit:
            return None, None
        if t is not None:
            return {"state": list(seq.initial_state), "t": t, "s": s}, positions
    return None, positions


def _scaled_uniform_scan(f, reps, phi, lam, s, limit=math.inf):
    """_first_split over the sequences of f from every primitive state, as
    (witness or None, positions compared), or (None, None) past limit;
    reps, one sequence per shift class of f in lex order, are read only
    when s fails, up to its first disagreement.

    Whether any term splits rests on which values the sequences reach, a
    fact of arithmetic and not the uniformity law under test: each term
    is the first entry of a primitive state and each such entry starts a
    sequence, so they reach all of Z/(p^e) for n >= 2, as (v, 1, 0, ...)
    is primitive, and the units for n = 1. So s holds exactly when no
    reached value splits, and the full scan would have compared every
    primitive state once.
    """
    split = _split_values(phi, lam, s)
    if f.degree == 1:  # the multiples of p are out of reach
        split[::f.ctx.p] = [False] * len(split[::f.ctx.p])
    if not any(split):
        return None, _state_count(f)
    return _first_split(reps, split, s, limit)


def _negation_cell(experiment, cert, m, s, params) -> UniformityReport:
    """The report that compressed a and -a are s-uniform under m, over every
    primitive a of cert.f; params names the suite's map and joins the
    ring, generator, s and eta."""
    started = time.perf_counter()
    ctx = cert.f.ctx
    witness, positions = _scaled_uniform_scan(
        cert.f, _lex_reps(cert.f), value_table(m, ctx), ctx.modulus - 1, s)
    params = {"p": ctx.p, "e": ctx.e, "n": cert.n, "f": format_coeffs(cert.f), "s": s,
              "eta": format_multipoly(m.eta), **params}
    counts = {"positions": positions, "pairs": _state_count(cert.f)}
    return _report(experiment, params, witness, counts, False, 0, started)


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

        for s in range(p):
            reports.append(_negation_cell("thm7", cert, construct_thm7(g, s, e), s, {"g": "x"}))
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

        for s in range(p):
            reports.append(_negation_cell("thm8", cert, construct_thm8(g, s, lam, 0, e), s,
                                          {"g": "x^2", "lambda": lam}))
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
        params = {"p": p, "e": e, "n": n, "f": format_coeffs(cert.f), "w": w,
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
