"""Buchberger's algorithm and deterministic polynomial reduction.

The engine works on coefficient dicts keyed by packed monomials and builds
``Polynomial`` and ``Fraction`` objects only for its results.  Over GF(p)
coefficients are ints in [0, p).  Over Q they are ints and reduction is
fraction-free: to cancel c*m by a divisor with lead coefficient lc, the
work, remainder and quotients are multiplied by lc / gcd(c, lc), whose
running product is the ``scale``.  Both lanes take the field's steps.

A monomial is one ``int`` (Monagan & Pearce, CASC 2007).  Each block of the
order (grevlex one, ``elim`` two, lex one per variable) has fields, most
significant first, for its degree and its variables from last to first (a
lone variable is its own degree), each with a top guard bit.  Variable
fields are stored complemented (``^ flip``), so the order is ``int``
comparison.  A product is one ``+`` of a term and a quotient's shift, a | b
is ``not (b - a) & guard`` uncomplemented, and an lcm is a field-wise max
whose block degrees one multiply re-sums.  An input, lcm or popped term
with a guard bit out of place raises ``_Overflow``, and the caller restarts
at twice the field width.

Pairs are taken least lcm first, ties by index, and pruned by the
Gebauer-Moeller update (Becker and Weispfenning's B_k, M and F criteria).
S-polynomials are reduced by every divisor found, rewriting the greatest
term by the first one in index order that divides it, so runs agree; a
minimalize / inter-reduce / monic pass gives the unique reduced basis.  A
``GroebnerBasis`` keeps the packed divisors of its last division (or of
``buchberger``) for the next one at the same width, and its ``key()``,
outside its value, ``repr`` and pickle.
"""

from __future__ import annotations

import dataclasses
import heapq
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm
from operator import itemgetter, mul

from .errors import StructuralError
from .fields import PrimeField
from .polynomials import GREVLEX, MonomialOrder, PolyRing, Polynomial, mono_div, mono_divides, mono_lcm, mono_mask

_START_WIDTH = 8  # bits per field, guard included; doubled on overflow


class _Overflow(Exception):
    """An exponent reached a guard bit: widen the fields and restart."""


class _Packer:
    """Monomials in ``nvars`` variables under ``order``, packed in fields of ``width`` bits."""

    def __init__(self, nvars: int, order: MonomialOrder, width: int):
        k = nvars if order.kind == "grevlex" else min(order.block, nvars)
        blocks = [(i, i + 1) for i in range(nvars)] if order.kind == "lex" else [(0, k), (k, nvars)]
        field = (1 << width) - 1
        self.width, self.limit, self.blocks = width, field >> 1, [(a, b) for a, b in blocks if b > a]
        self.weights, self.offsets, self.sums, self.flip, pos = [0] * nvars, [0] * nvars, [], 0, 0
        for a, b in reversed(self.blocks):  # the last block takes the lowest bits
            low = pos
            for i in range(a, b):  # the first variable lowest, then the degree
                self.offsets[i], self.weights[i] = pos, 1 << pos
                pos += width if b - a > 1 else 0
            if b - a > 1:
                self.flip |= (1 << pos) - (1 << low)
                self.weights[a:b] = [(1 << pos) - w for w in self.weights[a:b]]
                ones = sum(1 << j for j in range(0, pos - low, width))
                self.sums.append((low, (1 << pos - low) - 1, ones, low + width, field << pos))
            pos += width
        self.guard = sum(1 << j + width - 1 for j in range(0, pos, width))
        self.valid = self.guard & self.flip  # the guard bits of a packed monomial

    def pack(self, terms: dict) -> dict:
        """Tuple-keyed terms with packed keys, in the same order."""
        limit = self.limit
        if max(map(sum, terms), default=0) > limit and any(sum(m[a:b]) > limit for m in terms for a, b in self.blocks):
            raise _Overflow
        weights, flip = self.weights, self.flip
        return {sum(map(mul, m, weights), flip): c for m, c in terms.items()}

    def unpack(self, e: int) -> tuple:
        e ^= self.flip
        return tuple(e >> off & self.limit for off in self.offsets)

    def lcm(self, a: int, b: int) -> int:
        """The lcm of two uncomplemented packed monomials, uncomplemented."""
        guard = self.guard
        ge = ((a | guard) - b) & guard  # the guard bit of each field where a >= b
        keep = ge - (ge >> self.width - 1)
        m = a & keep | b & ~keep
        for low, span, ones, shift, degree in self.sums:
            m = m & ~degree | ((m >> low & span) * ones << shift) & degree
        if m & guard:
            raise _Overflow
        return m


_packer = lru_cache(maxsize=256)(_Packer)  # one per (nvars, order, width)


def _at_any_width(ring: PolyRing, order: MonomialOrder, width: int, attempt):
    """attempt(packer) from ``width`` bits per field, doubled until nothing overflows."""
    while True:
        try:
            return attempt(_packer(ring.nvars, order, width))
        except _Overflow:
            width *= 2


@dataclasses.dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis: monic, inter-reduced, sorted descending."""

    ring: PolyRing
    order: MonomialOrder
    generators: tuple
    # (width, k_i per generator, packed divisors of the nonzero k_i * g_i)
    _packed: tuple | None = dataclasses.field(default=None, compare=False, repr=False)
    _key: tuple | None = dataclasses.field(default=None, compare=False, repr=False)  # key(), once computed

    def __reduce__(self):
        return GroebnerBasis, (self.ring, self.order, self.generators)

    def is_unit(self) -> bool:
        """True when the basis presents the unit ideal."""
        return len(self.generators) == 1 and self.generators[0].is_constant() and not self.generators[0].is_zero()

    def contains(self, f: Polynomial) -> bool:
        return normal_form(f, self).is_zero()

    def key(self) -> tuple:
        if self._key is None:
            object.__setattr__(self, "_key", tuple(g.key() for g in self.generators))
        return self._key


def _modulus(ring: PolyRing) -> int:
    """p over GF(p); 0 over Q, which selects the fraction-free lane."""
    return ring.field.p if isinstance(ring.field, PrimeField) else 0


def _integral(terms: dict) -> tuple:
    """(k, k * terms) for the least k > 0 that makes every coefficient an
    integer and their gcd 1.  k is positive, so every sign is kept."""
    den = reduce(lcm, (c.denominator for c in terms.values()), 1)
    ints = {m: c.numerator * (den // c.denominator) for m, c in terms.items()}
    content = reduce(gcd, ints.values(), 0) or 1
    return Fraction(den, content), {m: c // content for m, c in ints.items()}


def _divisor(terms: dict, flip: int, p: int, index: int) -> tuple:
    """(uncomplemented lead, lead, lc, tail terms, index) of packed terms as ``_reduce``
    reads them; lc is the lead coefficient over Q and its inverse over GF(p)."""
    lm = max(terms)
    lc = pow(terms[lm], -1, p) if p else terms[lm]
    return lm ^ flip, lm, lc, [(m, c) for m, c in terms.items() if m != lm], index


def _subtract(work: dict, c: int, shift: int, tail: list, p: int):
    """work -= c * u * tail in place, shift = packed u - packed 1; cancelled terms are dropped."""
    for m, gc in tail:
        mm = m + shift
        s = work.get(mm, 0) - c * gc
        if p:
            s %= p
        if s:
            work[mm] = s
        else:
            del work[mm]


def _reduce(work: dict, divisors: list, p: int, packer: _Packer, quotients=None) -> tuple:
    """Fully reduce the packed dict ``work`` (consumed) by ``divisors``.

    Returns (remainder, scale) with scale * work == sum q_i g_i + remainder,
    where g_i is the divisor with index i and q_i the dict ``quotients[i]``,
    filled in when given (not reduced mod p); scale is 1 over GF(p).
    """
    flip, guard, valid = packer.flip, packer.guard, packer.valid
    remainder = {}
    scale = 1
    while work:
        m = max(work)
        c = work.pop(m)
        if m & guard != valid:
            raise _Overflow
        um = m ^ flip
        for ul, lm, lc, tail, index in divisors:
            if not um - ul & guard:
                break
        else:
            remainder[m] = c
            continue
        if p:
            qc = c * lc % p
        else:
            g = gcd(c, lc)
            qc, a = c // g, lc // g
            if a != 1:
                scale *= a
                for d in (work, remainder, *(quotients or ())):
                    for k in d:
                        d[k] *= a
        shift = m - lm
        if quotients is not None:
            q = quotients[index]
            q[shift + flip] = q.get(shift + flip, 0) + qc
        _subtract(work, qc, shift, tail, p)
    return remainder, scale


def normal_form(f: Polynomial, basis, order: MonomialOrder | None = None) -> Polynomial:
    """Remainder of f under full reduction by the given polynomials.

    ``basis`` may be a GroebnerBasis (its order is used) or any list of
    polynomials with an explicit order.  Against a Groebner basis the
    remainder is the canonical normal form; membership is remainder 0.
    """
    return _divide(f, basis, order, False)[0]


def normal_form_with_quotients(f: Polynomial, basis, order: MonomialOrder | None = None):
    """Full reduction returning (remainder, quotients).

    f == sum(q_i * g_i) + remainder holds exactly, and no remainder
    monomial is divisible by any leading monomial of the divisors.
    """
    return _divide(f, basis, order, True)


def exact_divide(f: Polynomial, g: Polynomial):
    """f / g when g divides f exactly, else None."""
    if g.is_zero():
        return None
    r, q = normal_form_with_quotients(f, [g], GREVLEX)
    return q[0] if r.is_zero() else None


def _divide(f: Polynomial, basis, order, with_quotients: bool):
    stored = None
    if isinstance(basis, GroebnerBasis):
        gens, order, stored = basis.generators, basis.order, basis._packed
    else:
        gens = list(basis)
        if order is None:
            raise StructuralError("an explicit order is required for raw divisor lists")
    ring = f.ring
    for g in gens:
        if g.ring != ring:
            raise StructuralError("divisor in a different ring")
    p = _modulus(ring)
    # Over Q, k_f * f is divided by the k_i * g_i, all with integer terms.
    k_f, terms = (1, f.terms) if p else _integral(f.terms)

    def attempt(packer):
        divisors = stored
        if divisors is None or divisors[0] != packer.width:
            scaled = [(1, g.terms) if p or g.is_zero() else _integral(g.terms) for g in gens]
            divisors = packer.width, [k for k, _ in scaled], [
                _divisor(packer.pack(t), packer.flip, p, i) for i, (_, t) in enumerate(scaled) if t]
        quotients = [{} for _ in gens] if with_quotients else None
        return packer, divisors, quotients, _reduce(packer.pack(terms), divisors[2], p, packer, quotients)

    packer, stored, quots, (rem, scale) = _at_any_width(ring, order, stored[0] if stored else _START_WIDTH, attempt)
    if isinstance(basis, GroebnerBasis):
        object.__setattr__(basis, "_packed", stored)
    k = k_f * scale

    def back(terms, k_i=1):  # undo the integer scaling, or reduce mod p
        return Polynomial(ring, {packer.unpack(m): c % p if p else c * k_i / k for m, c in terms.items()})

    return back(rem), [back(q, k_i) for q, k_i in zip(quots or (), stored[1])]


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    lf, cf = f.leading_term(order)
    lg, cg = g.leading_term(order)
    lcm = mono_lcm(lf, lg)
    field = f.ring.field
    mf = f.ring.monomial(mono_div(lcm, lf), field.div(field.one, cf))
    mg = f.ring.monomial(mono_div(lcm, lg), field.div(field.one, cg))
    return mf * f - mg * g


def _minimal_monomial_set(monos):
    keep = []
    for m in sorted(set(monos), key=lambda t: (sum(t), t)):
        mask = mono_mask(m)  # k | m needs k's support inside m's
        if not any(km & ~mask == 0 and mono_divides(k, m) for km, k in keep):
            keep.append((mask, m))
    return [m for _, m in keep]


def buchberger(gens, order: MonomialOrder = GREVLEX, ring: PolyRing | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    Monomial input short-circuits to the minimal monomial generating
    set, which is the reduced basis in that case; the equivalence with
    the general loop is covered by tests.
    """
    gens = list(gens)
    if ring is None:
        if not gens:
            raise StructuralError("cannot infer the ring of an empty generator list")
        ring = gens[0].ring
    gens = [g for g in gens if not g.is_zero()]
    for g in gens:
        if g.ring != ring:
            raise StructuralError("generators live in different rings")
    if not gens:
        return GroebnerBasis(ring, order, ())

    if all(g.is_monomial() for g in gens):
        monos = _minimal_monomial_set([next(iter(g.terms)) for g in gens])
        return GroebnerBasis(ring, order, tuple(ring.monomial(m) for m in sorted(monos, key=order.key(), reverse=True)))

    p = _modulus(ring)
    inputs = [g.terms if p else _integral(g.terms)[1] for g in gens]
    return _at_any_width(ring, order, _START_WIDTH, lambda packer: _buchberger(ring, order, p, inputs, packer))


def _buchberger(ring: PolyRing, order: MonomialOrder, p: int, inputs: list, packer: _Packer) -> GroebnerBasis:
    """The reduced basis of the nonzero term dicts ``inputs``, integral over Q."""
    flip, guard, lcm_of = packer.flip, packer.guard, packer.lcm
    divisors, basis, pairs = [], [], []  # all by index, the current ones in index order, the pair heap

    def update(h):  # add h, pruning the pairs by Gebauer and Moeller's criteria
        hl = h[0]
        new = [(lcm_of(g[0], hl), g) for g in reversed(basis)]
        kept = []  # M, newest g first: no unseen new lcm and no kept one divides this one
        for n, (l, g) in enumerate(new):
            if l == g[0] + hl or all(l - other & guard for other, _ in (*new[n + 1:], *kept)):
                kept.append((l, g))
        # B_k: drop an old pair whose lcm h's lead divides, unless h shares it with a side
        pairs[:] = [e for e in pairs if (e[0] ^ flip) - hl & guard or (e[0] ^ flip) in (
            lcm_of(divisors[e[1]][0], hl), lcm_of(divisors[e[2]][0], hl))]
        pairs.extend((l ^ flip, g[4], h[4]) for l, g in kept if l != g[0] + hl)  # F: not coprime
        heapq.heapify(pairs)
        basis[:] = [g for g in basis if g[0] - hl & guard] + [h]
        divisors.append(h)

    for terms in inputs:
        update(_divisor(packer.pack(terms), flip, p, len(divisors)))
    while pairs:
        lcm_ij, i, j = heapq.heappop(pairs)
        (_, lf, cf, tf, _), (_, lg, cg, tg, _) = divisors[i], divisors[j]
        d = 1 if p else gcd(cf, cg)  # over GF(p) cf and cg are the inverses of the leads
        s = {}  # a nonzero multiple of the S-polynomial
        _subtract(s, -cf if p else -cg // d, lcm_ij - lf, tf, p)
        _subtract(s, cg if p else cf // d, lcm_ij - lg, tg, p)
        h, _ = _reduce(s, divisors, p, packer)
        if h:
            content = 1 if p else reduce(gcd, h.values())
            update(_divisor({m: c // content for m, c in h.items()}, flip, p, len(divisors)))

    minimal = []  # ascending leads, none dividing another
    for d in sorted(basis, key=itemgetter(1)):
        if all(d[0] - k[0] & guard for k in minimal):
            minimal.append(d)
    reduced = []  # (k_i, k_i * g_i) for the reduced elements g_i, descending; integral over Q
    for d in reversed(minimal):
        _, lm, lc, tail, _ = d  # no other lead divides lm, so only the tail is rewritten
        r, scale = _reduce(dict(tail), [k for k in minimal if k is not d], p, packer)
        if p:
            reduced.append((1, {lm: 1, **{m: c * lc % p for m, c in r.items()}}))
        else:  # the least k > 0 with k * (lm + r / lead) integral
            lead = scale * lc
            k = abs(lead) // reduce(gcd, r.values(), lead)
            reduced.append((k, {lm: k, **{m: c * k // lead for m, c in r.items()}}))
    gens = [Polynomial(ring, {packer.unpack(m): c if p else Fraction(c, k) for m, c in t.items()}) for k, t in reduced]
    stored = packer.width, [k for k, _ in reduced], [_divisor(t, flip, p, i) for i, (_, t) in enumerate(reduced)]
    return GroebnerBasis(ring, order, tuple(gens), stored)
