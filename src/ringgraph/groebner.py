"""Buchberger's algorithm and deterministic polynomial reduction.

The engine works on plain coefficient dicts (monomial -> coefficient) and
builds ``Polynomial`` and ``Fraction`` objects only for its results.  Over
GF(p) coefficients are ints in [0, p) and a step subtracts c / lc times the
divisor.  Over Q they are ints and reduction is fraction-free: to cancel
c*m by a divisor with lead coefficient lc, the work, remainder and
quotients are multiplied by lc / gcd(c, lc), whose running product is the
``scale`` (it may be negative).  Scaling never changes which terms cancel,
so both lanes take the steps that division over the field would.

Selection does not depend on the lane: normal selection (least lcm, ties
by index) from a heap keyed by the order, the coprime and chain criteria,
and a final minimalize / inter-reduce / monic pass, so the result is the
reduced basis.  Each step rewrites the greatest remaining monomial by the
first matching divisor in list order, so repeated runs agree exactly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, lcm

from .errors import StructuralError
from .fields import PrimeField
from .polynomials import (
    GREVLEX,
    MonomialOrder,
    PolyRing,
    Polynomial,
    mono_coprime,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mask,
    mono_mul,
)


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis: monic, inter-reduced, sorted descending."""

    ring: PolyRing
    order: MonomialOrder
    generators: tuple

    def leading_monomials(self) -> tuple:
        return tuple(g.leading_monomial(self.order) for g in self.generators)

    def is_unit(self) -> bool:
        """True when the basis presents the unit ideal."""
        return len(self.generators) == 1 and self.generators[0].is_constant() and not self.generators[0].is_zero()

    def contains(self, f: Polynomial) -> bool:
        return normal_form(f, self).is_zero()

    def key(self) -> tuple:
        return tuple(g.key() for g in self.generators)


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


def _divisor(terms: dict, keyfn, p: int, index: int) -> tuple:
    """(lead monomial, lc, tail terms, index) as ``_reduce`` reads it; lc
    is the lead coefficient over Q and its inverse over GF(p)."""
    lm = max(terms, key=keyfn)
    lc = pow(terms[lm], -1, p) if p else terms[lm]
    return lm, lc, [(m, c) for m, c in terms.items() if m != lm], index


def _subtract(work: dict, c: int, u: tuple, tail: list, p: int):
    """work -= c * u * tail, in place, dropping the terms that cancel."""
    for m, gc in tail:
        mm = mono_mul(u, m)
        s = work.get(mm, 0) - c * gc
        if p:
            s %= p
        if s:
            work[mm] = s
        else:
            work.pop(mm, None)


def _reduce(work: dict, divisors: list, keyfn, p: int, quotients=None) -> tuple:
    """Fully reduce the dict ``work`` (consumed) by ``divisors``.

    Returns (remainder, scale) with scale * work == sum q_i g_i + remainder,
    where g_i is the divisor with index i and q_i the dict ``quotients[i]``,
    filled in when given (not reduced mod p); scale is 1 over GF(p).
    """
    remainder = {}
    scale = 1
    while work:
        m = max(work, key=keyfn)
        c = work.pop(m)
        for lm, lc, tail, index in divisors:
            if mono_divides(lm, m):
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
        q = mono_div(m, lm)
        if quotients is not None:
            quotients[index][q] = quotients[index].get(q, 0) + qc
        _subtract(work, qc, q, tail, p)
    return remainder, scale


def _s_pair(f: tuple, g: tuple, p: int) -> dict:
    """A nonzero multiple of the S-polynomial of two ``_divisor`` tuples."""
    lf, cf, tf, _ = f
    lg, cg, tg, _ = g
    if p:
        a, b = cf, cg  # the inverses of the lead coefficients
    else:
        d = gcd(cf, cg)
        a, b = cg // d, cf // d
    lcm_fg = mono_lcm(lf, lg)
    s = {}
    _subtract(s, -a, mono_div(lcm_fg, lf), tf, p)
    _subtract(s, b, mono_div(lcm_fg, lg), tg, p)
    return s


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


def _divide(f: Polynomial, basis, order, with_quotients: bool):
    if isinstance(basis, GroebnerBasis):
        gens = basis.generators
        order = basis.order
    else:
        gens = list(basis)
        if order is None:
            raise StructuralError("an explicit order is required for raw divisor lists")
    ring = f.ring
    for g in gens:
        if g.ring != ring:
            raise StructuralError("divisor in a different ring")
    keyfn = order.key()
    p = _modulus(ring)
    # Over Q, k_f * f is divided by the k_i * g_i, all with integer terms.
    k_f, work = (1, dict(f.terms)) if p else _integral(f.terms)
    scaled = [(1, g.terms) if p or g.is_zero() else _integral(g.terms) for g in gens]
    divisors = [_divisor(terms, keyfn, p, i) for i, (_, terms) in enumerate(scaled) if terms]
    quotients = [{} for _ in gens] if with_quotients else None
    remainder, scale = _reduce(work, divisors, keyfn, p, quotients)
    k = k_f * scale

    def back(terms, k_i=1):  # undo the integer scaling, or reduce mod p
        return Polynomial(ring, {m: c % p if p else c * k_i / k for m, c in terms.items()})

    return back(remainder), [back(q, k_i) for q, (k_i, _) in zip(quotients or (), scaled)]


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

    keyfn = order.key()
    if all(g.is_monomial() for g in gens):
        monos = _minimal_monomial_set([next(iter(g.terms)) for g in gens])
        basis = tuple(
            ring.monomial(m) for m in sorted(monos, key=keyfn, reverse=True)
        )
        return GroebnerBasis(ring, order, basis)

    p = _modulus(ring)
    divisors = [_divisor(g.terms if p else _integral(g.terms)[1], keyfn, p, i) for i, g in enumerate(gens)]
    lead = [d[0] for d in divisors]
    heap = [(keyfn(mono_lcm(lead[j], lead[i])), j, i) for i in range(len(lead)) for j in range(i)]
    heapq.heapify(heap)
    live = {(j, i) for _, j, i in heap}  # the pairs still on the heap

    while heap:
        _, i, j = heapq.heappop(heap)
        live.discard((i, j))
        if mono_coprime(lead[i], lead[j]):
            continue  # first criterion: coprime leads reduce to zero
        lcm_ij = mono_lcm(lead[i], lead[j])
        if any(
            k != i and k != j and mono_divides(lead[k], lcm_ij)
            and (min(i, k), max(i, k)) not in live and (min(j, k), max(j, k)) not in live
            for k in range(len(lead))
        ):
            continue  # second criterion: both flanking pairs handled
        h, _ = _reduce(_s_pair(divisors[i], divisors[j], p), divisors, keyfn, p)
        if not h:
            continue
        t = len(lead)
        divisors.append(_divisor(h if p else _integral(h)[1], keyfn, p, t))
        lead.append(divisors[t][0])
        for k in range(t):
            heapq.heappush(heap, (keyfn(mono_lcm(lead[k], lead[t])), k, t))
            live.add((k, t))

    minimal = []  # ascending leads, none dividing another
    for d in sorted(divisors, key=lambda d: keyfn(d[0])):
        if not any(mono_divides(k[0], d[0]) for k in minimal):
            minimal.append(d)
    reduced = []  # inter-reduced and monic, still ascending
    for d in minimal:
        lm, lc, tail, _ = d
        # No other lead divides lm, so only the tail is rewritten.
        r, scale = _reduce(dict(tail), [k for k in minimal if k is not d], keyfn, p)
        if p:
            monic = {lm: 1, **{m: c * lc % p for m, c in r.items()}}
        else:
            monic = {lm: Fraction(1), **{m: Fraction(c, scale * lc) for m, c in r.items()}}
        reduced.append(Polynomial(ring, monic))
    return GroebnerBasis(ring, order, tuple(reversed(reduced)))
