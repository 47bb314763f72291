"""Buchberger's algorithm and deterministic polynomial reduction.

The engine is deliberately plain: normal selection strategy on the pair
queue, the two classical pair-elimination criteria, and a final
inter-reduction pass so the returned basis is the reduced one (unique
for a given ideal and order).  Reduction is deterministic: the greatest
reducible monomial is rewritten by the first matching divisor in list
order, so repeated runs produce identical output.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import StructuralError
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


def _divisor_table(gens, order):
    table = []
    for g in gens:
        if isinstance(g, Polynomial) and not g.is_zero():
            lm, lc = g.leading_term(order)
            table.append((lm, lc, g))
    return table


def normal_form(f: Polynomial, basis, order: MonomialOrder | None = None) -> Polynomial:
    """Remainder of f under full reduction by the given polynomials.

    ``basis`` may be a GroebnerBasis (its order is used) or any list of
    polynomials with an explicit order.  Against a Groebner basis the
    remainder is the canonical normal form; membership is remainder 0.
    """
    r, _ = normal_form_with_quotients(f, basis, order)
    return r


def normal_form_with_quotients(f: Polynomial, basis, order: MonomialOrder | None = None):
    """Full reduction returning (remainder, quotients).

    f == sum(q_i * g_i) + remainder holds exactly, and no remainder
    monomial is divisible by any leading monomial of the divisors.
    """
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
    field = ring.field
    table = _divisor_table(gens, order)
    quotients = [dict() for _ in gens]
    index_of = {id(g): i for i, g in enumerate(gens)}
    keyfn = order.key()

    work = dict(f.terms)
    remainder = {}
    while work:
        m = max(work, key=keyfn)
        c = work.pop(m)
        for lm, lc, g in table:
            if mono_divides(lm, m):
                q = mono_div(m, lm)
                qc = field.div(c, lc)
                qd = quotients[index_of[id(g)]]
                qd[q] = field.add(qd.get(q, field.zero), qc)
                for gm, gc in g.terms.items():
                    if gm == lm:
                        continue
                    mm = mono_mul(q, gm)
                    s = field.sub(work.get(mm, field.zero), field.mul(qc, gc))
                    if s == field.zero:
                        work.pop(mm, None)
                    else:
                        work[mm] = s
                break
        else:
            remainder[m] = c
    quots = [Polynomial(ring, qd) for qd in quotients]
    return Polynomial(ring, remainder), quots


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    lf, cf = f.leading_term(order)
    lg, cg = g.leading_term(order)
    lcm = mono_lcm(lf, lg)
    field = f.ring.field
    mf = f.ring.monomial(mono_div(lcm, lf), field.div(field.one, cf))
    mg = f.ring.monomial(mono_div(lcm, lg), field.div(field.one, cg))
    return mf * f - mg * g


def _primitive(p: Polynomial) -> Polynomial:
    # Over Q, rescale to content-free integer coefficients to keep the
    # Fraction arithmetic small; other fields just pass through.
    if p.is_zero() or p.ring.field.name != "Q":
        return p
    from fractions import Fraction
    from math import gcd, lcm

    den = 1
    for c in p.terms.values():
        den = lcm(den, c.denominator)
    num = 0
    for c in p.terms.values():
        num = gcd(num, c.numerator * den)
    if num in (0, 1) and den == 1:
        return p
    return p.scale(Fraction(den, num))


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
        keyfn = order.key()
        basis = tuple(
            ring.monomial(m) for m in sorted(monos, key=keyfn, reverse=True)
        )
        return GroebnerBasis(ring, order, basis)

    basis = []
    for g in gens:
        basis.append(_primitive(g))

    lead = [g.leading_monomial(order) for g in basis]
    keyfn = order.key()
    pairs = {}
    for i in range(len(basis)):
        for j in range(i):
            pairs[(j, i)] = mono_lcm(lead[j], lead[i])

    while pairs:
        (i, j) = min(pairs, key=lambda p: (keyfn(pairs[p]), p))
        lcm_ij = pairs.pop((i, j))
        if mono_coprime(lead[i], lead[j]):
            continue  # first criterion: coprime leads reduce to zero
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if not mono_divides(lead[k], lcm_ij):
                continue
            a, b = (min(i, k), max(i, k)), (min(j, k), max(j, k))
            if a not in pairs and b not in pairs:
                skip = True  # second criterion: both flanking pairs handled
                break
        if skip:
            continue
        s = s_polynomial(basis[i], basis[j], order)
        h = normal_form(s, basis, order)
        if h.is_zero():
            continue
        h = _primitive(h)
        basis.append(h)
        lead.append(h.leading_monomial(order))
        t = len(basis) - 1
        for k in range(t):
            pairs[(k, t)] = mono_lcm(lead[k], lead[t])

    return GroebnerBasis(ring, order, _reduce_basis(basis, order))


def _reduce_basis(basis, order) -> tuple:
    """Minimalize, fully inter-reduce, normalize to monic, sort."""
    keyfn = order.key()
    basis = [g for g in basis if not g.is_zero()]
    basis.sort(key=lambda g: keyfn(g.leading_monomial(order)))
    minimal = []
    for g in basis:
        lm = g.leading_monomial(order)
        if not any(mono_divides(h.leading_monomial(order), lm) for h in minimal):
            minimal.append(g)
    reduced = []
    for idx, g in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1 :]
        r = normal_form(g, others, order) if others else g
        if not r.is_zero():
            reduced.append(r.monic(order))
    reduced.sort(key=lambda g: keyfn(g.leading_monomial(order)), reverse=True)
    return tuple(reduced)
