"""Ideals, quotient-ring presentations, ring maps, and their algebra.

Everything here reduces to Groebner computations in the ambient
polynomial ring.  Intersections, saturations (a fresh variable inverts
each generator), kernels and contractions eliminate variables that one
helper adjoins in front; colons divide the intersections with principal
ideals through ``exact_divide``, and dimension goes through the minimal
transversals of the leading-term supports.
Monomial data takes certified combinatorial shortcuts with identical
contracts; the test suite pins those against the general routes.
A variable prime is built with its reduced basis and its dimension.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, NamedTuple

from .errors import PreconditionError, StructuralError
from .groebner import (
    GroebnerBasis,
    _minimal_monomial_set,
    buchberger,
    exact_divide,
)
from .polynomials import (
    GREVLEX,
    MonomialOrder,
    PolyRing,
    Polynomial,
    elimination_order,
    embed,
    fresh_names,
    mask_bits,
    minimal_transversals,
    mono_divides,
    mono_lcm,
    mono_mask,
    strip_first,
)

DIMENSION_VARIABLE_CAP = 16
HEIGHT_INFINITY = math.inf


class Ideal:
    """A finitely generated ideal of a polynomial ring.

    Equality of objects is structural; use :meth:`equals` for equality
    of the ideals themselves (via reduced bases).  Groebner bases are
    cached per order on the instance (``grevlex_basis`` says the
    generators already are the reduced grevlex basis, in its order), as
    is the dimension.  ``var_mask``, when set, holds the bits of the
    variables that generate the ideal.
    """

    __slots__ = ("ring", "gens", "_gb", "var_mask", "_dim")

    def __init__(self, ring: PolyRing, gens: Iterable[Polynomial], grevlex_basis: bool = False):
        gens = tuple(gens)
        for g in gens:  # identity first: every ideal_sum re-checks its generators
            if not isinstance(g, Polynomial) or (g.ring is not ring and g.ring != ring):
                raise StructuralError("generator outside the ambient ring")
        self.ring = ring
        self.gens = gens
        self._gb = {(GREVLEX.kind, GREVLEX.block): GroebnerBasis(ring, GREVLEX, gens)} if grevlex_basis else {}
        self.var_mask = self._dim = None

    @classmethod
    @functools.lru_cache(maxsize=1024)
    def of_variables(cls, ring: PolyRing, mask: int) -> "Ideal":
        """The ideal of the variables whose bits ``mask`` sets, built with
        its grevlex basis (those variables in index order) and dimension
        (the number of the others).  One ideal per (ring, mask) is shared."""
        ideal = cls(ring, (ring.var(i) for i in mask_bits(mask)), grevlex_basis=True)
        ideal.var_mask = mask
        ideal._dim = ring.nvars - mask.bit_count()
        return ideal

    def __repr__(self):
        inner = ", ".join(str(g) for g in self.gens) if self.gens else "0"
        return f"({inner})"

    def groebner(self, order: MonomialOrder = GREVLEX) -> GroebnerBasis:
        key = (order.kind, order.block)
        gb = self._gb.get(key)
        if gb is None:
            gb = buchberger(self.gens, order, ring=self.ring)
            self._gb[key] = gb
        return gb

    def contains(self, f: Polynomial) -> bool:
        return self.groebner().contains(f)

    def contains_ideal(self, other: "Ideal") -> bool:
        gb = self.groebner()
        return all(gb.contains(g) for g in other.gens)

    def equals(self, other: "Ideal") -> bool:
        if self.ring != other.ring:
            raise StructuralError("comparing ideals in different rings")
        return other is self or self.groebner().key() == other.groebner().key()

    def is_unit(self) -> bool:
        return self.groebner().is_unit()

    def canonical_gens(self) -> tuple:
        return self.groebner().generators

    def canonical_key(self) -> tuple:
        return self.groebner().key()

    def min_gen_strings(self) -> list:
        if self.var_mask is not None:  # a variable prints as its name
            return [self.ring.names[i] for i in mask_bits(self.var_mask)]
        return [str(g) for g in self.canonical_gens()]


def ideal_sum(a: Ideal, b: Ideal) -> Ideal:
    if a.ring != b.ring:
        raise StructuralError("sum of ideals in different rings")
    return Ideal(a.ring, a.gens + b.gens)


def ideal_product(a: Ideal, b: Ideal) -> Ideal:
    if a.ring != b.ring:
        raise StructuralError("product of ideals in different rings")
    if not a.gens or not b.gens:
        return Ideal(a.ring, ())
    return Ideal(a.ring, tuple(f * g for f in a.gens for g in b.gens))


def _monomial_intersection(a: Ideal, *others: Ideal) -> Ideal:
    """The lcm fold.  A folded generator that the next ideal contains is
    its own lcm and the only one that matters, so only the other
    generators' lcms join it."""
    monos = [m for g in a.groebner().generators for m in g.terms]
    for b in others:
        gens = [m for g in b.groebner().generators for m in g.terms]
        kept = [f for f in monos if any(mono_divides(m, f) for m in gens)]
        lcms = {mono_lcm(f, m) for f in set(monos).difference(kept) for m in gens}
        monos = _minimal_monomial_set(lcms.union(kept))
    return Ideal(a.ring, tuple(a.ring.monomial(m) for m in monos))


def ideal_intersection(a: Ideal, *others: Ideal) -> Ideal:
    """a ∩ b ∩ ..., folded from the left, each step by eliminating an
    auxiliary variable t from t*a + (1-t)*b.

    Inputs given by monomials short-circuit to pairwise lcms; the
    shortcut agrees with the elimination route (tested).
    """
    if any(b.ring != a.ring for b in others):
        raise StructuralError("intersection of ideals in different rings")
    if others and all(g.is_monomial() for x in (a, *others) for g in x.gens):
        return _monomial_intersection(a, *others)
    return functools.reduce(_intersect_two, others, a)


def _adjoined(ring: PolyRing, count: int = 1):
    """The ring with ``count`` fresh variables in front, and the
    embedding of ``ring`` into it."""
    ext = ring.extended(fresh_names(ring, "~t", count))
    shift = tuple(range(count, ext.nvars))
    return ext, lambda f: embed(f, ext, shift)


def _restricted(ext: PolyRing, gens, ring: PolyRing) -> Ideal:
    """(gens) ∩ ring, for ``ext`` made by :func:`_adjoined` from ring:
    eliminate the adjoined variables and strip them."""
    k = ext.nvars - ring.nvars
    elim = eliminate(Ideal(ext, gens), k)
    return Ideal(ring, tuple(strip_first(p, k, ring) for p in elim.gens))


def _intersect_two(a: Ideal, b: Ideal) -> Ideal:
    ext, lift = _adjoined(a.ring)
    t = ext.var(0)
    one_minus_t = ext.one() - t
    gens = [t * lift(f) for f in a.gens] + [one_minus_t * lift(g) for g in b.gens]
    return _restricted(ext, gens, a.ring)


def ideal_colon(a: Ideal, b: Ideal) -> Ideal:
    """Colon ideal (a : b).  For b = (0) this is the unit ideal."""
    if a.ring != b.ring:
        raise StructuralError("colon of ideals in different rings")
    ring = a.ring
    nonzero = [g for g in b.gens if not g.is_zero()]
    if not nonzero:
        return Ideal(ring, (ring.one(),))
    parts = []
    for g in nonzero:
        quots = [exact_divide(h, g) for h in ideal_intersection(a, Ideal(ring, (g,))).groebner().generators]
        if None in quots:
            raise StructuralError("intersection element not divisible by colon generator")
        parts.append(Ideal(ring, tuple(quots)))
    return ideal_intersection(*parts)


def saturation(a: Ideal, b: Ideal) -> Ideal:
    """(a : b^infinity), the intersection over the nonzero generators g
    of b of (a : g^infinity) = (a + (1 - t*g)) ∩ K[x], one elimination
    each.  For b = (0) this is the unit ideal."""
    if a.ring != b.ring:
        raise StructuralError("saturation of ideals in different rings")
    ring = a.ring
    nonzero = [g for g in b.gens if not g.is_zero()]
    if not nonzero:
        return Ideal(ring, (ring.one(),))
    ext, lift = _adjoined(ring)
    t, lifted = ext.var(0), [lift(f) for f in a.gens]
    return ideal_intersection(*(_restricted(ext, lifted + [ext.one() - t * lift(g)], ring) for g in nonzero))


def eliminate(a: Ideal, k: int) -> Ideal:
    """Generators of a ∩ K[x_{k+1}, ...], kept in the ambient ring."""
    if k < 0 or k > a.ring.nvars:
        raise StructuralError("elimination block out of range")
    if k == 0:
        return Ideal(a.ring, a.groebner().generators)
    gb = a.groebner(elimination_order(k))
    kept = tuple(g for g in gb.generators if all(not any(m[:k]) for m in g.terms))
    return Ideal(a.ring, kept)


def radical_membership(f: Polynomial, a: Ideal) -> bool:
    """f in Rad(a): a + (1 - t*f), with f inverted by a fresh variable t
    in front, has the unit grevlex basis."""
    if f.ring != a.ring:
        raise StructuralError("element outside the ambient ring")
    if f.is_zero():
        return True
    ext, lift = _adjoined(a.ring)
    gens = [lift(g) for g in a.gens] + [ext.one() - ext.var(0) * lift(f)]
    return buchberger(gens, GREVLEX, ring=ext).is_unit()


# ---------------------------------------------------------------------------
# dimension


def dimension(a: Ideal) -> int:
    """Krull dimension of ring/a; -1 for the unit ideal.

    Read off the leading-term ideal of the reduced grevlex basis, which
    has the same dimension: the number of variables less the size of a
    smallest minimal transversal of its leading supports.  A constant
    lead has the empty support, which no set meets, so the unit ideal
    reads -1.  Capped at 16 variables; beyond that the search refuses.
    """
    if a._dim is None:
        if a.ring.nvars > DIMENSION_VARIABLE_CAP:
            raise PreconditionError(
                f"dimension search supports at most {DIMENSION_VARIABLE_CAP} variables, got {a.ring.nvars}"
            )
        covers = minimal_transversals(mono_mask(g.leading_monomial(GREVLEX)) for g in a.groebner().generators)
        a._dim = a.ring.nvars - covers[0].bit_count() if covers else -1
    return a._dim


# ---------------------------------------------------------------------------
# presented rings


class Flag(NamedTuple):
    value: bool
    provenance: str  # "certified" | "asserted"

    def is_asserted(self) -> bool:
        return self.provenance == "asserted"


def provenance(*claims, clean: str = "computed") -> str:
    """The taint rule, and the only place it is written: a verdict is
    ``asserted`` when any claim it read -- a :class:`Flag` or a
    minimal-prime set -- was asserted, and ``clean`` otherwise.  Unset
    claims (``None``) are skipped."""
    return "asserted" if any(c is not None and c.is_asserted() for c in claims) else clean


class PresentedRing:
    """A quotient of a polynomial ring by a proper defining ideal.

    Carries optional certification state: the ``reduced`` and
    ``equidimensional`` flags, written only through :meth:`claim`, and
    an attached minimal-prime set.  Flags record whether they were
    certified by computation or asserted by the caller, and the
    provenance taints every downstream report.  ``gamma`` holds the
    graph of the top-dimensional minimal primes once
    :mod:`ringgraph.gamma` has built it: the minimal-prime graph when
    the ring is equidimensional.
    """

    __slots__ = ("ambient", "defining", "_flags", "_min_primes", "gamma")

    def __init__(self, ambient: PolyRing, defining: Ideal):
        if defining.ring != ambient:
            raise StructuralError("defining ideal lives in a different ring")
        if defining.is_unit():
            raise StructuralError("defining ideal is the unit ideal; not a ring presentation")
        self.ambient = ambient
        self.defining = defining
        self._flags = {}
        self._min_primes = None
        self.gamma = None
        gens = defining.groebner().generators
        if all(g.is_monomial() for g in gens):
            self.claim("reduced", all(e <= 1 for g in gens for e in next(iter(g.terms))))

    def dim(self) -> int:
        return dimension(self.defining)

    @property
    def reduced(self) -> Flag | None:
        return self._flags.get("reduced")

    @property
    def equidimensional(self) -> Flag | None:
        return self._flags.get("equidimensional")

    @property
    def min_primes(self):
        return self._min_primes

    def claim(self, what: str, value: bool, provenance: str = "certified"):
        """The one writer of the ``reduced`` and ``equidimensional`` flags.
        A claim that contradicts the held flag refuses, whichever of the
        two was asserted; a certified claim replaces an agreeing
        assertion; an assertion never replaces a certified flag."""
        noun = {"reduced": "reducedness", "equidimensional": "equidimensionality"}.get(what)
        if noun is None or provenance not in ("certified", "asserted"):
            raise StructuralError(f"unknown claim {what!r} with provenance {provenance!r}")
        held = self._flags.get(what)
        if held is not None and held.value != value:
            raise PreconditionError(
                f"assertion contradicts a certified {noun} flag"
                if held.provenance != provenance
                else f"contradictory {provenance} {noun} flags"
            )
        if held is None or provenance == "certified":
            self._flags[what] = Flag(value, provenance)

    def attach_min_primes(self, prime_set):
        """Attach a minimal-prime set; verified against the defining ideal."""
        if prime_set.for_ideal.ring != self.ambient:
            raise StructuralError("minimal primes computed in a different ring")
        prime_set.verify()
        if not prime_set.for_ideal.equals(self.defining):
            raise StructuralError("minimal primes attached to the wrong ideal")
        self._min_primes = prime_set

    def __repr__(self):
        return f"{self.ambient}/{self.defining!r}"


def polynomial_quotient(ambient: PolyRing) -> PresentedRing:
    """The ring itself, presented with the zero ideal."""
    return PresentedRing(ambient, Ideal(ambient, ()))


def _quotient_dimension(ring: PresentedRing, a: Ideal) -> int:
    """dim ring/a, -1 for the unit ideal there: dim of the defining
    ideal plus a."""
    if a.ring != ring.ambient:
        raise StructuralError("ideal lives outside the ring's ambient")
    return dimension(ideal_sum(ring.defining, a))


def _status(d: int) -> str:
    """The m-primary status of an ideal modulo which the ring has dimension d."""
    return "unit-ideal" if d == -1 else "m-primary" if d == 0 else "not-m-primary"


def _height(dim: int, d: int) -> int | float:
    """The height of an ideal modulo which an equidimensional ring of
    dimension ``dim`` has dimension d."""
    return HEIGHT_INFINITY if d == -1 else dim - d


def m_primary_status(a: Ideal, ring: PresentedRing) -> str:
    """One of 'm-primary', 'not-m-primary', 'unit-ideal' for a in ring."""
    return _status(_quotient_dimension(ring, a))


def height_in_quotient(ring: PresentedRing, a: Ideal) -> int | float:
    """Height of (a + defining)/defining in the quotient ring.

    Valid for equidimensional presentations only, via the difference of
    dimensions; refuses when equidimensionality is neither certified
    nor asserted.  The unit image gets the +infinity sentinel.
    """
    flag = ring.equidimensional
    if flag is None:
        raise PreconditionError(
            "equidimensionality unknown: certify via minimal primes or assert it first"
        )
    if not flag.value:
        raise PreconditionError(
            "height via dimension difference requires an equidimensional presentation"
        )
    d = _quotient_dimension(ring, a)
    return _height(ring.dim(), d)


# ---------------------------------------------------------------------------
# ring maps


class RingMap:
    """A field-fixing map from a polynomial ring into a (quotient) ring,
    given by one image polynomial per source variable."""

    __slots__ = ("source", "target", "images", "target_ambient")

    def __init__(self, source: PolyRing, target, images: Iterable[Polynomial]):
        images = tuple(images)
        target_ambient = target.ambient if isinstance(target, PresentedRing) else target
        if not isinstance(target_ambient, PolyRing):
            raise StructuralError("target must be a polynomial ring or a presented quotient")
        if len(images) != source.nvars:
            raise StructuralError("need exactly one image per source variable")
        for g in images:
            if g.ring != target_ambient:
                raise StructuralError("image outside the target ambient ring")
        if source.field != target_ambient.field:
            raise StructuralError("source and target have different coefficient fields")
        self.source = source
        self.target = target
        self.images = images
        self.target_ambient = target_ambient

    @property
    def target_defining(self) -> tuple:
        if isinstance(self.target, PresentedRing):
            return self.target.defining.gens
        return ()

    def apply(self, f: Polynomial) -> Polynomial:
        """Image of f, as a representative in the target ambient ring."""
        if f.ring != self.source:
            raise StructuralError("argument outside the source ring")
        if not self.images:
            return self.target_ambient.const(next(iter(f.terms.values()))) if f.terms else self.target_ambient.zero()
        return f.compose(list(self.images))


def ring_map_kernel(phi: RingMap) -> Ideal:
    """Kernel of phi as an ideal of the source ring: the contraction of
    the zero ideal."""
    return contract(Ideal(phi.target_ambient, ()), phi)


def contract(q: Ideal, phi: RingMap) -> Ideal:
    """phi^{-1}(q) in the source ring, for q in the target ambient."""
    if q.ring != phi.target_ambient:
        raise StructuralError("contracting an ideal outside the target ambient")
    tgt, src = phi.target_ambient, phi.source
    comb, lift = _adjoined(src, tgt.nvars)  # the target's variables in front
    into = tuple(range(tgt.nvars))
    gens = [lift(x) - embed(img, comb, into) for x, img in zip(src.gens(), phi.images)]
    gens += [embed(g, comb, into) for g in phi.target_defining + q.gens]
    return _restricted(comb, gens, src)
