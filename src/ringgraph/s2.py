"""Fractions over a presented ring, their conductor ideals, and the
locality decision for the smallest extension with the two-dimensional
depth property (the "S2-ification").

A fraction u/v lives in the total quotient ring, so the denominator
must be a nonzerodivisor; that is certified by the colon check
(J : v) = J on the defining ideal.  The conductor of a fraction is the
ideal of ring elements that multiply it back into the ring; the
fraction belongs to the S2-ification exactly when that conductor has
height at least two.  Whether the S2-ification is local is decided
through the minimal-prime graph and the disconnecting-partition test
— two routes that must agree — and the remaining equivalent
module-theoretic conditions are reported with provenance
``by-equivalence`` rather than computed.  Both routes read the graph of
the top-dimensional primes: that of the equidimensional core.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError, StructuralError, ZerodivisorError
from .gamma import ConnectivityReport, _partition, _top_prime_graph, is_connected
from .groebner import normal_form
from .ideals import (
    HEIGHT_INFINITY,
    Ideal,
    PresentedRing,
    height_in_quotient,
    ideal_colon,
    ideal_sum,
    provenance,
)
from .minprimes import (
    certify_reduced_from_decomposition,
    is_equidimensional,
    require_equidimensional,
)
from .polynomials import GREVLEX, Polynomial

EQUIVALENT_CONDITIONS = (
    "minimal_prime_graph_connected",
    "no_disconnecting_partition",
    "s2_ification_local",
    "canonical_module_indecomposable",
    "top_local_cohomology_indecomposable",
)

COMPUTED_CONDITIONS = (
    "minimal_prime_graph_connected",
    "no_disconnecting_partition",
)


@dataclass(frozen=True)
class Fraction:
    """An element u/v of the total quotient ring of a presented ring.

    Representatives are stored in normal form with a monic denominator;
    construction refuses denominators that are zero or zerodivisors in
    the quotient (colon certificate (J : v) = J).
    """

    ring: PresentedRing
    numerator: Polynomial
    denominator: Polynomial

    def __post_init__(self):
        amb = self.ring.ambient
        if self.numerator.ring != amb or self.denominator.ring != amb:
            raise StructuralError("fraction parts live outside the ring's ambient")
        gb = self.ring.defining.groebner()
        u = normal_form(self.numerator, gb)
        v = normal_form(self.denominator, gb)
        if v.is_zero():
            raise ZerodivisorError("denominator is zero in the quotient")
        colon = ideal_colon(self.ring.defining, Ideal(amb, (v,)))
        if not colon.equals(self.ring.defining):
            raise ZerodivisorError(
                "denominator is a zerodivisor: (J : v) strictly contains J"
            )
        lc = v.leading_term(GREVLEX)[1]
        inv = amb.field.div(amb.field.one, lc)
        object.__setattr__(self, "numerator", u.scale(inv))
        object.__setattr__(self, "denominator", v.scale(inv))

    def equals(self, other: "Fraction") -> bool:
        if self.ring is not other.ring and self.ring != other.ring:
            raise StructuralError("fractions over different rings")
        cross = self.numerator * other.denominator - other.numerator * self.denominator
        return self.ring.defining.contains(cross)

    def __mul__(self, other: "Fraction") -> "Fraction":
        return Fraction(
            self.ring,
            self.numerator * other.numerator,
            self.denominator * other.denominator,
        )

    def __add__(self, other: "Fraction") -> "Fraction":
        return Fraction(
            self.ring,
            self.numerator * other.denominator + other.numerator * self.denominator,
            self.denominator * other.denominator,
        )

    def __sub__(self, other: "Fraction") -> "Fraction":
        return Fraction(
            self.ring,
            self.numerator * other.denominator - other.numerator * self.denominator,
            self.denominator * other.denominator,
        )

    def __str__(self):
        return f"({self.numerator}) / ({self.denominator})"


@dataclass(frozen=True)
class ConductorResult:
    """Conductor ideal of a fraction with its height and the membership
    verdict: the fraction lies in the S2-ification iff height >= 2."""

    ideal: Ideal
    height: int | float
    member: bool
    provenance: str = "computed"

    def height_text(self) -> str:
        return "+inf" if self.height == HEIGHT_INFINITY else str(self.height)


def conductor(f: Fraction) -> ConductorResult:
    """The ideal of ring elements multiplying the fraction into the
    ring, lifted to the ambient: ((J + (v)) : u).  Height is taken in
    the quotient, so the presentation must be equidimensional."""
    ring = f.ring
    amb = ring.ambient
    flag = require_equidimensional(ring, "the conductor height")
    jv = ideal_sum(ring.defining, Ideal(amb, (f.denominator,)))
    d = ideal_colon(jv, Ideal(amb, (f.numerator,)))
    h = height_in_quotient(ring, d)
    return ConductorResult(d, h, h >= 2, provenance(flag))


def s2_local_decision(ring: PresentedRing) -> ConnectivityReport:
    """Decide whether the S2-ification of the reduced, equidimensional
    core is local.

    Runs two computed routes — connectivity of the minimal-prime
    graph's edges and the disconnecting-partition test on its pair
    heights — cross-checks them, and reports the three equivalent
    module-theoretic conditions with provenance ``by-equivalence``.
    Both read the graph of the ring's top-dimensional primes, which is
    the minimal-prime graph when the ring is equidimensional.
    Every label turns ``asserted`` when the reducedness flag or the
    ring's minimal primes were asserted.
    """
    flag = ring.reduced
    if flag is None:
        certify_reduced_from_decomposition(ring)
        flag = ring.reduced
    if not flag.value:
        raise PreconditionError(
            "the locality decision needs a reduced presentation"
        )
    is_equidimensional(ring)  # refuses an equidimensionality assertion the primes contradict
    graph = _top_prime_graph(ring)
    via_graph = is_connected(graph)
    via_partition = _partition(graph)
    if via_graph.connected != via_partition.connected:
        # An invariant breach, not a refusable precondition: both routes
        # read the same pair heights, so only a graph-search bug splits them.
        raise RuntimeError(
            "internal disagreement between the graph route and the partition route"
        )
    verdict = via_graph.connected
    claims = (flag, ring.min_primes)
    conditions = tuple(
        (
            name,
            verdict,
            provenance(
                *claims,
                clean="computed" if name in COMPUTED_CONDITIONS else "by-equivalence",
            ),
        )
        for name in EQUIVALENT_CONDITIONS
    )
    return ConnectivityReport(
        status=via_graph.status,
        connected=verdict,
        components=via_graph.components,
        labels=via_graph.labels,
        witness=via_partition.witness,
        conditions=conditions,
        provenance=provenance(*claims),
    )
