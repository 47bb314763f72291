"""Fractions in the total quotient ring, conductor ideals, membership
in the S2-ification, and the locality decision."""

import random

import pytest

from ringgraph import (
    HEIGHT_INFINITY,
    QQ,
    ConnectivityReport,
    Fraction,
    Ideal,
    MinimalPrimeSet,
    PolyRing,
    PresentedRing,
    PreconditionError,
    PrimeCertificate,
    RingGraphError,
    ZerodivisorError,
    build_gamma,
    certify_flag,
    complex_from_lists,
    conductor,
    disconnection_exists,
    face_ring,
    ideal_intersection,
    ideal_product,
    is_connected,
    j_ideal,
    s2_local_decision,
    top_dimensional_primes,
)
from ringgraph.ideals import provenance
from ringgraph.s2 import COMPUTED_CONDITIONS, EQUIVALENT_CONDITIONS

from conftest import planes_and_line_ring
from oracles import top_facet_components

R2 = PolyRing(QQ, ("x", "y"))
X, Y = R2.gens()

R4 = PolyRing(QQ, ("x", "y", "z", "w"))
X4, Y4, Z4, W4 = R4.gens()


def nodal_ring():
    """Two lines x = y and x = -y through the origin."""
    return PresentedRing(R2, Ideal(R2, (X ** 2 - Y ** 2,)))


def planes_ring():
    """Two planes meeting only at the origin."""
    return PresentedRing(R4, Ideal(R4, (X4 * Z4, X4 * W4, Y4 * Z4, Y4 * W4)))


class TestFractionConstruction:
    def test_zero_denominator_refused(self):
        with pytest.raises(ZerodivisorError):
            Fraction(nodal_ring(), X, R2.zero())

    def test_image_zero_denominator_refused(self):
        with pytest.raises(ZerodivisorError):
            Fraction(nodal_ring(), X, X ** 2 - Y ** 2)

    def test_zerodivisor_denominator_refused(self):
        # x - y kills x + y on the union of the two lines
        with pytest.raises(ZerodivisorError):
            Fraction(nodal_ring(), R2.one(), X - Y)

    def test_nonzerodivisor_accepted_and_normalized(self):
        f = Fraction(nodal_ring(), 2 * X ** 2, 2 * X)
        # representatives are reduced and the denominator is monic
        assert str(f.denominator) == "x"
        assert f.ring.defining.contains(f.numerator - X ** 2)

    def test_wrong_ambient_refused(self):
        with pytest.raises(RingGraphError):
            Fraction(nodal_ring(), R4.var(0), R4.one())


class TestFractionArithmetic:
    def test_equality_by_cross_multiplication(self):
        ring = nodal_ring()
        a = Fraction(ring, X ** 2, X)
        b = Fraction(ring, Y ** 2, X)  # x^2 = y^2 in the quotient
        assert a.equals(b)
        assert not a.equals(Fraction(ring, Y, R2.one()))

    def test_representation_independence(self):
        ring = nodal_ring()
        w = X + 3  # a unit-free nonzerodivisor scaling
        a = Fraction(ring, X + Y, X)
        b = Fraction(ring, (X + Y) * w, X * w)
        assert a.equals(b)

    def test_ring_element_embedding(self):
        ring = nodal_ring()
        f = Fraction(ring, X * Y, R2.one())
        g = Fraction(ring, X * Y * X, X)
        assert f.equals(g)

    def test_operations(self):
        ring = nodal_ring()
        a = Fraction(ring, X + Y, X)
        b = Fraction(ring, X - Y, X)
        s = a + b
        assert s.equals(Fraction(ring, 2 * X, X))
        d = a - a
        assert d.equals(Fraction(ring, R2.zero(), R2.one()))
        p = a * b
        # (x+y)(x-y) = x^2 - y^2 = 0 in the quotient
        assert p.equals(Fraction(ring, R2.zero(), R2.one()))


class TestConductor:
    def test_ring_elements_have_unit_conductor(self):
        ring = nodal_ring()
        res = conductor(Fraction(ring, X * Y, R2.one()))
        assert res.height == HEIGHT_INFINITY
        assert res.member
        assert res.height_text() == "+inf"
        assert res.ideal.is_unit()

    def test_nodal_idempotent_not_member(self):
        # e = (x+y)/(2x) satisfies e^2 = e but its conductor is the
        # whole singular point (x, y): height one, so e stays outside.
        ring = nodal_ring()
        e = Fraction(ring, X + Y, 2 * X)
        ee = e * e
        assert ee.equals(e)
        res = conductor(e)
        assert res.ideal.equals(Ideal(R2, (X, Y)))
        assert res.height == 1
        assert not res.member

    def test_planes_idempotent_is_member(self):
        # e = x/(x+z) is 1 on one plane and 0 on the other; the planes
        # meet only at the origin, so the conductor has height two.
        ring = planes_ring()
        e = Fraction(ring, X4, X4 + Z4)
        ee = e * e
        assert ee.equals(e)
        res = conductor(e)
        assert res.height == 2
        assert res.member

    def test_provenance_follows_equidimensionality_flag(self):
        ring = nodal_ring()
        assert conductor(Fraction(ring, X ** 2, X)).provenance == "computed"
        asserted = PresentedRing(R2, Ideal(R2, (X ** 2 - Y ** 2,)))
        asserted.claim("equidimensional", True, "asserted")
        res = conductor(Fraction(asserted, X ** 2, X))
        assert res.provenance == "asserted"

    def test_non_equidimensional_refused(self):
        ring = PolyRing(QQ, ("x", "y", "z"))
        x, y, z = ring.gens()
        pres = PresentedRing(ring, Ideal(ring, (x * y, x * z)))
        with pytest.raises(RingGraphError):
            conductor(Fraction(pres, x, x + y))

    def test_conductor_filter_laws(self):
        # multiplicativity and additivity up to containment
        ring = planes_ring()
        f = Fraction(ring, X4, X4 + Z4)
        g = Fraction(ring, Z4 ** 2, (X4 + Z4) ** 2)
        df, dg = conductor(f).ideal, conductor(g).ideal
        dfg = conductor(f * g).ideal
        assert dfg.contains_ideal(ideal_product(df, dg))
        dsum = conductor(f + g).ideal
        assert dsum.contains_ideal(ideal_intersection(df, dg))

    def test_representation_independent_conductor(self):
        ring = planes_ring()
        w = X4 + Z4 + 1
        a = Fraction(ring, X4, X4 + Z4)
        b = Fraction(ring, X4 * w, (X4 + Z4) * w)
        assert conductor(a).ideal.equals(conductor(b).ideal)


class TestLocalityDecision:
    def test_connected_case(self):
        rep = s2_local_decision(nodal_ring())
        assert rep.connected is True
        assert rep.provenance == "computed"
        names = [name for name, _, _ in rep.conditions]
        assert tuple(names) == EQUIVALENT_CONDITIONS
        for name, value, prov in rep.conditions:
            assert value is True
            expected = "computed" if name in COMPUTED_CONDITIONS else "by-equivalence"
            assert prov == expected

    def test_disconnected_case(self):
        rep = s2_local_decision(planes_ring())
        assert rep.connected is False
        for _, value, _ in rep.conditions:
            assert value is False
        assert rep.witness["partition_count_searched"] == 1

    def test_mixed_dimension_reduces_to_core(self):
        # (xy, xz) has components of dimensions 2 and 1; the top core
        # is the plane x = 0, a domain, so the decision is positive.
        ring = PolyRing(QQ, ("x", "y", "z"))
        x, y, z = ring.gens()
        pres = PresentedRing(ring, Ideal(ring, (x * y, x * z)))
        rep = s2_local_decision(pres)
        assert rep.connected is True
        assert len(rep.labels) == 1

    def test_unknown_reducedness_autocertified(self):
        # the cusp is a domain; reducedness is decided by computing
        # that the defining ideal equals the intersection of its primes
        pres = PresentedRing(R2, Ideal(R2, (X ** 3 - Y ** 2,)))
        assert pres.reduced is None
        rep = s2_local_decision(pres)
        assert rep.connected is True
        assert rep.provenance == "computed"
        assert pres.reduced == (True, "certified")

    def test_undecidable_reducedness_refused(self):
        ring = PolyRing(QQ, ("x", "y", "z"))
        x, y, z = ring.gens()
        hard = PresentedRing(
            ring, Ideal(ring, (x ** 3 + y ** 3 + z ** 3 + x * y * z,))
        )
        assert hard.reduced is None
        with pytest.raises(RingGraphError):
            s2_local_decision(hard)

    def test_non_reduced_refused(self):
        pres = PresentedRing(R2, Ideal(R2, (X ** 2,)))
        assert pres.reduced.value is False
        with pytest.raises(RingGraphError):
            s2_local_decision(pres)

    def test_computed_nonradical_refused(self):
        # ((x+y)^2) is certified non-reduced by the decomposition route
        pres = PresentedRing(R2, Ideal(R2, ((X + Y) ** 2,)))
        assert pres.reduced is None
        with pytest.raises(RingGraphError):
            s2_local_decision(pres)
        assert pres.reduced == (False, "certified")

    def test_contradicted_equidim_assertion_refused(self):
        """Q[x,y,z]/(x*y, x*z) is not equidimensional: computing that
        contradicts the asserted flag, so the decision refuses and the
        flag and the graph built under it stay as they were."""
        ring = PolyRing(QQ, ("x", "y", "z"))
        x, y, z = ring.gens()
        pres = PresentedRing(ring, Ideal(ring, (x * y, x * z)))
        pres.claim("equidimensional", True, "asserted")
        graph = build_gamma(pres)
        with pytest.raises(PreconditionError):
            s2_local_decision(pres)
        assert pres.equidimensional == (True, "asserted")
        assert build_gamma(pres) is graph
        assert graph.provenance == "asserted"

    def test_asserted_reducedness_taints(self):
        pres = PresentedRing(R2, Ideal(R2, (X ** 3 - Y ** 2,)))
        pres.claim("reduced", True, "asserted")
        rep = s2_local_decision(pres)
        assert rep.connected is True
        assert rep.provenance == "asserted"
        assert {label for _, _, label in rep.conditions} == {"asserted"}


def core_route_decision(ring) -> ConnectivityReport:
    """The locality decision of a reduced ring that is not
    equidimensional, through its equidimensional core: the quotient by
    ``j_ideal``, with the ring's top primes attached to it (and verified)
    and its flags certified, decided by both routes on that ring."""
    if ring.reduced is None:
        certify_flag(ring, "reduced")
    assert not certify_flag(ring, "equidimensional")
    j, tops = j_ideal(ring), top_dimensional_primes(ring)
    core = PresentedRing(ring.ambient, j)
    kept = tuple((p, c) for p, c in ring.min_primes.primes if any(p is t for t in tops))
    core.attach_min_primes(MinimalPrimeSet(j, kept, ring.min_primes.provenance))
    core.claim("reduced", True)
    core.claim("equidimensional", True)
    via_graph, via_partition = is_connected(build_gamma(core)), disconnection_exists(core)
    assert via_graph.connected == via_partition.connected
    claims = (ring.reduced, core.min_primes, core.equidimensional)
    clean = lambda name: "computed" if name in COMPUTED_CONDITIONS else "by-equivalence"
    conditions = tuple((c, via_graph.connected, provenance(*claims, clean=clean(c))) for c in EQUIVALENT_CONDITIONS)
    return ConnectivityReport(
        via_graph.status, via_graph.connected, via_graph.components, via_graph.labels,
        via_partition.witness, conditions, provenance(*claims),
    )


def random_non_pure_complex(rng, n: int):
    """A seeded complex on n vertices with one to five facets of a top
    size d and one to three smaller ones, none inside another."""
    d = rng.randint(2, n - 1)
    faces = {frozenset(rng.sample(range(1, n + 1), d)) for _ in range(rng.randint(1, 5))}
    faces |= {frozenset(rng.sample(range(1, n + 1), rng.randint(1, d - 1))) for _ in range(rng.randint(1, 3))}
    return [sorted(f) for f in faces if not any(f < g for g in faces)]


class TestTopPrimeGraph:
    """A reduced ring that is not equidimensional is decided on the graph
    of its top-dimensional primes, which no other verdict reads."""

    def test_face_rings_match_top_facet_adjacency(self):
        rng = random.Random(2828)
        verdicts, top_counts = set(), set()
        for _ in range(80):
            n = rng.randint(4, 7)
            facets = random_non_pure_complex(rng, n)
            if len({len(f) for f in facets}) == 1:
                continue
            ring = face_ring(complex_from_lists(n, facets))
            report = s2_local_decision(ring)
            expected = top_facet_components(facets)
            facet_of = [tuple(v for v in range(1, n + 1) if f"x{v}" not in label) for label in report.labels]
            assert report.status == ("connected" if len(expected) == 1 else "disconnected"), facets
            assert report.connected is (len(expected) == 1)
            components = [{facet_of[i] for i in c} for c in report.components]
            assert sorted(map(sorted, components)) == sorted(map(sorted, expected))
            with pytest.raises(PreconditionError):
                build_gamma(ring)  # the top primes' graph kept on the ring is never returned
            verdicts.add(report.connected)
            top_counts.add(len(facet_of))
        assert verdicts == {True, False}
        assert {1, 2, 3} <= top_counts

    @pytest.mark.parametrize("asserted", [False, True])
    @pytest.mark.parametrize("build", ["xyz_xyw", "planes_and_line"])
    def test_report_equals_the_core_route(self, build, asserted):
        """Every field of the report, witness, conditions and provenance
        included, is the one the route through the core gives."""
        def ring():
            if build == "planes_and_line":
                primes = planes_and_line_ring().min_primes.ideals()
            else:
                primes = (Ideal(R4, (X4,)), Ideal(R4, (Y4,)), Ideal(R4, (Z4, W4)))  # (xyz, xyw)
            pres = PresentedRing(primes[0].ring, ideal_intersection(*primes))
            kind, prov = ("asserted", "asserted") if asserted else ("linear-prime", "computed-split")
            certified = tuple((p, PrimeCertificate(kind)) for p in primes)
            pres.attach_min_primes(MinimalPrimeSet(pres.defining, certified, prov))
            return pres
        report = s2_local_decision(ring())
        assert report == core_route_decision(ring())
        assert report.provenance == ("asserted" if asserted else "computed")
        assert report.connected is (build == "xyz_xyw")

    def test_an_asserted_lower_prime_taints_the_report(self):
        """Which primes are top rests on the whole decomposition, so an
        asserted certificate on the line of (xyz, xyw), below the two
        hyperplanes, makes every label ``asserted``; the core's set, which
        kept the hyperplanes' certificates only, read ``computed``."""
        def ring():
            certified = (
                (Ideal(R4, (X4,)), PrimeCertificate("linear-prime")),
                (Ideal(R4, (Y4,)), PrimeCertificate("linear-prime")),
                (Ideal(R4, (Z4, W4)), PrimeCertificate("asserted")),
            )
            pres = PresentedRing(R4, ideal_intersection(*(p for p, _ in certified)))
            pres.attach_min_primes(MinimalPrimeSet(pres.defining, certified, "computed-split"))
            return pres
        report = s2_local_decision(ring())
        assert report.connected is True
        assert report.provenance == "asserted"
        assert {prov for _, _, prov in report.conditions} == {"asserted"}
        assert core_route_decision(ring()).provenance == "computed"
