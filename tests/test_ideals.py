"""Ideal arithmetic, dimension, presented rings, and ring maps."""

import pickle
import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringgraph import (
    GREVLEX,
    HEIGHT_INFINITY,
    LEX,
    QQ,
    Ideal,
    PolyRing,
    PrimeField,
    PresentedRing,
    PreconditionError,
    RingGraphError,
    RingMap,
    StructuralError,
    buchberger,
    build_gamma,
    certify_flag,
    contract,
    dimension,
    eliminate,
    elimination_order,
    face_ring,
    facet_min_primes,
    height_in_quotient,
    ideal_colon,
    ideal_intersection,
    ideal_product,
    ideal_sum,
    m_primary_status,
    polynomial_quotient,
    radical_membership,
    ring_map_kernel,
    saturation,
    sr_ideal,
)
from ringgraph import gamma as gamma_module
from ringgraph import ideals as ideals_module
from ringgraph.complexes import face_ring_ambient, random_pure_complex
from ringgraph.ideals import Flag, provenance
from ringgraph.polynomials import embed, strip_first

from conftest import random_monomial_ideal, random_nonzero_polynomial
from oracles import colon_chain_saturation, lcm_fold_intersection, support_cover_radical_member

R3 = PolyRing(QQ, ("x", "y", "z"))
X, Y, Z = R3.gens()


def I(*gens):
    return Ideal(R3, gens)


class TestIdealBasics:
    def test_generator_ring_checked(self):
        other = PolyRing(QQ, ("a",))
        with pytest.raises(RingGraphError):
            Ideal(R3, (other.var(0),))

    def test_equality_via_reduced_basis(self):
        assert I(X + Y, Y).equals(I(X, Y))
        assert not I(X).equals(I(Y))
        assert I(X - X).equals(I())

    def test_contains(self):
        a = I(X * Y - Z)
        assert a.contains((X * Y - Z) * (X + 1))
        assert not a.contains(X)

    def test_unit_and_zero_predicates(self):
        assert I(X, X + 1).is_unit()
        assert not I().canonical_gens()  # the zero ideal
        assert I(X).canonical_gens()


class TestVariablePrimes:
    """An ideal built from a variable mask carries its reduced basis: it
    must be the one Buchberger's algorithm gives for its generators."""

    def test_known_basis_is_the_computed_one(self):
        for field in (QQ, PrimeField(7)):
            for n in range(1, 7):
                ring = PolyRing(field, tuple(f"x{i}" for i in range(n)))
                orders = [GREVLEX, LEX] + [elimination_order(k) for k in range(1, n + 1)]
                for mask in range(1 << n):
                    prime = Ideal.of_variables(ring, mask)
                    for order in orders:
                        known = prime.groebner(order)
                        computed = buchberger(prime.gens, order, ring=ring)
                        assert known.key() == computed.key(), (mask, order)
                        assert pickle.dumps(known) == pickle.dumps(computed), (mask, order)
                    strings = [str(g) for g in buchberger(prime.gens, ring=ring).generators]
                    assert prime.min_gen_strings() == strings

    def test_sums_carry_no_mask(self):
        """A sum of variable primes is a plain ideal, with neither a mask
        nor a known dimension; its dimension, computed from its
        generators, counts the variables outside both masks."""
        rng = random.Random(426)
        ring = PolyRing(QQ, tuple(f"x{i}" for i in range(6)))
        for _ in range(300):
            p, q = (Ideal.of_variables(ring, rng.randrange(64)) for _ in range(2))
            total = ideal_sum(p, q)
            assert total.var_mask is None and total._dim is None
            assert dimension(total) == 6 - (p.var_mask | q.var_mask).bit_count()
        assert ideal_sum(Ideal.of_variables(ring, 1), Ideal(ring, ring.gens()[:1])).var_mask is None

    def test_dimension_known_at_construction(self):
        """Every variable prime over 1-5 variables carries its dimension
        from the start, and it is the one the Groebner route gives for
        the same generators without a mask."""
        for n in range(1, 6):
            ring = PolyRing(QQ, tuple(f"x{i}" for i in range(n)))
            for mask in range(1 << n):
                prime = Ideal.of_variables(ring, mask)
                plain = Ideal(ring, prime.gens)
                assert prime._dim is not None and plain.var_mask is None and plain._dim is None
                assert prime._dim == dimension(plain) == n - mask.bit_count(), (n, mask)

    def test_equidimensionality_makes_no_search_for_a_variable_prime(self, monkeypatch):
        """certify_flag(pres, "equidimensional") on a face ring makes no dimension search:
        the SR ideal is built with its dimension, and each prime with its own."""
        cplx = random_pure_complex(random.Random(60), 10, 4, 60)
        pres = PresentedRing(face_ring_ambient(10), sr_ideal(cplx))
        pres.attach_min_primes(facet_min_primes(cplx))
        searches = []
        original = ideals_module.minimal_transversals
        monkeypatch.setattr(ideals_module, "minimal_transversals", lambda m: searches.append(m) or original(m))
        assert certify_flag(pres, "equidimensional")
        assert not searches and pres.defining._dim == 4

    def test_one_ideal_per_ring_and_mask(self):
        """Equal rings share one variable prime per mask, built from the
        ring's own variables, with its dimension already known."""
        ring = PolyRing(QQ, ("a", "b", "c"))
        prime = Ideal.of_variables(ring, 0b101)
        assert prime is Ideal.of_variables(PolyRing(QQ, ("a", "b", "c")), 0b101)
        assert prime is not Ideal.of_variables(ring, 0b100)
        assert prime.gens[0] is ring.var(0) and prime.gens[1] is ring.var(2)
        assert ring.gens() == [ring.var(i) for i in range(3)]
        assert dimension(prime) == 1 and prime._dim == 1


class TestIdealOperations:
    def test_sum_product_containments(self):
        rng = random.Random(421)
        for _ in range(15):
            a = Ideal(R3, tuple(random_nonzero_polynomial(rng, R3) for _ in range(2)))
            b = Ideal(R3, tuple(random_nonzero_polynomial(rng, R3) for _ in range(2)))
            s = ideal_sum(a, b)
            assert s.contains_ideal(a) and s.contains_ideal(b)
            p = ideal_product(a, b)
            inter = ideal_intersection(a, b)
            assert a.contains_ideal(inter) and b.contains_ideal(inter)
            assert inter.contains_ideal(p)
        assert ideal_product(I(), I(X)).gens == () and ideal_product(I(X), I()).gens == ()

    def test_equals_itself_without_a_basis(self, monkeypatch):
        a = I(X * Y - Z ** 2, X - Z)
        monkeypatch.setattr(ideals_module, "buchberger", None)  # any basis computation fails
        assert a.equals(a)
        with pytest.raises(TypeError):
            a.equals(I(X * Y - Z ** 2, X - Z))

    def test_intersection_known(self):
        assert ideal_intersection(I(X), I(Y)).equals(I(X * Y))
        assert ideal_intersection(I(X, Y), I(Z)).equals(I(X * Z, Y * Z))

    def test_monomial_intersection_matches_elimination(self):
        # dual route: the lcm shortcut against the general elimination
        rng = random.Random(422)
        for _ in range(15):
            a = random_monomial_ideal(rng, R3)
            b = random_monomial_ideal(rng, R3)
            fast = ideal_intersection(a, b)
            # force the general route by disguising a as non-monomial input
            slow = ideal_intersection(
                Ideal(R3, a.gens + (a.gens[0] * (X + 1),)), b
            )
            assert fast.equals(slow)

    def test_monomial_fold_matches_elimination(self):
        # the n-ary lcm fold against eliminations written out here
        def eliminated(a, b):
            ext = PolyRing(QQ, ("t",) + R3.names)
            shift = (1, 2, 3)
            t = ext.var(0)
            gens = [t * embed(f, ext, shift) for f in a.gens]
            gens += [(ext.one() - t) * embed(g, ext, shift) for g in b.gens]
            kept = eliminate(Ideal(ext, gens), 1)
            return Ideal(R3, tuple(strip_first(p, 1, R3) for p in kept.gens))

        rng = random.Random(423)
        for _ in range(10):
            a, b, c = (random_monomial_ideal(rng, R3) for _ in range(3))
            assert ideal_intersection(a, b, c).equals(eliminated(eliminated(a, b), c))

    def test_monomial_fold_matches_plain_lcm_fold(self):
        """The fold keeps aside the generators the next ideal contains; the
        result, order included, is the plain fold's."""
        rng = random.Random(424)
        ring = PolyRing(QQ, ("a", "b", "c", "d", "e"))
        for _ in range(200):
            ideals = [
                Ideal.of_variables(ring, rng.randrange(1, 32))
                if rng.random() < 0.3
                else random_monomial_ideal(rng, ring, max_gens=4, max_exp=rng.choice([1, 2]))
                for _ in range(rng.randint(2, 5))
            ]
            got = [next(iter(g.terms)) for g in ideal_intersection(*ideals).gens]
            lists = [[next(iter(g.terms)) for g in b.groebner().generators] for b in ideals]
            assert got == lcm_fold_intersection(lists)

    def test_non_monomial_intersection_computes_only_eliminations(self, monkeypatch):
        # the lane is chosen from the generators: no grevlex basis of an
        # input, which the elimination route never reads
        orders = []
        original = ideals_module.buchberger

        def counted(gens, order=GREVLEX, ring=None):
            orders.append(order.kind)
            return original(gens, order, ring=ring)

        monkeypatch.setattr(ideals_module, "buchberger", counted)
        f, g, h = X - Y, Y - Z, X + Z  # pairwise coprime: the intersection is their product
        meet = ideal_intersection(I(f), I(g), I(h))
        assert orders == ["elim", "elim"]
        assert meet.equals(I(f * g * h))

    def test_colon_known(self):
        assert ideal_colon(I(X * Y), I(X)).equals(I(Y))
        assert ideal_colon(I(X), I()).is_unit()
        # colon reproduces the annihilator-style splitting
        assert ideal_colon(I(X * Y, X * Z), I(X)).equals(I(Y, Z))

    def test_colon_containment_random(self):
        rng = random.Random(423)
        for _ in range(15):
            a = random_monomial_ideal(rng, R3)
            b = random_monomial_ideal(rng, R3)
            c = ideal_colon(a, b)
            assert a.contains_ideal(ideal_product(c, b))

    def test_saturation_known(self):
        # (x*y^2) : y^infinity = (x)
        assert saturation(I(X * Y ** 2), I(Y)).equals(I(X))
        assert saturation(I(X), I(Y)).equals(I(X))

    def test_saturation_contains_colon(self):
        rng = random.Random(424)
        for _ in range(10):
            a = random_monomial_ideal(rng, R3)
            b = random_monomial_ideal(rng, R3)
            assert saturation(a, b).contains_ideal(ideal_colon(a, b))

    def test_saturation_matches_colon_chain(self):
        # one elimination per generator against the chain of colons, over
        # Q, F_7 and F_32003: a principal b, a b of two generators, and b
        # holding a zero generator, a unit, or a generator of a
        rng = random.Random(427)
        for field in (QQ, PrimeField(7), PrimeField(32003)):
            for n in (2, 3, 4):
                ring = PolyRing(field, ("x", "y", "z", "w")[:n])
                for _ in range(3):
                    g, h, f = (random_nonzero_polynomial(rng, ring, max_terms=2, max_degree=2) for _ in range(3))
                    a = Ideal(ring, (g * f, g ** 2 * h + f * h))
                    for b in ((g,), (g, h), (g, ring.zero()), (h, ring.one()), (a.gens[0],)):
                        b = Ideal(ring, b)
                        assert saturation(a, b).canonical_key() == colon_chain_saturation(a, b).canonical_key()
                for b in (Ideal(ring, ()), Ideal(ring, (ring.zero(),))):
                    assert saturation(a, b).is_unit() and colon_chain_saturation(a, b).is_unit()

    def test_principal_saturation_is_one_elimination(self, monkeypatch):
        # (a + (1 - t*y)) ∩ K[x, y, z]: one basis under an elimination
        # order, and no colon
        orders, colons = [], []
        original = ideals_module.buchberger

        def counted(gens, order=GREVLEX, ring=None):
            orders.append(order.kind)
            return original(gens, order, ring=ring)

        monkeypatch.setattr(ideals_module, "buchberger", counted)
        monkeypatch.setattr(ideals_module, "ideal_colon", lambda *args: colons.append(args))
        sat = saturation(I(X * Y ** 2, Y * Z ** 2 - X * Y * Z), I(Y))
        assert orders == ["elim"] and colons == []
        assert sat.equals(I(X, Z ** 2))

    def test_eliminate_known(self):
        # eliminate t from (t - x^2): nothing survives
        ext = R3.extended(("t",))
        T = ext.var(0)
        XT, YT = ext.var(1), ext.var(2)
        a = Ideal(ext, (T - XT ** 2, T - YT))
        elim = eliminate(a, 1)
        expected = Ideal(ext, (XT ** 2 - YT,))
        assert elim.equals(expected)
        assert eliminate(a, 0).equals(a)  # an empty block eliminates nothing


class TestRadicalMembership:
    def test_known(self):
        assert radical_membership(X, I(X ** 3))
        assert radical_membership(X * Y, I(X ** 2 * Y ** 5))
        assert not radical_membership(X + Y, I(X ** 2))
        assert radical_membership(R3.zero(), I(X))

    def test_monomials_match_support_covers(self):
        # the inverted-variable trick against support covering on exponents
        rng = random.Random(425)
        for _ in range(20):
            a = random_monomial_ideal(rng, R3)
            mono = tuple(rng.randint(0, 2) for _ in range(3))
            gens = [next(iter(g.terms)) for g in a.gens]
            assert radical_membership(R3.monomial(mono), a) == support_cover_radical_member(mono, gens)


class TestDimension:
    def test_known_values(self):
        assert dimension(I()) == 3
        assert dimension(I(X)) == 2
        assert dimension(I(X, Y)) == 1
        assert dimension(I(X, Y, Z)) == 0
        assert dimension(I(X, X + 1)) == -1
        assert dimension(I(X * Y, X * Z)) == 2
        assert dimension(I(X * Y - 1)) == 2
        assert dimension(I(X ** 2 + Y ** 2)) == 2

    def test_matches_variable_count_heuristics(self):
        # a complete intersection of k coordinate hyperplanes
        rng = random.Random(426)
        for _ in range(10):
            k = rng.randint(0, 3)
            chosen = rng.sample([X, Y, Z], k)
            assert dimension(Ideal(R3, tuple(chosen))) == 3 - k


R4 = PolyRing(QQ, ("x", "y", "z", "w"))


def brute_dimension(nvars: int, monos) -> int:
    """Largest set of variables containing the support of no generator,
    by enumerating every subset; -1 when a generator is constant."""
    supports = [{i for i, e in enumerate(m) if e} for m in monos]
    if set() in supports:
        return -1
    return max(
        size
        for size in range(nvars + 1)
        for chosen in combinations(range(nvars), size)
        if not any(s <= set(chosen) for s in supports)
    )


class TestMonomialDimensionLane:
    """The dimension of a monomial ideal, read from the leading terms of
    its reduced basis like any other, against subset enumeration."""

    @given(st.lists(st.tuples(*[st.integers(0, 3)] * 4), min_size=1, max_size=6))
    def test_matches_groebner_route_and_enumeration(self, monos):
        a = Ideal(R4, tuple(R4.monomial(m) for m in monos))
        assert dimension(a) == brute_dimension(4, monos)

    def test_non_monomial_ideals_through_their_leads(self):
        """200 seeded ideals of two or three polynomials, at least one of
        them not a monomial: the dimension is the enumeration's reading
        of the leading monomials of the reduced basis."""
        rng = random.Random(20)
        for _ in range(200):
            gens = [random_nonzero_polynomial(rng, R4, max_terms=3, max_degree=2) for _ in range(rng.randint(2, 3))]
            if all(g.is_monomial() for g in gens):
                gens[0] = gens[0] + R4.var(rng.randrange(4))
            a = Ideal(R4, gens)
            leads = [g.leading_monomial(GREVLEX) for g in a.groebner().generators]
            assert dimension(a) == brute_dimension(4, leads), gens

    def test_edge_cases(self):
        x, y, z, w = R4.gens()
        cases = [
            ((x ** 2 * y, x * y ** 2), 3),  # same support, neither divides
            ((x ** 2 * y, x * y ** 2, z ** 3), 2),
            ((R4.const(3),), -1),  # a constant: the unit ideal
            ((x * y, R4.one()), -1),
            ((x * y, x * y, x * y), 3),  # repeated generators
            ((x ** 3,), 3),  # powers of a single variable
            ((x ** 3, x, x ** 2), 3),
            ((x ** 2, y ** 5), 2),
            ((x, y * z, x * w), 2),  # x * w meets the single variable x
            ((y * z * w, y * z), 3),  # nested supports
            ((R4.zero(), x * y), 3),
        ]
        for gens, expected in cases:
            a = Ideal(R4, gens)
            assert dimension(a) == expected, gens
        assert dimension(Ideal(R4, ())) == 4

    def test_variable_cap_refuses_monomial_input(self):
        big = PolyRing(QQ, tuple(f"v{i}" for i in range(17)))
        with pytest.raises(PreconditionError, match="at most 16"):
            dimension(Ideal(big, (big.var(0),)))


class TestPresentedRing:
    def test_unit_defining_refused(self):
        with pytest.raises(RingGraphError):
            PresentedRing(R3, I(X, X + 1))

    def test_monomial_reducedness_autocertified(self):
        assert PresentedRing(R3, I(X * Y)).reduced.value is True
        sq = PresentedRing(R3, I(X ** 2))
        assert sq.reduced.value is False
        assert sq.reduced.provenance == "certified"
        assert PresentedRing(R3, I(X ** 2 - Y)).reduced is None

    def test_assert_cannot_contradict_certified(self):
        sq = PresentedRing(R3, I(X ** 2))
        with pytest.raises(RingGraphError):
            sq.claim("reduced", True, "asserted")

    def test_certified_claim_replaces_agreeing_assertion(self):
        pres = PresentedRing(R3, I(X ** 2 - Y))
        pres.claim("equidimensional", True, "asserted")
        pres.claim("equidimensional", True)
        assert pres.equidimensional == (True, "certified")
        pres.claim("equidimensional", True, "asserted")
        assert pres.equidimensional == (True, "certified")

    def test_certified_claim_cannot_contradict_assertion(self):
        pres = PresentedRing(R3, I(X ** 2 - Y))
        pres.claim("reduced", True, "asserted")
        pres.claim("equidimensional", True, "asserted")
        with pytest.raises(PreconditionError):
            pres.claim("reduced", False)
        with pytest.raises(PreconditionError):
            pres.claim("equidimensional", False)
        assert pres.reduced == (True, "asserted")
        assert pres.equidimensional == (True, "asserted")

    def test_claim_names_a_flag_and_a_provenance(self):
        pres = PresentedRing(R3, I(X ** 2 - Y))
        for what, prov in (("equidim", "asserted"), ("reduced", "computed")):
            with pytest.raises(StructuralError, match="unknown claim"):
                pres.claim(what, True, prov)
        assert pres.reduced is None and pres.equidimensional is None

    def test_provenance_taint_rule(self):
        certified, asserted = Flag(True, "certified"), Flag(True, "asserted")
        assert provenance() == "computed"
        assert provenance(None, certified) == "computed"
        assert provenance(certified, None, asserted) == "asserted"
        assert provenance(certified, clean="by-equivalence") == "by-equivalence"
        assert provenance(asserted, clean="by-equivalence") == "asserted"

    def test_m_primary_status(self):
        ring = polynomial_quotient(R3)
        assert m_primary_status(I(X, Y, Z), ring) == "m-primary"
        assert m_primary_status(I(X ** 2, Y ** 3, Z), ring) == "m-primary"
        assert m_primary_status(I(X, Y), ring) == "not-m-primary"
        # x+1 is proper in the graded reading (quotient is k[y,z])
        assert m_primary_status(I(X + 1), ring) == "not-m-primary"
        assert m_primary_status(I(X, X + 1), ring) == "unit-ideal"

    def test_height_needs_equidimensional_flag(self):
        pres = PresentedRing(R3, I(X * Y))
        with pytest.raises(RingGraphError):
            height_in_quotient(pres, I(X))

    def test_height_known_values(self):
        pres = PresentedRing(R3, I(X * Y))
        pres.claim("equidimensional", True)
        assert height_in_quotient(pres, I(X)) == 0  # contained in a minimal prime
        assert height_in_quotient(pres, I(X, Y)) == 1
        assert height_in_quotient(pres, I(X, Y, Z)) == 2
        assert height_in_quotient(pres, I(X + 1)) == 1  # V(x+1, xy) is the line x=-1, y=0
        assert height_in_quotient(pres, I(X, X + 1)) == HEIGHT_INFINITY

    def test_height_matches_dimension_difference(self, monkeypatch):
        """Heights and m-primary statuses both read d = dim of the
        quotient, through one ``dimension`` search per ideal, sums of
        variable primes included; a stored dimension is read without
        one.  Only a graph's pairs of variable primes skip it:
        ``build_gamma`` of a face ring whose dimension is known makes no
        ``dimension`` search."""
        rng = random.Random(77)
        ring4 = PolyRing(QQ, ("x1", "x2", "x3", "x4"))
        x1, x2, x3, x4 = ring4.gens()
        cases = []
        for _ in range(120):
            pres = PresentedRing(ring4, random_monomial_ideal(rng, ring4))
            gens = random_monomial_ideal(rng, ring4, max_exp=1).gens
            if rng.random() < 0.2:
                gens += (ring4.const(rng.choice([0, 3])),)
            cases.append((pres, Ideal(ring4, gens)))
            p, q = (Ideal.of_variables(ring4, rng.randrange(16)) for _ in range(2))
            cases.append((pres, ideal_sum(p, q)))
        curve = PresentedRing(ring4, Ideal(ring4, (x1 ** 2 - x2 ** 2,)))
        cases += [(curve, Ideal(ring4, (x1 - x2,))), (curve, Ideal(ring4, (x1 * x2,)))]
        cases.append((cases[0][0], Ideal(ring4, (x1 + x2,))))
        cases.append((cases[0][0], Ideal(ring4, (ring4.one(),))))
        cases.append((cases[0][0], Ideal(ring4, ring4.gens())))
        cases.append((cases[0][0], Ideal.of_variables(ring4, 15)))
        cases.append((curve, Ideal(ring4, (x1, x3, x4))))
        cases.append((curve, Ideal.of_variables(ring4, 0b1101)))
        expected = []
        for pres, a in cases:
            pres.claim("equidimensional", True, "asserted")  # the flag only gates the dimension difference
            top, d = pres.dim(), dimension(ideal_sum(pres.defining, a))
            status = {-1: "unit-ideal", 0: "m-primary"}.get(d, "not-m-primary")
            expected.append((HEIGHT_INFINITY if d == -1 else top - d, status))
        assert HEIGHT_INFINITY in {h for h, _ in expected}
        assert {s for _, s in expected} == {"unit-ideal", "m-primary", "not-m-primary"}
        calls = []
        searched = lambda a: (a._dim is None and calls.append(a)) or dimension(a)
        monkeypatch.setattr(ideals_module, "dimension", searched)
        monkeypatch.setattr(gamma_module, "dimension", searched)  # the graph's general lane
        for (pres, a), (height, status) in zip(cases, expected):
            del calls[:]
            assert height_in_quotient(pres, a) == height, a
            assert len(calls) == 1, a
            del calls[:]
            assert m_primary_status(a, pres) == status, a
            assert len(calls) == 1, a
        ring = face_ring(random_pure_complex(random.Random(60), 10, 4, 60))
        ring.dim()
        del calls[:]
        assert len(build_gamma(ring).dims) == 60 * 59 // 2
        assert calls == []

    def test_variable_cap_refuses_on_the_mask_lane(self):
        ring17 = PolyRing(QQ, tuple(f"x{i}" for i in range(17)))
        xs = ring17.gens()
        pres = PresentedRing(ring17, Ideal(ring17, (xs[0] * xs[1],)))
        pres.claim("equidimensional", True, "asserted")
        for decide in (
            lambda a: m_primary_status(a, pres),
            lambda a: height_in_quotient(pres, a),
        ):
            with pytest.raises(PreconditionError, match="at most 16"):
                decide(Ideal.of_variables(ring17, 1 << 2))


class TestRingMaps:
    def test_map_from_the_field_keeps_constants(self):
        phi = RingMap(PolyRing(QQ, ()), R3, ())
        assert phi.apply(phi.source.const(3)) == R3.const(3)
        assert phi.apply(phi.source.zero()).is_zero()

    def test_kernel_of_monomial_curve(self):
        src = PolyRing(QQ, ("a", "b"))
        tgt = PolyRing(QQ, ("t",))
        T = tgt.var(0)
        phi = RingMap(src, tgt, (T ** 2, T ** 3))
        ker = ring_map_kernel(phi)
        A, B = src.gens()
        assert ker.equals(Ideal(src, (A ** 3 - B ** 2,)))

    def test_injective_map_has_zero_kernel(self):
        # xy, yz, xz are algebraically independent (exponent matrix det 2)
        src = PolyRing(QQ, ("a", "b", "c"))
        phi = RingMap(src, R3, (X * Y, Y * Z, X * Z))
        assert not ring_map_kernel(phi).canonical_gens()

    def test_kernel_generators_map_to_zero(self):
        src = PolyRing(QQ, ("a", "b", "c"))
        phi = RingMap(src, R3, (X ** 2, X * Y, Y ** 2))
        ker = ring_map_kernel(phi)
        A, B, C = src.gens()
        assert ker.equals(Ideal(src, (A * C - B ** 2,)))
        for g in ker.gens:
            assert phi.apply(g).is_zero()

    def test_contract_known(self):
        src = PolyRing(QQ, ("a", "b"))
        tgt = PolyRing(QQ, ("t",))
        T = tgt.var(0)
        phi = RingMap(src, tgt, (T ** 2, T ** 3))
        A, B = src.gens()
        c = contract(Ideal(tgt, (T,)), phi)
        # preimage of (t): everything with zero constant term, i.e. (a, b)
        assert c.equals(Ideal(src, (A, B)))

    def test_contract_into_quotient(self):
        src = PolyRing(QQ, ("u", "v"))
        pres = PresentedRing(R3, I(Z))
        phi = RingMap(src, pres, (X, Y))
        U, V = src.gens()
        c = contract(I(X * Y, Z), phi)
        assert c.equals(Ideal(src, (U * V,)))
