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
    buchberger,
    contract,
    dimension,
    eliminate,
    elimination_order,
    height_in_quotient,
    ideal_colon,
    ideal_intersection,
    ideal_product,
    ideal_sum,
    is_m_primary,
    m_primary_status,
    polynomial_quotient,
    radical_membership,
    ring_map_kernel,
    saturation,
)
from ringgraph import ideals as ideals_module
from ringgraph.ideals import Flag, provenance
from ringgraph.polynomials import embed, strip_first

from conftest import random_nonzero_polynomial
from oracles import lcm_fold_intersection

R3 = PolyRing(QQ, ("x", "y", "z"))
X, Y, Z = R3.gens()


def I(*gens):
    return Ideal(R3, gens)


def random_monomial_ideal(rng, ring, max_gens=3, max_exp=2):
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        mono = tuple(rng.randint(0, max_exp) for _ in range(ring.nvars))
        if sum(mono) == 0:
            mono = (1,) + (0,) * (ring.nvars - 1)
        gens.append(ring.monomial(mono))
    return Ideal(ring, tuple(gens))


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
        assert I().is_zero_ideal()
        assert not I(X).is_zero_ideal()


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

    def test_sums_keep_the_mask(self):
        """A sum of variable primes keeps the union of their masks; the
        dimension of a monomial ring modulo it, read off the mask, is the
        one its generators give."""
        rng = random.Random(426)
        ring = PolyRing(QQ, tuple(f"x{i}" for i in range(6)))
        for _ in range(300):
            pres = PresentedRing(ring, random_monomial_ideal(rng, ring, max_gens=4, max_exp=rng.choice([1, 2])))
            p, q = (Ideal.of_variables(ring, rng.randrange(64)) for _ in range(2))
            total = ideal_sum(p, q)
            assert total.var_mask == p.var_mask | q.var_mask
            expected = dimension(ideal_sum(pres.defining, Ideal(ring, total.gens)))
            assert ideals_module._quotient_dimension(pres, total) == expected
        assert ideal_sum(Ideal.of_variables(ring, 1), Ideal(ring, ring.gens()[:1])).var_mask is None


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
                Ideal(R3, a.gens + (a.gens[0] + a.gens[0],)), b
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

    def test_eliminate_known(self):
        # eliminate t from (t - x^2): nothing survives
        ext = R3.extended(("t",), front=True)
        T = ext.var(0)
        XT, YT = ext.var(1), ext.var(2)
        a = Ideal(ext, (T - XT ** 2, T - YT))
        elim = eliminate(a, 1)
        expected = Ideal(ext, (XT ** 2 - YT,))
        assert elim.equals(expected)


class TestRadicalMembership:
    def test_known(self):
        assert radical_membership(X, I(X ** 3))
        assert radical_membership(X * Y, I(X ** 2 * Y ** 5))
        assert not radical_membership(X + Y, I(X ** 2))
        assert radical_membership(R3.zero(), I(X))

    def test_monomial_shortcut_matches_general(self):
        # dual route: support covering against the inverted-variable trick
        rng = random.Random(425)
        for _ in range(20):
            a = random_monomial_ideal(rng, R3)
            mono = tuple(rng.randint(0, 2) for _ in range(3))
            f = R3.monomial(mono) if sum(mono) else R3.one()
            fast = radical_membership(f, a)
            disguised = Ideal(R3, a.gens + (a.gens[0] * 2 - a.gens[0],))
            slow = radical_membership(f + R3.zero(), disguised)
            assert fast == slow


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


def groebner_route_dimension(a: Ideal) -> int:
    """dimension through the reduced basis: a generator with two terms,
    already in the ideal, turns the monomial lane off."""
    g = a.gens[0]
    return dimension(Ideal(a.ring, a.gens + (g + g * a.ring.var(0),)))


class TestMonomialDimensionLane:
    """Monomial generators are read as support masks without a Groebner
    basis; the general route reads the reduced basis's leading terms."""

    @given(st.lists(st.tuples(*[st.integers(0, 3)] * 4), min_size=1, max_size=6))
    def test_matches_groebner_route_and_enumeration(self, monos):
        a = Ideal(R4, tuple(R4.monomial(m) for m in monos))
        expected = brute_dimension(4, monos)
        assert dimension(a) == expected
        assert groebner_route_dimension(a) == expected

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
            assert groebner_route_dimension(a) == expected, gens
        assert dimension(Ideal(R4, ())) == 4

    def test_support_fold_matches_one_pass(self):
        """A ring's reduced support data with further masks folded in is
        the data of all the masks read at once."""
        rng = random.Random(425)
        supports = ideals_module._supports
        for _ in range(2000):
            n = rng.randint(1, 8)
            base = {rng.randrange(1, 1 << n) for _ in range(rng.randint(0, 8))}
            more = {rng.randrange(1 << n) for _ in range(rng.randint(0, 4))}
            singles, minimal = supports(base)
            folded, whole = supports(more, singles, minimal), supports(base | more)
            if whole is None:
                assert folded is None
            else:
                assert (folded[0], sorted(folded[1])) == (whole[0], sorted(whole[1]))

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
            sq.assert_reduced(True)

    def test_certified_claim_replaces_agreeing_assertion(self):
        pres = PresentedRing(R3, I(X ** 2 - Y))
        pres.assert_equidimensional(True)
        pres.certify_equidimensional(True)
        assert pres.equidimensional == (True, "certified")
        pres.assert_equidimensional(True)
        assert pres.equidimensional == (True, "certified")

    def test_certified_claim_cannot_contradict_assertion(self):
        pres = PresentedRing(R3, I(X ** 2 - Y))
        pres.assert_reduced(True)
        pres.assert_equidimensional(True)
        with pytest.raises(PreconditionError):
            pres.certify_reduced(False)
        with pytest.raises(PreconditionError):
            pres.certify_equidimensional(False)
        assert pres.reduced == (True, "asserted")
        assert pres.equidimensional == (True, "asserted")

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
        assert is_m_primary(I(X, Y, Z), ring)
        assert not is_m_primary(I(X, X + 1), ring)

    def test_height_needs_equidimensional_flag(self):
        pres = PresentedRing(R3, I(X * Y))
        with pytest.raises(RingGraphError):
            height_in_quotient(pres, I(X))

    def test_height_known_values(self):
        pres = PresentedRing(R3, I(X * Y))
        pres.certify_equidimensional(True)
        assert height_in_quotient(pres, I(X)) == 0  # contained in a minimal prime
        assert height_in_quotient(pres, I(X, Y)) == 1
        assert height_in_quotient(pres, I(X, Y, Z)) == 2
        assert height_in_quotient(pres, I(X + 1)) == 1  # V(x+1, xy) is the line x=-1, y=0
        assert height_in_quotient(pres, I(X, X + 1)) == HEIGHT_INFINITY

    def test_height_matches_dimension_difference(self, monkeypatch):
        """Heights and m-primary statuses both read d = dim of the
        quotient.  A monomial ring and a monomial ideal take the
        support-mask lane, which calls no ``dimension``; anything else
        calls it once."""
        rng = random.Random(77)
        ring4 = PolyRing(QQ, ("x1", "x2", "x3", "x4"))
        x1, x2, x3, x4 = ring4.gens()
        cases = []
        for _ in range(120):
            pres = PresentedRing(ring4, random_monomial_ideal(rng, ring4))
            gens = random_monomial_ideal(rng, ring4, max_exp=1).gens
            if rng.random() < 0.2:
                gens += (ring4.const(rng.choice([0, 3])),)
            cases.append((pres, Ideal(ring4, gens), 0))
        curve = PresentedRing(ring4, Ideal(ring4, (x1 ** 2 - x2 ** 2,)))
        cases += [(curve, Ideal(ring4, (x1 - x2,)), 1), (curve, Ideal(ring4, (x1 * x2,)), 1)]
        cases.append((cases[0][0], Ideal(ring4, (x1 + x2,)), 1))
        cases.append((cases[0][0], Ideal(ring4, (ring4.one(),)), 0))
        cases.append((cases[0][0], Ideal(ring4, ring4.gens()), 0))
        cases.append((curve, Ideal(ring4, (x1, x3, x4)), 1))
        expected = []
        for pres, a, _ in cases:
            pres.assert_equidimensional()  # the flag only gates the dimension difference
            top, d = pres.dim(), dimension(ideal_sum(pres.defining, a))
            status = {-1: "unit-ideal", 0: "m-primary"}.get(d, "not-m-primary")
            expected.append((HEIGHT_INFINITY if d == -1 else top - d, status))
        assert HEIGHT_INFINITY in {h for h, _ in expected}
        assert {s for _, s in expected} == {"unit-ideal", "m-primary", "not-m-primary"}
        calls = []
        monkeypatch.setattr(ideals_module, "dimension", lambda a: calls.append(a) or dimension(a))
        for (pres, a, dimension_calls), (height, status) in zip(cases, expected):
            del calls[:]
            assert height_in_quotient(pres, a) == height, a
            assert len(calls) == dimension_calls, a
            del calls[:]
            assert m_primary_status(a, pres) == status, a
            assert len(calls) == dimension_calls, a

    def test_variable_cap_refuses_on_the_mask_lane(self):
        ring17 = PolyRing(QQ, tuple(f"x{i}" for i in range(17)))
        xs = ring17.gens()
        pres = PresentedRing(ring17, Ideal(ring17, (xs[0] * xs[1],)))
        assert pres._masks is not None
        pres.assert_equidimensional()
        for decide in (
            lambda a: m_primary_status(a, pres),
            lambda a: height_in_quotient(pres, a),
        ):
            with pytest.raises(PreconditionError, match="at most 16"):
                decide(Ideal(ring17, (xs[2],)))

    def test_image_gens_drop_zero(self):
        pres = PresentedRing(R3, I(X * Y))
        assert pres.image_gens(I(X * Y, Z)) == [Z]


class TestRingMaps:
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
        assert ring_map_kernel(phi).is_zero_ideal()

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
