"""Minimal-prime decompositions: the monomial vertex-cover route, the
splitting route, certificates, and the equidimensionality machinery."""

import inspect
import random
import re
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ringgraph
from ringgraph import (
    QQ,
    Ideal,
    PolyRing,
    PresentedRing,
    PrimeCertificate,
    PrimeField,
    RingGraphError,
    RingMap,
    StructuralError,
    UndecidedComponentError,
    face_ring,
    image_domain_presentation,
    is_equidimensional,
    j_ideal,
    minimal_primes,
    monomial_minimal_primes,
    split_minimal_primes,
    top_dimensional_primes,
    verify_decomposition,
)
from ringgraph import minprimes as minprimes_module
from ringgraph.complexes import facet_min_primes, random_pure_complex
from ringgraph.polynomials import minimal_transversals, mono_mask

from conftest import asserted_primes
from oracles import (
    brute_minimal_covers,
    groebner_verify_decomposition,
    lcm_fold_verify_on_masks,
    list_mmcs_minimal_transversals,
    random_arrangement,
)

R3 = PolyRing(QQ, ("x", "y", "z"))
X, Y, Z = R3.gens()
R4 = PolyRing(QQ, ("x1", "x2", "x3", "x4"))


def I(*gens):
    return Ideal(R3, gens)


def prime_key_set(mps):
    return {p.canonical_key() for p in mps.ideals()}


def unnamed(report) -> list:
    """The failures of a decomposition report, with the escaping
    generator's name left out."""
    return [re.sub(r"generator .* escapes", "generator escapes", f) for f in report.failures]


def variable_ideal(ring, indices):
    """The variable prime on ``indices``, marked with its ``var_mask``."""
    return Ideal.of_variables(ring, sum(1 << i for i in set(indices)))


class TestMonomialRoute:
    def test_known_small(self):
        mps = monomial_minimal_primes(I(X * Y))
        assert prime_key_set(mps) == {I(X).canonical_key(), I(Y).canonical_key()}
        assert mps.provenance == "computed-monomial"
        mps.verify()

    def test_zero_ideal_is_prime(self):
        mps = monomial_minimal_primes(I())
        assert prime_key_set(mps) == {I().canonical_key()}
        mps.verify()

    def test_non_squarefree_input_reduced_first(self):
        mps = monomial_minimal_primes(I(X ** 2 * Y))
        assert prime_key_set(mps) == {I(X).canonical_key(), I(Y).canonical_key()}

    def test_against_brute_force_oracle_random(self):
        rng = random.Random(441)
        ring = PolyRing(QQ, ("x1", "x2", "x3", "x4"))
        for _ in range(60):
            supports = []
            gens = []
            for _ in range(rng.randint(1, 4)):
                size = rng.randint(1, 4)
                supp = set(rng.sample(range(4), size))
                supports.append(supp)
                mono = tuple(1 if i in supp else 0 for i in range(4))
                gens.append(ring.monomial(mono))
            mps = monomial_minimal_primes(Ideal(ring, tuple(gens)))
            expected = {
                variable_ideal(ring, cover).canonical_key()
                for cover in brute_minimal_covers(4, supports)
            }
            assert prime_key_set(mps) == expected

    def test_rejects_non_monomial(self):
        with pytest.raises(RingGraphError):
            monomial_minimal_primes(I(X + Y ** 2))


def mask_of(indices):
    return sum(1 << i for i in indices)


def bits_of(mask):
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


class TestMinimalTransversals:
    def test_empty_family_has_the_empty_transversal(self):
        assert minimal_transversals([]) == [0]

    def test_family_holding_zero_has_none(self):
        assert minimal_transversals([0]) == []
        assert minimal_transversals([0b011, 0, 0b100]) == []

    def test_repeated_and_non_minimal_members(self):
        # {0,1} repeated and its superset {0,1,2} change nothing
        plain = minimal_transversals([0b0011, 0b1100])
        assert plain == [0b0101, 0b1001, 0b0110, 0b1010]  # {0,2} {0,3} {1,2} {1,3}
        assert minimal_transversals([0b0011, 0b0011, 0b0111, 0b1100, 0b1111]) == plain

    def test_against_brute_force_oracle(self):
        rng = random.Random(443)
        for _ in range(400):
            n = rng.randint(1, 7)
            family = [
                mask_of(rng.sample(range(n), rng.randint(0 if rng.random() < 0.05 else 1, n)))
                for _ in range(rng.randint(0, 9))
            ]
            family += rng.sample(family, min(len(family), rng.randint(0, 2)))  # repeats
            got = minimal_transversals(family)
            assert len(got) == len(set(got))
            assert got == sorted(got, key=lambda m: (bin(m).count("1"), bits_of(m)))
            expected = brute_minimal_covers(n, [set(bits_of(m)) for m in family])
            assert {frozenset(bits_of(m)) for m in got} == expected

    def test_member_bitsets_match_list_mmcs(self):
        """The member-bitset MMCS returns the list MMCS's transversals in
        the same order, also on families of 65-130 members, whose member
        sets span more than one machine word: random sets, and the
        complements of k-sets that a face ring's facets give (a vertex
        whose only critical members lie past the first word shows there)."""
        rng = random.Random(445)
        for trial in range(300):
            n = rng.randint(1, 12)
            count = rng.randint(65, 130) if trial % 3 == 0 else rng.randint(0, 12)
            family = [
                mask_of(rng.sample(range(n), rng.randint(0 if rng.random() < 0.02 else 1, rng.randint(1, n))))
                for _ in range(count)
            ]
            assert minimal_transversals(family) == list_mmcs_minimal_transversals(family), family
        for _ in range(60):
            n = rng.randint(8, 12)
            k = rng.randint(2, n - 2)
            family = [(1 << n) - 1 ^ mask_of(rng.sample(range(n), k)) for _ in range(rng.randint(65, 130))]
            assert minimal_transversals(family) == list_mmcs_minimal_transversals(family), family

    def test_prime_order_is_size_then_indices(self):
        rng = random.Random(444)
        ring = PolyRing(QQ, tuple(f"x{i}" for i in range(1, 7)))
        for _ in range(40):
            gens = [
                ring.monomial(tuple(1 if i in supp else 0 for i in range(6)))
                for supp in (set(rng.sample(range(6), rng.randint(1, 4))) for _ in range(rng.randint(1, 6)))
            ]
            printed = [
                tuple(sorted(ring.names.index(v) for v in p.min_gen_strings()))
                for p in monomial_minimal_primes(Ideal(ring, tuple(gens))).ideals()
            ]
            assert printed == sorted(printed, key=lambda c: (len(c), c))


class TestSplitRoute:
    def test_principal_split(self):
        mps = split_minimal_primes(I(X ** 2 - Y ** 2))
        assert prime_key_set(mps) == {
            I(X - Y).canonical_key(),
            I(X + Y).canonical_key(),
        }
        assert mps.provenance == "computed-split"
        mps.verify()

    def test_mixed_split(self):
        mps = split_minimal_primes(I(X * Y, X * Z))
        assert prime_key_set(mps) == {I(X).canonical_key(), I(Y, Z).canonical_key()}

    def test_agrees_with_monomial_route(self):
        rng = random.Random(442)
        for _ in range(20):
            supports = []
            gens = []
            for _ in range(rng.randint(1, 3)):
                supp = set(rng.sample(range(3), rng.randint(1, 3)))
                supports.append(supp)
                gens.append(R3.monomial(tuple(1 if i in supp else 0 for i in range(3))))
            a = Ideal(R3, tuple(gens))
            assert prime_key_set(split_minimal_primes(a)) == prime_key_set(
                monomial_minimal_primes(a)
            )

    def test_arrangements_decided_exactly_or_refused(self):
        # a union of linear subspaces: every decided ring has the minimal
        # distinct subspaces as its primes, and every other one refuses
        rng = random.Random(446)
        decided = 0
        for _ in range(40):
            a, subspaces = random_arrangement(rng)
            distinct = []
            for s in subspaces:
                if not any(s.equals(d) for d in distinct):
                    distinct.append(s)
            expected = [s for s in distinct if not any(d is not s and s.contains_ideal(d) for d in distinct)]
            try:
                got = split_minimal_primes(a).ideals()
            except UndecidedComponentError:
                continue
            decided += 1
            assert len(got) == len(expected)
            assert all(any(p.equals(q) for q in got) for p in expected)
        assert decided > 0

    def test_undecidable_leaf_refused(self):
        # x^3 + y^3 + z^3 + xyz-ish leaves escape the certified reach
        hard = I(X ** 3 + Y ** 3 + Z ** 3 + X * Y * Z)
        with pytest.raises(RingGraphError):
            split_minimal_primes(hard).verify()

    def test_degree_five_leaf_refused_with_the_leaf(self):
        with pytest.raises(UndecidedComponentError) as caught:
            minimal_primes(I(X ** 5 - 2, Y))
        assert caught.value.leaf.equals(I(X ** 5 - 2, Y))


class TestVerification:
    def test_wrong_primes_rejected(self):
        report = verify_decomposition(I(X * Y), [I(X)])
        assert not report.ok
        assert any("radical" in msg for msg in report.failures)

    def test_non_minimal_rejected(self):
        report = verify_decomposition(I(X * Y), [I(X), I(Y), I(X, Y)])
        assert not report.ok

    def test_asserted_set_must_verify(self):
        with pytest.raises(RingGraphError):
            asserted_primes(I(X * Y), [I(X)])
        good = asserted_primes(I(X * Y), [I(X), I(Y)])
        assert good.provenance == "asserted"
        assert good.is_asserted()

    def test_primes_from_another_ring_refused(self):
        other = PolyRing(PrimeField(7), ("x", "y", "z"))
        x, y, _ = other.gens()
        with pytest.raises(StructuralError):
            verify_decomposition(I(X * Y), [Ideal(other, (x,)), Ideal(other, (y,))])
        with pytest.raises(StructuralError):
            verify_decomposition(I(X ** 2 - Y ** 2), [Ideal(other, (x - y,)), Ideal(other, (x + y,))])

    def test_terms_are_not_read_as_generators(self):
        """(x + y) has generators of degree one but is not (x, y), and
        x*y - x = x*(y - 1) does not lie in the radical of (x)."""
        assert verify_decomposition(I(X * Y - X), [I(X)]).failures == [
            "intersection generator x escapes the radical"
        ]
        report = verify_decomposition(I(X, Y), [I(X + Y)])
        assert report.failures == ["prime #0 does not contain the ideal"]
        mixed = verify_decomposition(I(X * Y), [I(X), I(X - Y, Z)])
        assert mixed.failures[0] == "prime #1 does not contain the ideal"
        assert mixed == groebner_verify_decomposition(I(X * Y), [I(X), I(X - Y, Z)])
        assert verify_decomposition(I(X * Y), [I(X), I(Y), I(Y, X + Y)]).failures == [
            "prime #2 contains prime #0; not minimal",
            "prime #2 contains prime #1; not minimal",
        ]
        with pytest.raises(RingGraphError):
            asserted_primes(I(X, Y), [I(X + Y)])

    def test_face_ring_makes_no_containment_call(self, monkeypatch):
        calls = []
        original = Ideal.contains_ideal

        def counted(self, other):
            calls.append(other)
            return original(self, other)

        monkeypatch.setattr(Ideal, "contains_ideal", counted)
        ring = face_ring(random_pure_complex(random.Random(3), 10, 4, 20))
        assert len(ring.min_primes.primes) == 20
        assert calls == []

    @given(
        gens=st.lists(
            st.one_of(
                st.tuples(st.tuples(*[st.integers(0, 2)] * 4), st.sampled_from([1, -2, 3])),
                st.just(((0, 0, 0, 0), 5)),  # a constant: the unit ideal
                st.just(None),  # the zero polynomial
            ),
            max_size=5,
        ),
        pick=st.integers(0, 11),
        arbitrary=st.lists(st.frozensets(st.integers(0, 3)), max_size=5),
    )
    def test_mask_lane_matches_groebner_route(self, gens, pick, arbitrary):
        """Monomial ideals (squarefree or not, with zero and constant
        generators) against their true primes, four corruptions of them,
        an arbitrary list of variable primes, and primes with generators
        that are linear but not monomial."""
        a = Ideal(R4, [R4.zero() if g is None else R4.monomial(*g) for g in gens])
        supports = [{i for i in range(4) if g[0][i]} for g in gens if g is not None]
        covers = sorted(brute_minimal_covers(4, supports), key=sorted)
        primes = [variable_ideal(R4, c) for c in covers]
        assert verify_decomposition(a, primes).ok

        def corrupted(extra):
            out = list(primes)
            out.insert(pick % (len(out) + 1), extra)
            return out

        candidates = [primes, corrupted(Ideal(R4, ())), [variable_ideal(R4, c) for c in arbitrary]]
        if primes:
            drop = pick % len(primes)
            candidates.append(primes[:drop] + primes[drop + 1:])
        for c in covers:
            outside = sorted(set(range(4)) - c)
            if outside:  # a prime strictly above a minimal one
                candidates.append(corrupted(variable_ideal(R4, c | {outside[pick % len(outside)]})))
                break
        if supports:  # the variables off one generator's support miss it
            candidates.append(corrupted(variable_ideal(R4, set(range(4)) - supports[0])))
        x1, x2, x3, _ = R4.gens()
        for linear in (Ideal(R4, (x1 + x2,)), Ideal(R4, (x1 - x2, x3)), Ideal(R4, (x1, x1 + x2))):
            candidates += [[linear], corrupted(linear)]  # linear primes take the Groebner route
        if primes and len(covers[0]) > 1:  # a true prime written with a linear generator
            first, *rest = sorted(covers[0])
            rewritten = Ideal(R4, (R4.var(first),) + tuple(R4.var(first) + R4.var(i) for i in rest))
            candidates.append([rewritten] + primes[1:])

        for cand in candidates:
            fast = verify_decomposition(a, cand)
            slow = groebner_verify_decomposition(a, cand)
            assert fast.ok == slow.ok, cand
            assert set(unnamed(fast)) == set(unnamed(slow)), cand

    def test_unmarked_variable_prime_takes_the_groebner_route(self, monkeypatch):
        """(x1, x2) written with generators has no ``var_mask``: it is
        checked through Groebner bases, with the verdict and failures of
        the marked prime."""
        calls = []
        original = minprimes_module._verify_on_masks
        monkeypatch.setattr(
            minprimes_module, "_verify_on_masks", lambda a, masks: calls.append(masks) or original(a, masks)
        )
        x1, x2, x3, x4 = R4.gens()
        unmarked = Ideal(R4, (x1, x2))
        for a, others in (
            (Ideal(R4, (x1 * x3, x2 * x3)), [variable_ideal(R4, {2})]),  # x3 * (x1, x2): both minimal
            (Ideal(R4, (x1 * x3, x2 * x4)), [variable_ideal(R4, {2})]),  # (x3) misses x2*x4; x2*x3 escapes
            (Ideal(R4, (x1 * x2,)), [variable_ideal(R4, {0})]),  # (x1, x2) contains (x1); x1 escapes
        ):
            del calls[:]
            masked = verify_decomposition(a, [variable_ideal(R4, {0, 1})] + others)
            assert len(calls) == 1
            plain = verify_decomposition(a, [unmarked] + others)
            assert len(calls) == 1
            assert (plain.ok, plain.failures) == (masked.ok, masked.failures)

    def test_rings_past_the_variable_cap_take_the_groebner_route(self, monkeypatch):
        """A lattice of 2^20 sets is not built: (x1x2, x3x4, x5x6x7) in 20
        variables is checked through Groebner bases against its 12 primes,
        and with one of them corrupted."""
        calls = []
        original = minprimes_module._verify_on_masks
        monkeypatch.setattr(
            minprimes_module, "_verify_on_masks", lambda a, masks: calls.append(masks) or original(a, masks)
        )
        ring = PolyRing(QQ, tuple(f"x{i}" for i in range(1, 21)))
        x = ring.gens()
        a = Ideal(ring, (x[0] * x[1], x[2] * x[3], x[4] * x[5] * x[6]))
        primes = [variable_ideal(ring, c) for c in product((0, 1), (2, 3), (4, 5, 6))]
        assert verify_decomposition(a, primes).ok
        assert verify_decomposition(a, [variable_ideal(ring, {0, 2})] + primes[1:]).failures == [
            "prime #0 does not contain the ideal",
            "prime #1 contains prime #0; not minimal",
            "prime #2 contains prime #0; not minimal",
        ]
        assert calls == []

    def test_mask_lane_matches_groebner_route_on_face_rings(self):
        """Facet primes of random complexes, each one dropped in turn:
        the escaping generators are then the dropped facets' monomials."""
        rng = random.Random(8)
        for _ in range(30):
            n = rng.randint(5, 7)
            size = rng.randint(2, 4)
            count = rng.randint(2, min(8, comb(n, size)))
            mps = facet_min_primes(random_pure_complex(rng, n, size, count))
            a, primes = mps.for_ideal, list(mps.ideals())
            for drop in range(len(primes)):
                cand = primes[:drop] + primes[drop + 1:]
                fast = verify_decomposition(a, cand)
                slow = groebner_verify_decomposition(a, cand)
                assert (fast.ok, len(fast.failures)) == (slow.ok, len(slow.failures)) == (False, 1)

    def test_lattice_check_matches_the_lcm_fold(self):
        """Seeded rings on 5 to 14 variables: facet primes of random
        complexes and the true primes of random monomial ideals (not
        squarefree, with zero and constant generators), each with one
        prime dropped, duplicated or enlarged.  The lattice check gives
        the fold's verdict and failures; the escaping generator it names
        is the Groebner route's, where the fold may name another."""
        rng = random.Random(24)
        failures = set()
        for n in range(5, 15):
            ring = PolyRing(QQ, tuple(f"x{i}" for i in range(n)))
            for _ in range(4):
                size = rng.randint(2, n - 2)
                mps = facet_min_primes(random_pure_complex(rng, n, size, rng.randint(2, 10)))
                failures |= self.check_corruptions(rng, mps.for_ideal, list(mps.ideals()))
                gens = [ring.zero()] * rng.randint(0, 1)
                if rng.random() < 0.1:
                    gens.append(ring.one())  # the unit ideal, which no prime contains
                for _ in range(rng.randint(1, 6)):
                    support = rng.sample(range(n), rng.randint(1, 3))
                    gens.append(ring.monomial(tuple(rng.randint(1, 3) if i in support else 0 for i in range(n))))
                a = Ideal(ring, gens)
                covers = minimal_transversals(mono_mask(m) for g in gens for m in g.terms)
                primes = [Ideal.of_variables(ring, c) for c in covers] or [Ideal.of_variables(ring, 1)]
                failures |= self.check_corruptions(rng, a, primes)
        assert failures == {"contain", "escapes", "minimal"}

    def check_corruptions(self, rng, a, primes) -> set:
        """Check the primes and three corruptions of them; the kinds of
        failure seen."""
        ring, pick = a.ring, rng.randrange(len(primes))
        everything = (1 << ring.nvars) - 1
        extra = everything & ~primes[pick].var_mask
        enlarged = Ideal.of_variables(ring, primes[pick].var_mask | (extra & -extra))
        seen = set()
        rest = primes[pick + 1:]
        for cand in (primes, primes[:pick] + rest, primes + [primes[pick]], primes[:pick] + [enlarged] + rest):
            if not cand:
                continue
            fast = verify_decomposition(a, cand)
            fold = lcm_fold_verify_on_masks(a, [p.var_mask for p in cand])
            assert (fast.ok, unnamed(fast)) == (fold.ok, unnamed(fold)), cand
            named = [f for f in fast.failures if "escapes" in f]
            if named:
                assert named == [f for f in groebner_verify_decomposition(a, cand).failures if "escapes" in f]
            seen |= {kind for f in fast.failures for kind in ("contain", "escapes", "minimal") if kind in f}
        return seen

    def test_certificate_kinds_checked(self):
        with pytest.raises(RingGraphError):
            PrimeCertificate("made-up-kind")
        cert = PrimeCertificate("monomial-variable-prime")
        assert cert.check(I(X, Y))
        assert not cert.check(I(X + Y ** 2))
        assert not cert.check(I(X ** 2))


class TestEquidimensionality:
    def test_pure_codimension(self):
        pres = PresentedRing(R3, I(X * Y))
        assert is_equidimensional(pres)
        assert pres.equidimensional.value is True
        assert pres.equidimensional.provenance == "certified"

    def test_mixed_dimensions(self):
        pres = PresentedRing(R3, I(X * Y, X * Z))
        assert not is_equidimensional(pres)
        tops = top_dimensional_primes(pres)
        assert {p.canonical_key() for p in tops} == {I(X).canonical_key()}
        j = j_ideal(pres)
        assert j.equals(I(X))
        assert not pres.defining.contains_ideal(j)

    def test_j_ideal_zero_for_equidimensional_reduced(self):
        pres = PresentedRing(R3, I(X * Y))
        j = j_ideal(pres)
        assert pres.defining.contains_ideal(j)

    def test_certify_equidimensional_sets_flag(self):
        pres = PresentedRing(R3, I(X * Y))
        assert is_equidimensional(pres)
        assert pres.equidimensional == (True, "certified")


class TestKernelPresentation:
    def test_image_domain_presentation(self):
        src = PolyRing(QQ, ("a", "b"))
        tgt = PolyRing(QQ, ("t",))
        T = tgt.var(0)
        phi = RingMap(src, tgt, (T ** 2, T ** 3))
        pres = image_domain_presentation(phi)
        A, B = src.gens()
        assert pres.defining.equals(Ideal(src, (A ** 3 - B ** 2,)))
        assert pres.reduced.value is True
        assert pres.equidimensional.value is True
        assert pres.min_primes.provenance == "computed-kernel"
        pres.min_primes.verify()

    def test_refuses_quotient_targets(self):
        src = PolyRing(QQ, ("a",))
        pres = PresentedRing(R3, I(X * Y))
        phi = RingMap(src, pres, (Z,))
        with pytest.raises(RingGraphError):
            image_domain_presentation(phi)


class TestPublicSignatures:
    def test_only_minimal_primes_takes_a_strategy(self):
        takers = set()
        for name in ringgraph.__all__:
            obj = getattr(ringgraph, name)
            if callable(obj):
                try:
                    params = inspect.signature(obj).parameters
                except (TypeError, ValueError):
                    continue
                if "strategy" in params:
                    takers.add(name)
        assert takers == {"minimal_primes"}

    def test_minimal_primes_only_computes(self):
        assert list(inspect.signature(minimal_primes).parameters) == ["a", "strategy"]

    def test_extended_adjoins_in_front_only(self):
        assert list(inspect.signature(PolyRing.extended).parameters) == ["self", "extra_names"]

    def test_harness_parameters(self):
        params = inspect.signature(ringgraph.faltings_harness).parameters
        assert list(params) == ["trials", "seed", "max_vertices", "max_facet_size"]
