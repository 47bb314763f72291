"""Minimal-prime decompositions: the monomial vertex-cover route, the
splitting route, certificates, and the equidimensionality machinery."""

import inspect
import random
from itertools import combinations

import pytest

import ringgraph
from ringgraph import (
    QQ,
    Ideal,
    PolyRing,
    PresentedRing,
    PrimeCertificate,
    RingGraphError,
    RingMap,
    image_domain_presentation,
    is_equidimensional,
    j_ideal,
    j_ideal_is_zero,
    minimal_primes,
    monomial_minimal_primes,
    split_minimal_primes,
    top_dimensional_primes,
    verify_decomposition,
)
from ringgraph.minprimes import minimal_transversals

from oracles import brute_minimal_covers

R3 = PolyRing(QQ, ("x", "y", "z"))
X, Y, Z = R3.gens()


def I(*gens):
    return Ideal(R3, gens)


def prime_key_set(mps):
    return {p.canonical_key() for p in mps.ideals()}


def variable_ideal(ring, indices):
    return Ideal(ring, tuple(ring.var(i) for i in sorted(indices)))


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

    def test_undecidable_leaf_refused(self):
        # x^3 + y^3 + z^3 + xyz-ish leaves escape the certified reach
        hard = I(X ** 3 + Y ** 3 + Z ** 3 + X * Y * Z)
        with pytest.raises(RingGraphError):
            split_minimal_primes(hard).verify()


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
            minimal_primes(I(X * Y), asserted=[I(X)]).verify()
        good = minimal_primes(I(X * Y), asserted=[I(X), I(Y)])
        assert good.provenance == "asserted"
        assert good.is_asserted()

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
        assert {p.canonical_key() for p, _ in tops} == {I(X).canonical_key()}
        j = j_ideal(pres)
        assert j.equals(I(X))
        assert not j_ideal_is_zero(pres, j)

    def test_j_ideal_zero_for_equidimensional_reduced(self):
        pres = PresentedRing(R3, I(X * Y))
        j = j_ideal(pres)
        assert j_ideal_is_zero(pres, j)

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

    def test_harness_parameters(self):
        params = inspect.signature(ringgraph.faltings_harness).parameters
        assert list(params) == ["trials", "seed", "max_vertices", "max_facet_size"]
