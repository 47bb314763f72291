"""Simplicial complexes, face rings, the facet-adjacency shortcut, joins,
and the randomized punctured-connectedness harness."""

import hashlib
import json
import pickle
import random
from itertools import combinations
from math import comb

import pytest

from ringgraph import (
    GREVLEX,
    LEX,
    QQ,
    ConnectivityReport,
    Ideal,
    PrimeField,
    RingGraphError,
    SimplicialComplex,
    StructuralError,
    buchberger,
    build_gamma,
    complex_from_lists,
    elimination_order,
    face_ring,
    facet_adjacency_graph,
    facet_min_primes,
    faltings_harness,
    is_connected,
    is_pure,
    join,
    random_pure_connected_complex,
    sr_ideal,
)
from ringgraph import complexes as complexes_module
from ringgraph import ideals as ideals_module
from ringgraph.complexes import default_generator_count, face_ring_ambient, random_pure_complex

from oracles import minimal_nonface_supports


def random_impure_complex(rng, n):
    """Facets of mixed sizes on n vertices, reduced to an antichain."""
    drawn = {frozenset(rng.sample(range(1, n + 1), rng.randint(1, n))) for _ in range(rng.randint(1, 8))}
    return complex_from_lists(n, [f for f in drawn if not any(f < g for g in drawn)])


def four_cycle():
    return complex_from_lists(4, [(1, 2), (2, 3), (3, 4), (1, 4)])


class TestComplexValidation:
    def test_comparable_facets_refused(self):
        with pytest.raises(RingGraphError):
            complex_from_lists(3, [(1, 2), (1, 2, 3)])

    def test_vertex_out_of_range(self):
        for facet in [(1, 3), (0, 1), (-1,)]:
            with pytest.raises(RingGraphError):
                complex_from_lists(2, [facet])

    def test_void_needs_flag(self):
        with pytest.raises(RingGraphError):
            SimplicialComplex(2, ())
        SimplicialComplex(2, (), allow_void=True)

    def test_purity(self):
        assert is_pure(four_cycle())
        assert not is_pure(complex_from_lists(3, [(1, 2), (3,)]))

    def test_is_face(self):
        c = four_cycle()
        assert c.is_face(frozenset({1, 2}))
        assert c.is_face(frozenset({3}))
        assert not c.is_face(frozenset({1, 3}))
        assert not c.is_face(frozenset({2, 5}))  # vertex 5 is outside the complex
        assert c.is_face(frozenset())
        assert not c.is_face(v for v in (1, 3))  # any iterable, read once
        assert c.is_face(iter([2, 1, 2]))
        assert not c.is_face([0, 1])


class TestFaceRing:
    def test_four_cycle_ideal(self):
        # diagonals are the only minimal non-faces
        a = sr_ideal(four_cycle())
        assert sorted(str(g) for g in a.gens) == ["x1*x3", "x2*x4"]

    def test_full_simplex_has_zero_ideal(self):
        c = complex_from_lists(3, [(1, 2, 3)])
        assert sr_ideal(c).is_zero_ideal()

    def test_isolated_vertex_kills_variable(self):
        # vertex 3 appears in no facet, so x3 is a minimal non-face
        c = complex_from_lists(3, [(1, 2)])
        assert "x3" in {str(g) for g in sr_ideal(c).gens}

    def test_sr_ideal_matches_oracle(self, rng):
        complexes = []
        for _ in range(30):
            n = rng.randint(2, 8)
            size = rng.randint(1, n)
            pool = list(combinations(range(1, n + 1), size))
            count = rng.randint(1, min(len(pool), 12))
            complexes.append(random_pure_complex(rng, n, size, count))
            complexes.append(random_impure_complex(rng, n))
        # the vertex cap: 300 facets of size 8 on 16 vertices
        complexes.append(random_pure_complex(random.Random(16), 16, 8, 300))
        for c in complexes:
            got = set()
            for g in sr_ideal(c).gens:
                mono = next(iter(g.terms))
                got.add(frozenset(i for i, e in enumerate(mono) if e))
            assert got == minimal_nonface_supports(c.n_vertices, c.canonical_facets())

    def test_known_basis_is_the_computed_one(self, monkeypatch):
        """An SR ideal carries its reduced grevlex basis, which must be the
        one Buchberger's algorithm gives its generators, down to the
        pickle; every other order still gets its basis from Buchberger."""
        rng = random.Random(452)
        complexes = [SimplicialComplex(3, (), allow_void=True), complex_from_lists(4, [(1, 2, 3, 4)])]
        for _ in range(80):
            n = rng.randint(1, 8)
            size = rng.randint(1, n)
            count = rng.randint(1, min(comb(n, size), 10))
            complexes += [random_pure_complex(rng, n, size, count), random_impure_complex(rng, n)]
        orders = []
        monkeypatch.setattr(
            ideals_module, "buchberger", lambda gens, order, ring: orders.append(order) or buchberger(gens, order, ring)
        )
        for c in complexes:
            sr = sr_ideal(c)
            known = sr.groebner()
            computed = buchberger(sr.gens, GREVLEX, ring=sr.ring)
            assert orders == [], c
            assert known.key() == computed.key(), c
            assert pickle.dumps(known) == pickle.dumps(computed), c
            for order in (LEX, elimination_order(rng.randint(1, c.n_vertices))):
                assert sr.groebner(order).key() == buchberger(sr.gens, order, ring=sr.ring).key(), (c, order)
                assert orders.pop() == order

    def test_face_rings_share_their_parts(self):
        """One ambient ring per vertex count and field, one variable prime
        per (ring, mask); a shared prime computes its basis key once."""
        c1, c2 = four_cycle(), complex_from_lists(4, [(1, 2), (2, 3), (3, 4)])
        r1, r2 = face_ring(c1), face_ring(c2)
        assert r1.ambient is r2.ambient is face_ring_ambient(4, QQ)
        assert face_ring_ambient(4, PrimeField(7)) is not r1.ambient
        shared = set(r1.min_primes.ideals()) & set(r2.min_primes.ideals())
        assert len(shared) == 3  # (x3, x4), (x1, x4) and (x1, x2), the same objects
        for p in shared:
            assert p is Ideal.of_variables(r1.ambient, p.var_mask)
            assert p.canonical_key() is p.canonical_key()

    def test_void_complex_has_unit_ideal(self):
        void = SimplicialComplex(3, (), allow_void=True)
        assert sr_ideal(void).is_unit()
        with pytest.raises(StructuralError, match="defining ideal is the unit ideal"):
            face_ring(void)

    def test_facet_primes_are_complements(self):
        mps = facet_min_primes(four_cycle())
        mps.verify()
        gens = {tuple(sorted(p.min_gen_strings())) for p in mps.ideals()}
        assert gens == {("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x1", "x4")}

    def test_face_ring_flags(self):
        pres = face_ring(four_cycle())
        assert pres.reduced == (True, "certified")
        assert pres.equidimensional == (True, "certified")
        assert pres.min_primes.provenance == "computed-monomial"


class TestFacetOrder:
    """facet_min_primes and facet_adjacency_graph list facets in one order,
    the canonical-key order of the facets' variable primes."""

    def complexes(self, rng):
        out = [complex_from_lists(n, [range(1, n + 1)]) for n in (1, 4)]  # full simplices
        for _ in range(40):
            n = rng.randint(2, 7)
            size = rng.randint(1, n)
            count = rng.randint(1, min(comb(n, size), 8))
            out.append(random_pure_complex(rng, n, size, count))
            out.append(random_impure_complex(rng, n))
        return out

    def test_primes_in_canonical_key_order(self, rng):
        for c in self.complexes(rng):
            keys = [p.canonical_key() for p in facet_min_primes(c).ideals()]
            assert keys == sorted(keys)

    def test_adjacency_labels_are_the_facets_of_the_primes(self, rng):
        for c in self.complexes(rng):
            if not is_pure(c):
                continue
            primes = facet_min_primes(c).ideals()
            labels = facet_adjacency_graph(c).labels
            assert len(labels) == len(primes)
            for label, p in zip(labels, primes):
                complement = {f"x{v}" for v in range(1, c.n_vertices + 1) if v not in label}
                assert set(p.min_gen_strings()) == complement


class TestFacetAdjacency:
    def test_shortcut_matches_computed_graph(self, rng):
        # the combinatorial route and the height route must coincide
        for _ in range(25):
            n = rng.randint(2, 6)
            size = rng.randint(2, min(4, n))
            pool = list(combinations(range(1, n + 1), size))
            count = rng.randint(1, min(len(pool), 6))
            c = random_pure_complex(rng, n, size, count)
            fast = facet_adjacency_graph(c)
            slow = build_gamma(face_ring(c))
            assert fast.edges == slow.edges
            assert fast.n == slow.n

    def test_labels_are_sorted_facets(self):
        g = facet_adjacency_graph(four_cycle())
        assert set(g.labels) == {(1, 2), (2, 3), (3, 4), (1, 4)}

    def test_impure_refused(self):
        with pytest.raises(RingGraphError):
            facet_adjacency_graph(complex_from_lists(3, [(1, 2), (3,)]))


class TestJoin:
    def test_segment_join_segment(self):
        seg = complex_from_lists(2, [(1, 2)])
        square = join(seg, seg)
        assert square.n_vertices == 4
        assert square.canonical_facets() == ((1, 2, 3, 4),)

    def test_join_counts(self, rng):
        for _ in range(10):
            c1 = random_pure_complex(rng, 3, 2, rng.randint(1, 3))
            c2 = random_pure_complex(rng, 4, 2, rng.randint(1, 4))
            j = join(c1, c2)
            assert j.n_vertices == 7
            assert len(j.facets) == len(c1.facets) * len(c2.facets)
            assert is_pure(j)


class TestRandomGeneration:
    def test_connected_sampler_delivers(self):
        c = random_pure_connected_complex(5, 3, 3, seed=7)
        assert is_connected(build_gamma(face_ring(c))).connected

    def test_connected_sampler_budget_exhaustion(self):
        # a zero draw budget must refuse rather than loop or guess
        with pytest.raises(RingGraphError):
            random_pure_connected_complex(4, 2, 2, seed=1, budget=0)


class TestHarness:
    def test_smoke_run_passes(self):
        report = faltings_harness(trials=8, seed=99)
        assert report.ok
        assert report.passed == 8
        assert report.failed == 0
        assert len(report.records) == 8

    def test_deterministic_for_fixed_seed(self):
        a = faltings_harness(trials=6, seed=123)
        b = faltings_harness(trials=6, seed=123)
        assert a.to_json() == b.to_json()

    def test_different_seeds_differ(self):
        a = faltings_harness(trials=6, seed=1)
        b = faltings_harness(trials=6, seed=2)
        assert a.to_json() != b.to_json()

    def test_one_face_ring_per_draw(self, monkeypatch):
        """A trial reuses the face ring its sampler built and accepted: one
        build per draw, none after it."""
        draws, builds = [], []
        draw, build = complexes_module.random_pure_complex, complexes_module.face_ring
        monkeypatch.setattr(complexes_module, "random_pure_complex", lambda *a: draws.append(draw(*a)) or draws[-1])
        monkeypatch.setattr(complexes_module, "face_ring", lambda c, *a: builds.append(c) or build(c, *a))
        report = faltings_harness(trials=20, seed=3)
        assert report.ok and len(draws) >= 20
        assert builds == draws

    def test_reports_match_the_recorded_ones(self):
        """The reports of seeds 0..29, five trials each, equal the ones
        recorded at commit b3b8b3a, before trials reused their sampler's ring."""
        digest = hashlib.sha256()
        for seed in range(30):
            digest.update(faltings_harness(trials=5, seed=seed).to_json().encode())
        assert digest.hexdigest() == "55235260f054e2dcfad6192ed6ac78350a7d3b3cd5b1c26fe8178565c625689e"

    def test_generator_budget(self):
        assert default_generator_count(5) == 3
        assert default_generator_count(2) == 0
        assert default_generator_count(1) == 0

    def test_vertex_bound_validated(self):
        with pytest.raises(RingGraphError):
            faltings_harness(trials=1, seed=5, max_vertices=50)

    def test_failure_path_records_reproducer(self, monkeypatch):
        # force a failing verdict to exercise the reporting machinery
        def fake_punctured(pres, a, strategy="auto"):
            return ConnectivityReport(
                "disconnected", False, ((0,), (1,)), ("p", "q"),
                witness={"forced": True},
            )

        monkeypatch.setattr(complexes_module, "punctured_spectrum_connected", fake_punctured)
        report = faltings_harness(trials=3, seed=11)
        assert report.failed == 3
        assert not report.ok
        for failure in report.failures:
            assert failure["witness"] == {"forced": True}
            repro = failure["reproduce"]
            assert set(repro) == {"seed", "index", "complex_seed"}
            assert repro["seed"] == 11

    def test_json_shape(self):
        report = faltings_harness(trials=2, seed=3)
        doc = json.loads(report.to_json())
        assert doc["trials"] == 2
        assert doc["ok"] is True
        assert len(doc["records"]) == 2
        for rec in doc["records"]:
            assert rec["status"] in ("connected", "empty")
