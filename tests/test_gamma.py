"""The minimal-prime graph, its two connectivity routes, punctured
spectra, the top-cohomology criterion, and graph products."""

import dataclasses
import json
import random
import sys
from itertools import combinations
from math import comb

import pytest

from ringgraph import (
    QQ,
    ConnectivityReport,
    Ideal,
    MinimalPrimeSet,
    PolyRing,
    PresentedRing,
    PrimeCertificate,
    PrimeGraph,
    RingGraphError,
    build_gamma,
    certify_flag,
    complex_from_lists,
    dimension,
    disconnection_exists,
    ensure_min_primes,
    face_ring,
    facet_adjacency_graph,
    gamma_product,
    graph_from_text,
    height_in_quotient,
    hl_nonvanishing,
    ideal_intersection,
    ideal_sum,
    is_connected,
    m_primary_status,
    minimal_primes,
    parse_session,
    polynomial_quotient,
    punctured_spectrum_connected,
    s2_local_decision,
    top_dimensional_primes,
)
from ringgraph import gamma as gamma_module
from ringgraph import groebner as groebner_module
from ringgraph.complexes import random_pure_complex
from ringgraph.gamma import prime_label
from ringgraph.ideals import provenance

from conftest import asserted_primes, planes_and_line_ring, random_monomial_ideal, random_nonzero_polynomial
from oracles import (
    bfs_components,
    bfs_connected,
    canonical_graph,
    first_disconnecting_partition,
    superset_closure_scan,
)

R4 = PolyRing(QQ, ("x", "y", "z", "w"))
X, Y, Z, W = R4.gens()

R2 = PolyRing(QQ, ("x", "y"))


def planes_ring():
    """Two disjoint planes: (x,y) ∩ (z,w) = (xz, xw, yz, yw)."""
    return PresentedRing(R4, Ideal(R4, (X * Z, X * W, Y * Z, Y * W)))


def nodal_ring():
    x, y = R2.gens()
    return PresentedRing(R2, Ideal(R2, (x ** 2 - y ** 2,)))


def four_cycle_ring():
    ring = PolyRing(QQ, ("x1", "x2", "x3", "x4"))
    x1, x2, x3, x4 = ring.gens()
    return PresentedRing(ring, Ideal(ring, (x1 * x3, x2 * x4)))


class TestBuildGamma:
    def test_two_disjoint_planes_disconnected(self):
        g = build_gamma(planes_ring())
        assert g.n == 2
        assert not g.edges
        assert g.dims == (0,)  # the pair sum is the whole irrelevant ideal
        assert g.pair_value(0, 1) == 2

    def test_nodal_curve_connected(self):
        g = build_gamma(nodal_ring())
        assert g.n == 2
        assert (0, 1) in g.edges

    def test_four_cycle(self):
        g = build_gamma(four_cycle_ring())
        assert g.n == 4
        assert len(g.edges) == 4
        comps = bfs_components(g.n, g.edges)
        assert len(comps) == 1
        # every vertex has degree two
        deg = [0] * 4
        for a, b in g.edges:
            deg[a] += 1
            deg[b] += 1
        assert deg == [2, 2, 2, 2]

    def test_domain_single_vertex(self):
        pres = PresentedRing(R2, Ideal(R2, (R2.var(0) ** 3 - R2.var(1) ** 2,)))
        g = build_gamma(pres)
        assert g.n == 1
        assert not g.edges

    def test_pair_dimensions_are_facet_intersections(self):
        """The face ring modulo the sum of the primes of facets F and G is
        the polynomial ring on F ∩ G: every pair dimension, in the order
        of the facet-adjacency graph, is |F ∩ G|, read off the facets."""
        rng = random.Random(2611)
        cases = [random_pure_complex(rng, n, size, rng.randint(2, comb(n, size))) for n, size in [(5, 2), (6, 3), (7, 4)] * 5]
        cases.append(random_pure_complex(random.Random(1), 10, 4, 60))  # the sr-wide shape
        for cplx in cases:
            facets = facet_adjacency_graph(cplx).labels
            expected = tuple(len(set(f) & set(g)) for f, g in combinations(facets, 2))
            assert build_gamma(face_ring(cplx)).dims == expected
        assert len(expected) == 60 * 59 // 2

    def test_refuses_mixed_dimension(self):
        ring = PolyRing(QQ, ("x", "y", "z"))
        x, y, z = ring.gens()
        pres = PresentedRing(ring, Ideal(ring, (x * y, x * z)))
        with pytest.raises(RingGraphError):
            build_gamma(pres)


def count_pair_evidence(monkeypatch) -> list:
    """Route the graph module's pair dimensions, which every pair's height
    or status is read from, through a counter with one entry per pair."""
    calls = []
    original = gamma_module._pair_dimensions

    def counted(primes):
        calls.extend(combinations(primes, 2))
        return original(primes)

    monkeypatch.setattr(gamma_module, "_pair_dimensions", counted)
    return calls


def count_buchberger_calls(monkeypatch) -> list:
    """Route ``buchberger`` through a counter in every package module that
    binds it; each call appends (its generators, its basis key)."""
    calls = []
    original = groebner_module.buchberger

    def counted(gens, *args, **kwargs):
        basis = original(gens, *args, **kwargs)
        calls.append((tuple(gens), basis.key()))
        return basis

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "ringgraph" and getattr(module, "buchberger", None) is original:
            monkeypatch.setattr(module, "buchberger", counted)
    return calls


class TestSavedGroebnerWork:
    def test_face_ring_graph_computes_no_basis(self, monkeypatch):
        # the SR ideal and the variable primes know their bases, and pair
        # heights fold masks
        cplx = random_pure_complex(random.Random(120), 10, 4, 120)
        calls = count_buchberger_calls(monkeypatch)
        ring = face_ring(cplx)
        assert build_gamma(ring).n == 120
        assert calls == []

    def test_punctured_sums_the_defining_ideal_once(self, monkeypatch):
        # Q[x,y,z]/(xy - z^2) modulo (x - z): the m-primary status and the
        # minimal primes read one J + a, whose basis is computed once; the
        # decomposition check's intersection of the primes, a different
        # ideal, has the same basis.
        ring3 = PolyRing(QQ, ("x", "y", "z"))
        x, y, z = ring3.gens()
        pres = PresentedRing(ring3, Ideal(ring3, (x * y - z ** 2,)))
        j_plus_a = Ideal(ring3, (y * z - z ** 2, x - z)).groebner().key()
        calls = count_buchberger_calls(monkeypatch)
        report = punctured_spectrum_connected(pres, Ideal(ring3, (x - z,)))
        assert report.status == "disconnected"
        assert report.labels == (("x", "z"), ("x - z", "y - z"))
        assert [gens for gens, _ in calls].count((x * y - z ** 2, x - z)) == 1
        assert [key for _, key in calls].count(j_plus_a) == 2
        assert len(calls) == 11
        # the pair of primes over J + a, which contain J, is summed without it
        assert sum(x * y - z ** 2 in gens for gens, _ in calls) == 1

    def test_hl_adds_no_defining_ideal(self, monkeypatch):
        # Q[x,y,z,w]/(x^2 - y^2) at (z, w): each top prime, which contains
        # the defining ideal, meets (z, w) in one basis that does not carry it
        pres = PresentedRing(R4, Ideal(R4, (X ** 2 - Y ** 2,)))
        assert len(top_dimensional_primes(pres)) == 2  # decomposed and measured before counting
        calls = count_buchberger_calls(monkeypatch)
        assert hl_nonvanishing(pres, Ideal(R4, (Z, W))) is False
        assert len(calls) == 2
        assert [gens for gens, _ in calls if X ** 2 - Y ** 2 in gens] == []

    def test_top_prime_graph_of_a_ring_not_equidimensional(self, monkeypatch):
        # two planes and a line, decomposed, reduced and found not
        # equidimensional before counting: the locality decision reads the
        # one pair of planes, whose sum is the one basis computed, and
        # builds no quotient by the small-dimension ideal
        ring = planes_and_line_ring()
        assert certify_flag(ring, "reduced") and not certify_flag(ring, "equidimensional")
        calls = count_buchberger_calls(monkeypatch)
        report = s2_local_decision(ring)
        assert report.connected is False and report.witness["cross_heights"] == [[0, 1, 2]]
        assert len(calls) == 1
        assert s2_local_decision(ring) == report and len(calls) == 1


class TestSharedHeightEvidence:
    def test_heights_computed_once_per_ring(self, monkeypatch, four_cycle_session_text):
        ring = parse_session(four_cycle_session_text).presented("R")
        calls = count_pair_evidence(monkeypatch)
        graph = build_gamma(ring)
        assert disconnection_exists(ring).connected
        assert s2_local_decision(ring).connected
        assert len(calls) == 6  # one per pair of the four minimal primes
        assert build_gamma(ring) is graph

    def test_core_built_once_per_ring(self, monkeypatch):
        # (xyz, xyw) = (x) ∩ (y) ∩ (z, w): the decision drops the line
        # z = w = 0 and reads the two hyperplanes, whose one pair gets one
        # height, on a graph kept on the ring.
        x, y, z, w = X, Y, Z, W
        ring = PresentedRing(R4, Ideal(R4, (x * y * z, x * y * w)))
        calls = count_pair_evidence(monkeypatch)
        reports = [s2_local_decision(ring) for _ in range(3)]
        assert [r.connected for r in reports] == [True] * 3
        assert len(calls) == 1
        assert sorted(ring.gamma.labels) == [("x",), ("y",)]  # the two hyperplanes' graph, kept

    def test_more_than_twenty_primes_get_one_verdict_from_every_route(self, monkeypatch):
        """21 triangles on seven vertices, and eleven on each of two
        disjoint vertex sets: the bipartition route and the locality
        decision give the graph's and the facet shortcut's verdict, from
        one height per pair."""
        triangles = list(combinations(range(1, 8), 3))
        shifted = [tuple(v + 7 for v in f) for f in triangles]
        calls = count_pair_evidence(monkeypatch)
        for n, facets, connected in [(7, triangles[:21], True), (14, triangles[:11] + shifted[:11], False)]:
            cplx = complex_from_lists(n, facets)
            ring = face_ring(cplx)
            calls.clear()
            partition, local = disconnection_exists(ring), s2_local_decision(ring)
            via_graph = is_connected(build_gamma(ring))
            assert len(calls) == comb(len(facets), 2)
            assert partition.connected == local.connected == via_graph.connected == connected
            assert partition.components == via_graph.components == is_connected(facet_adjacency_graph(cplx)).components


def pair_values(graph) -> list:
    """The graph's height or status of every pair, in sorted pair order."""
    return [graph.pair_value(i, j) for i, j in combinations(range(graph.n), 2)]


def general_pair_graph(ring, mps, ring_dim, relation, is_edge, prov) -> PrimeGraph:
    """The pair graph by the general route alone: each pair's sum rebuilt
    as a plain ideal, which carries no mask, gives its dimension through
    the defining ideal, and its edge through ``relation``, which the
    graph's reading of that dimension must match."""
    primes = sorted(mps.ideals(), key=lambda p: p.canonical_key())
    pairs = list(combinations(range(len(primes)), 2))
    sums = [Ideal(ring.ambient, ideal_sum(primes[i], primes[j]).gens) for i, j in pairs]
    dims = tuple(dimension(ideal_sum(ring.defining, b)) for b in sums)
    values = [relation(b) for b in sums]
    edges = frozenset(pair for pair, value in zip(pairs, values) if value == is_edge)
    graph = PrimeGraph(tuple(prime_label(p) for p in primes), edges, tuple(primes), dims, ring_dim, prov)
    assert pair_values(graph) == values
    return graph


def general_punctured(ring, a) -> ConnectivityReport:
    """``punctured_spectrum_connected`` with every status by the general route."""
    total = ideal_sum(ring.defining, a)
    status = m_primary_status(Ideal(ring.ambient, total.gens), ring)
    assert status != "unit-ideal"
    if status == "m-primary":
        return ConnectivityReport("empty", None, (), (), witness={"reason": "m-primary"})
    mps = minimal_primes(total)
    graph = general_pair_graph(ring, mps, None, lambda b: m_primary_status(b, ring), "not-m-primary", provenance(mps))
    return is_connected(graph)


class TestPairEvidenceRoutes:
    """Pairs of variable primes read their dimension off their masks; the
    general route, through each pair's sum without a mask, must give the
    same evidence, edges and witnesses."""

    @pytest.fixture
    def general_calls(self, monkeypatch) -> list:
        """The graph module's ``dimension`` calls made while it computes
        pair dimensions, counted: one per pair sent down the general route."""
        calls, inside = [], []
        pair_dimensions, dimension_of = gamma_module._pair_dimensions, gamma_module.dimension

        def counted_pairs(primes):
            inside.append(primes)
            try:
                return pair_dimensions(primes)
            finally:
                inside.pop()

        monkeypatch.setattr(gamma_module, "_pair_dimensions", counted_pairs)
        monkeypatch.setattr(gamma_module, "dimension", lambda a: (inside and calls.append(a)) or dimension_of(a))
        return calls

    def check(self, ring, ideals):
        """Both routes agree on the ring's punctured spectra modulo
        ``ideals`` and, when it is equidimensional, on its graph."""
        for a in ideals:
            assert punctured_spectrum_connected(ring, a) == general_punctured(ring, a), a
        if not certify_flag(ring, "equidimensional"):
            return None
        mps, graph = ensure_min_primes(ring), build_gamma(ring)
        relation = lambda b: height_in_quotient(ring, b)
        ring_dim = ring.dim() if graph.n > 1 else None  # one prime has no pair to read it against
        assert graph == general_pair_graph(ring, mps, ring_dim, relation, 1, provenance(mps, ring.equidimensional))
        return graph

    def monomial_ideals(self, rng, ring, count):
        ideals = [Ideal(ring.ambient, ())]
        for _ in range(count):
            ideals.append(random_monomial_ideal(rng, ring.ambient, max_gens=2, max_exp=rng.choice([1, 2])))
            ideals.append(Ideal.of_variables(ring.ambient, rng.randrange(1, 1 << ring.ambient.nvars)))
        return ideals

    def test_face_rings(self, general_calls):
        rng = random.Random(2002)
        cases = [
            complex_from_lists(5, [[1, 2, 3]]),  # one facet
            complex_from_lists(4, [[1, 2, 3, 4]]),  # the full simplex: the zero ideal is the prime
            complex_from_lists(6, [[1, 2, 3], [4, 5, 6]]),  # disconnected
            complex_from_lists(7, [[1, 2], [3, 4], [5, 6, 7]]),  # disconnected, not pure
            complex_from_lists(5, [[1, 2, 3], [3, 4, 5]]),  # one shared vertex
        ]
        cases += [random_pure_complex(rng, rng.randint(5, 7), rng.randint(2, 4), rng.randint(2, 8)) for _ in range(12)]
        heights = set()
        for cplx in cases:
            ring = face_ring(cplx)
            graph = self.check(ring, self.monomial_ideals(rng, ring, 2))
            heights |= set(pair_values(graph)) if graph else set()
        assert {1, 2, 3} <= heights
        wide = face_ring(random_pure_complex(random.Random(60), 10, 4, 60))  # the sr-wide shape
        assert len(self.check(wide, [Ideal(wide.ambient, ())]).dims) == 60 * 59 // 2
        assert general_calls == []

    def test_monomial_rings(self, general_calls):
        rng = random.Random(3306)
        ring = PolyRing(QQ, ("x", "y", "z", "w", "v"))
        graphs = 0
        for _ in range(40):
            pres = PresentedRing(ring, random_monomial_ideal(rng, ring, max_gens=4, max_exp=3))
            graph = self.check(pres, self.monomial_ideals(rng, pres, 2))
            graphs += graph is not None and graph.n > 1
            assert all(p.var_mask is not None for p in ensure_min_primes(pres).ideals())
        assert graphs >= 10
        assert general_calls == []

    def test_mixed_primes_take_the_general_route(self, general_calls):
        # (xyz) = (x) ∩ (y) ∩ (z), with (y) written out: no mask on it
        cert = PrimeCertificate("monomial-variable-prime")
        primes = (Ideal.of_variables(R4, 0b001), Ideal(R4, (Y,)), Ideal.of_variables(R4, 0b100))
        ring = PresentedRing(R4, Ideal(R4, (X * Y * Z,)))
        ring.attach_min_primes(MinimalPrimeSet(ring.defining, tuple((p, cert) for p in primes), "computed-monomial"))
        graph = self.check(ring, [])
        assert len(general_calls) == 3 and pair_values(graph) == [1, 1, 1]


class TestConnectivityRoutes:
    def test_is_connected_matches_bfs(self, rng):
        graphs = []
        for _ in range(120):
            n = rng.choice([rng.randint(1, 7), rng.randint(8, 64)])
            density = rng.choice([0.02, 0.05, 0.1, 0.35])
            labels = tuple(f"v{i}" for i in range(n))
            edges = frozenset(
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < density
            )
            graphs.append(PrimeGraph(labels, edges))
        # products of two 20-facet graphs: 400 vertices each
        for size in (4, 3):
            factors = [
                facet_adjacency_graph(random_pure_complex(rng, 10, size, 20)) for _ in range(2)
            ]
            graphs.append(gamma_product(*factors))
        assert max(g.n for g in graphs) == 400
        outcomes = set()
        for graph in graphs:
            rep = is_connected(graph)
            assert rep.connected == bfs_connected(graph.n, graph.edges)
            assert [list(c) for c in rep.components] == bfs_components(graph.n, graph.edges)
            outcomes.add((graph.n > 7, rep.connected))
        assert outcomes == {(False, True), (False, False), (True, True), (True, False)}

    def test_empty_graph(self):
        rep = is_connected(PrimeGraph((), frozenset()))
        assert rep.status == "empty"
        assert rep.connected is None

    def test_disconnection_route_agrees_with_graph_route(self):
        for pres_fn in (planes_ring, nodal_ring, four_cycle_ring):
            pres = pres_fn()
            via_graph = is_connected(build_gamma(pres))
            via_partition = disconnection_exists(pres)
            assert via_graph.connected == via_partition.connected

    def test_disconnection_witness_on_planes(self):
        rep = disconnection_exists(planes_ring())
        assert rep.status == "disconnected"
        w = rep.witness
        sides = {
            frozenset(w["side_a_intersection"]),
            frozenset(w["side_b_intersection"]),
        }
        assert sides == {frozenset({"x", "y"}), frozenset({"z", "w"})}
        assert all(h >= 2 for _, _, h in w["cross_heights"] if h != "inf")
        assert w["partition_count_searched"] == 1

    def test_connected_witness_counts_all_partitions(self):
        rep = disconnection_exists(four_cycle_ring())
        assert rep.status == "connected"
        assert rep.witness["partition_count_searched"] == 2 ** 3 - 1


def dims_to_heights(ring_dim, dims) -> list:
    return [float("inf") if d == -1 else ring_dim - d for d in dims]


def heights_to_dims(ring_dim, heights) -> tuple:
    return tuple(-1 if h == float("inf") else ring_dim - h for h in heights)


def list_route_report(ring) -> ConnectivityReport:
    """disconnection_exists's report rebuilt from the list-scan oracle."""
    graph = build_gamma(ring)
    k, labels, prov = graph.n, graph.labels, graph.provenance
    # each pair's height read off the flat list in order, not by its index
    heights = dict(zip(combinations(range(k), 2), dims_to_heights(graph.ring_dim, graph.dims)))
    if k <= 1:
        return ConnectivityReport("connected", True, (tuple(range(k)),), labels, provenance=prov)
    side_a, side_b, count = first_disconnecting_partition(k, heights)
    if side_a is None:
        witness = {"partition_count_searched": count}
        return ConnectivityReport("connected", True, (tuple(range(k)),), labels, witness, provenance=prov)
    witness = {
        "side_a": [list(labels[i]) for i in side_a],
        "side_b": [list(labels[j]) for j in side_b],
        "side_a_intersection": ideal_intersection(*(graph.payloads[i] for i in side_a)).min_gen_strings(),
        "side_b_intersection": ideal_intersection(*(graph.payloads[j] for j in side_b)).min_gen_strings(),
        "cross_heights": [
            [i, j, "inf" if h == float("inf") else h]
            for i in side_a
            for j in side_b
            for h in [heights[(min(i, j), max(i, j))]]
        ],
        "partition_count_searched": count,
    }
    comps = (tuple(side_a), tuple(side_b))
    return ConnectivityReport("disconnected", False, comps, labels, witness, provenance=prov)


class TestBipartitionSearch:
    def test_matches_list_scan_oracle(self):
        rng = random.Random(515)
        statuses = []
        for _ in range(60):
            n = rng.randint(4, 7)
            size = rng.randint(2, min(4, n - 1))
            count = rng.randint(1, min(12, comb(n, size)))
            ring = face_ring(random_pure_complex(rng, n, size, count))
            report = disconnection_exists(ring)
            assert report == list_route_report(ring)
            statuses.append((report.status, len(ring.min_primes.primes)))
        assert {s for s, _ in statuses} == {"connected", "disconnected"}
        assert max(k for _, k in statuses) == 12

    def test_closure_route_matches_list_scan_on_random_heights(self):
        """Only the partitions holding prime 0's neighbours are read; the
        first one found and its counter must be the full scan's, also for
        heights drawn at random on the primes of a face ring."""
        rng = random.Random(516)
        found = []
        for _ in range(40):
            n = rng.randint(5, 7)
            size = rng.randint(2, n - 2)
            ring = face_ring(random_pure_complex(rng, n, size, rng.randint(2, min(11, comb(n, size)))))
            graph = build_gamma(ring)
            k, low = graph.n, rng.random() * 0.6
            pairs = list(combinations(range(k), 2))
            heights = [1 if rng.random() < low else rng.choice([2, 3, float("inf")]) for _ in pairs]
            edges = frozenset(pair for pair, h in zip(pairs, heights) if h == 1)
            dims = heights_to_dims(graph.ring_dim, heights)
            ring.gamma = dataclasses.replace(graph, edges=edges, dims=dims)
            report = disconnection_exists(ring)
            assert report == list_route_report(ring)
            found.append(report.witness["partition_count_searched"])
        assert len(set(found)) > 10

    def test_closure_route_matches_the_superset_closure_scan(self):
        """The closure test reads only the set bits of side a; the masks
        visited, the first partition and its counter must be those of the
        scan over every prime, on random near-relations of 1..12 primes."""
        rng = random.Random(517)
        outcomes = set()
        for k in range(1, 13):
            ring = face_ring(random_pure_complex(rng, 6, 2, k))
            graph = build_gamma(ring)
            assert graph.n == k
            for _ in range(30):
                low = rng.random() * 0.5
                pairs = list(combinations(range(k), 2))
                heights = [1 if rng.random() < low else 2 for _ in pairs]
                near = [0] * k
                for (i, j), h in zip(pairs, heights):
                    if h < 2:
                        near[i] |= 1 << j
                        near[j] |= 1 << i
                ring.gamma = dataclasses.replace(graph, dims=heights_to_dims(graph.ring_dim, heights))
                report = disconnection_exists(ring)
                side, searched = superset_closure_scan(k, near)
                outcomes.add((k > 1, side is None))
                if side is None:
                    assert report.status == "connected"
                    assert k == 1 or report.witness == {"partition_count_searched": searched}
                else:
                    assert report.components[0] == tuple(i for i in range(k) if side >> i & 1)
                    assert report.witness["partition_count_searched"] == searched
        assert outcomes == {(False, True), (True, True), (True, False)}


class TestPuncturedSpectrum:
    def test_four_cycle_quotient_connected(self):
        # the canonical example: puncturing the cone point of the 4-cycle
        pres = four_cycle_ring()
        rep = punctured_spectrum_connected(pres, Ideal(pres.ambient, ()))
        assert rep.status == "connected"
        assert rep.connected is True
        assert len(rep.labels) == 4

    def test_two_planes_disconnect_after_puncture(self):
        pres = planes_ring()
        rep = punctured_spectrum_connected(pres, Ideal(R4, ()))
        assert rep.status == "disconnected"
        assert rep.witness["side_a"] and rep.witness["side_b"]

    def test_m_primary_ideal_empties_the_spectrum(self):
        pres = four_cycle_ring()
        amb = pres.ambient
        rep = punctured_spectrum_connected(
            pres, Ideal(amb, tuple(amb.gens()))
        )
        assert rep.status == "empty"
        assert rep.witness == {"reason": "m-primary"}

    def test_unit_ideal_refused(self):
        pres = four_cycle_ring()
        amb = pres.ambient
        with pytest.raises(RingGraphError):
            punctured_spectrum_connected(pres, Ideal(amb, (amb.one(),)))


class TestTopCohomologyCriterion:
    def test_known_on_two_planes(self):
        pres = planes_ring()
        # (x, y) cuts one plane to a point: nonvanishing
        assert hl_nonvanishing(pres, Ideal(R4, (X, Y)))
        # (x, z) leaves a positive-dimensional piece on both planes
        assert not hl_nonvanishing(pres, Ideal(R4, (X, Z)))

    def test_polynomial_ring_specialization(self, rng):
        # for a domain the criterion collapses to m-primariness
        ring = polynomial_quotient(PolyRing(QQ, ("x", "y", "z")))
        amb = ring.ambient
        for _ in range(25):
            gens = tuple(
                random_nonzero_polynomial(rng, amb, max_terms=2, max_degree=2, zero_constant=True)
                for _ in range(rng.randint(1, 3))
            )
            a = Ideal(amb, gens)
            if a.is_unit():
                continue
            assert hl_nonvanishing(ring, a) == (m_primary_status(a, ring) == "m-primary")

    def test_refuses_constant_terms(self):
        ring = polynomial_quotient(R2)
        with pytest.raises(RingGraphError):
            hl_nonvanishing(ring, Ideal(R2, (R2.var(0) + 1,)))


class TestGammaProduct:
    def test_cycle_times_edge_is_cube(self):
        c4 = build_gamma(four_cycle_ring())
        k2 = build_gamma(nodal_ring())
        cube = gamma_product(c4, k2)
        assert cube.n == 8
        assert len(cube.edges) == 12
        assert bfs_connected(cube.n, cube.edges)

    def test_connectivity_iff_both_factors(self, rng):
        for _ in range(30):
            def rand_graph():
                n = rng.randint(1, 4)
                edges = frozenset(
                    (i, j)
                    for i in range(n)
                    for j in range(i + 1, n)
                    if rng.random() < 0.5
                )
                return PrimeGraph(tuple(f"u{i}" for i in range(n)), edges)

            g1, g2 = rand_graph(), rand_graph()
            prod = gamma_product(g1, g2)
            both = bfs_connected(g1.n, g1.edges) and bfs_connected(g2.n, g2.edges)
            assert bfs_connected(prod.n, prod.edges) == both

    def test_product_is_commutative_up_to_relabeling(self, rng):
        g1 = PrimeGraph(("a", "b"), frozenset({(0, 1)}))
        g2 = PrimeGraph(("c", "d", "e"), frozenset({(0, 1)}))
        p12 = gamma_product(g1, g2)
        p21 = gamma_product(g2, g1)
        swapped = tuple((b, a) for (a, b) in p21.labels)
        assert canonical_graph(p12.labels, p12.edges) == canonical_graph(
            swapped, p21.edges
        )


class TestGraphSerialization:
    def test_json_round_trip(self):
        g = build_gamma(four_cycle_ring())
        doc = json.loads(g.to_json())
        back = PrimeGraph.from_json_dict(doc)
        assert back.labels == g.labels
        assert back.edges == g.edges

    def test_dot_round_trip(self):
        g = build_gamma(planes_ring())
        back = graph_from_text(g.to_dot())
        assert back.labels == g.labels
        assert back.edges == g.edges

    def test_dot_labels(self):
        cplx = complex_from_lists(4, [[1, 2, 3], [2, 3, 4]])
        facets = facet_adjacency_graph(cplx)
        assert 'v0 [label="(1, 2, 3)"];' in facets.to_dot()
        assert 'v1 [label="(1, 2, 3) x (2, 3, 4)"];' in gamma_product(facets, facets).to_dot()
        primes = build_gamma(face_ring(cplx))
        assert 'v0 [label="(x4)"];' in primes.to_dot()
        assert 'v1 [label="(x4) x (x1)"];' in gamma_product(primes, primes).to_dot()
        scalars = graph_from_text('{"vertices": [7, "p"], "edges": [[0, 1]]}')
        assert 'v0 [label="7"];' in scalars.to_dot() and 'v1 [label="p"];' in scalars.to_dot()

    def test_report_document_unwrapped(self):
        g = build_gamma(nodal_ring())
        report_like = {"command": "gamma", "verdicts": {"graph": g.to_json_dict()}}
        back = graph_from_text(json.dumps(report_like))
        assert back.labels == g.labels

    def test_bad_payloads_refused(self):
        with pytest.raises(RingGraphError):
            graph_from_text("{}")
        with pytest.raises(RingGraphError):
            graph_from_text("graph g { }")
        with pytest.raises(RingGraphError):
            PrimeGraph.from_json_dict({"vertices": ["a"], "edges": [[0, 5]]})


class TestProvenanceTaint:
    def test_asserted_primes_taint_reports(self):
        pres = planes_ring()
        asserted = asserted_primes(pres.defining, [Ideal(R4, (X, Y)), Ideal(R4, (Z, W))])
        pres.attach_min_primes(asserted)
        rep = disconnection_exists(pres)
        assert rep.provenance == "asserted"

    def test_asserted_equidim_flag_taints_graph_routes(self):
        ring = PolyRing(QQ, ("x", "y", "z"))
        x, y, z = ring.gens()
        pres = PresentedRing(ring, Ideal(ring, (x * y, x * z)))
        pres.claim("equidimensional", True, "asserted")
        graph = build_gamma(pres)
        assert graph.provenance == "asserted"
        assert is_connected(graph).provenance == "asserted"
        assert disconnection_exists(pres).provenance == "asserted"

    def test_computed_claims_stay_computed(self):
        pres = four_cycle_ring()
        graph = build_gamma(pres)
        assert pres.equidimensional == (True, "certified")
        assert graph.provenance == "computed"
        assert is_connected(graph).provenance == "computed"
