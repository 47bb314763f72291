"""Connectedness machinery on the minimal primes of a presented ring.

The central object is the graph whose vertices are the minimal primes
of an equidimensional presentation, with an edge wherever the sum of
two primes has height one in the quotient.  Connectivity of that graph,
the bipartition test (read off the closure of one prime under the
relation "the sum has height below two"), connectivity of the punctured
spectrum modulo an ideal, and the nonvanishing criterion for top local
cohomology all live here, along with the product-graph construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

from .errors import PreconditionError, StructuralError
from .ideals import (
    Ideal,
    PresentedRing,
    _height,
    _status,
    dimension,
    ideal_intersection,
    ideal_sum,
    provenance,
)
from .minprimes import (
    ensure_min_primes,
    minimal_primes,
    require_equidimensional,
    top_dimensional_primes,
)

@dataclass(frozen=True)
class PrimeGraph:
    """A finite graph with canonical, hashable vertex labels.

    ``payloads`` optionally carries the prime ideals behind the labels,
    ``dims`` the pair dimensions that produced the edges (None for a
    graph built from edges alone), and ``provenance`` the label of every
    verdict read off the graph.
    """

    labels: tuple
    edges: frozenset  # of (i, j) pairs with i < j
    payloads: tuple | None = None
    dims: tuple | None = None  # dim ring/(p + q), -1 for the unit ideal, in combinations(range(n), 2) order
    ring_dim: int | None = None  # a pair reads as its height against it; None: as its m-primary status
    provenance: str = "computed"

    @property
    def n(self) -> int:
        return len(self.labels)

    def pair_value(self, i: int, j: int):
        """The height or status of the pair {i, j}, read off its d."""
        i, j = min(i, j), max(i, j)
        return _pair_value(self.ring_dim, self.dims[i * (2 * self.n - i - 3) // 2 + j - 1])

    def to_json_dict(self) -> dict:
        return {
            "vertices": [_label_to_json(l) for l in self.labels],
            "edges": sorted([list(e) for e in self.edges]),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @staticmethod
    def from_json_dict(doc: dict) -> "PrimeGraph":
        vertices, edges = doc.get("vertices"), doc.get("edges")
        if not isinstance(vertices, list) or not isinstance(edges, list):
            raise StructuralError("a graph needs 'vertices' and 'edges' lists")
        if not all(isinstance(e, list) and [type(v) for v in e] == [int, int] for e in edges):
            raise StructuralError("every edge must be a pair of integer vertex indices")
        labels = tuple(_label_from_json(v) for v in vertices)
        edges = frozenset((min(a, b), max(a, b)) for a, b in edges)
        for a, b in edges:
            if not (0 <= a < len(labels)) or not (0 <= b < len(labels)) or a == b:
                raise StructuralError("edge endpoints out of range")
        return PrimeGraph(labels, edges)

    def to_dot(self, name: str = "gamma") -> str:
        """GraphViz output; the canonical JSON rides along in a comment
        so the file stays readable by the JSON importer."""
        lines = [f"graph {name} {{"]
        lines.append("  // json: " + self.to_json())
        for i, label in enumerate(self.labels):
            text = _label_text(label).replace('"', "'")
            lines.append(f'  v{i} [label="{text}"];')
        for a, b in sorted(self.edges):
            lines.append(f"  v{a} -- v{b};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _label_to_json(label):
    if isinstance(label, tuple):
        return [_label_to_json(x) for x in label]
    return label


def _label_from_json(doc):
    if isinstance(doc, list):
        return tuple(_label_from_json(x) for x in doc)
    return doc


def _label_text(label) -> str:
    if isinstance(label, tuple):
        if not any(isinstance(x, tuple) for x in label):
            return "(" + ", ".join(map(str, label)) + ")"
        return " x ".join(_label_text(x) for x in label)
    return str(label)


def graph_from_text(text: str) -> PrimeGraph:
    """Read a graph from canonical JSON, from a report document that
    embeds one under a ``graph`` key, or from DOT produced by
    :meth:`PrimeGraph.to_dot` (via its embedded JSON comment)."""
    stripped = text.strip()
    if stripped.startswith("{"):
        doc = _json_object(stripped)
        for _ in range(3):
            if "vertices" in doc and "edges" in doc:
                return PrimeGraph.from_json_dict(doc)
            if isinstance(doc.get("graph"), dict):
                doc = doc["graph"]
            elif isinstance(doc.get("verdicts"), dict):
                doc = doc["verdicts"]
            else:
                break
        raise StructuralError("no graph payload found in the JSON document")
    for line in stripped.splitlines():
        line = line.strip()
        if line.startswith("// json: "):
            return PrimeGraph.from_json_dict(_json_object(line[len("// json: "):]))
    raise StructuralError("no graph payload found in input")


def _json_object(text: str) -> dict:
    """The JSON object in ``text``; any other JSON value reads as {}."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise StructuralError(f"graph payload is not valid JSON: {e}") from e
    return doc if isinstance(doc, dict) else {}


@dataclass
class ConnectivityReport:
    """Outcome of a connectivity decision with reusable evidence."""

    status: str  # "connected" | "disconnected" | "empty"
    connected: bool | None
    components: tuple = ()
    labels: tuple = ()
    witness: dict | None = None
    conditions: tuple | None = None
    provenance: str = "computed"


# ---------------------------------------------------------------------------
# building the graph


def prime_label(p: Ideal) -> tuple:
    return tuple(p.min_gen_strings()) or ("0",)


def _pair_value(ring_dim: int | None, d: int):
    return _status(d) if ring_dim is None else _height(ring_dim, d)


def _pair_graph(primes, ring_dim: int | None, prov: str) -> PrimeGraph:
    """The graph on ``primes`` in canonical-key order, with an edge where
    a pair's value, read once per distinct d, is height 1 against a set
    ``ring_dim`` or, when it is None, status ``not-m-primary``.  The only
    place pairwise heights and statuses are computed."""
    primes = sorted(primes, key=lambda p: p.canonical_key())
    dims = tuple(_pair_dimensions(primes))
    is_edge = "not-m-primary" if ring_dim is None else 1
    edge_dims = {d for d in set(dims) if _pair_value(ring_dim, d) == is_edge}
    edges = frozenset(pair for pair, d in zip(combinations(range(len(primes)), 2), dims) if d in edge_dims)
    return PrimeGraph(tuple(prime_label(p) for p in primes), edges, tuple(primes), dims, ring_dim, prov)


def _pair_dimensions(primes: list) -> list:
    """dim ring/(p + q), -1 for the unit ideal there, for every pair of
    ``primes`` in sorted pair order.  Every prime contains the ring's
    defining ideal (attached primes are verified to; the primes over it
    plus a contain it by construction), so that is the dimension of p + q
    alone, and for two variable primes that of the polynomial ring in the
    variables outside both: one popcount."""
    masks = [p.var_mask for p in primes]
    if primes and None not in masks:
        n = primes[0].ring.nvars
        return [n - (p | q).bit_count() for i, p in enumerate(masks) for q in masks[i + 1:]]
    return [dimension(ideal_sum(p, q)) for i, p in enumerate(primes) for q in primes[i + 1:]]


def build_gamma(ring: PresentedRing) -> PrimeGraph:
    """The minimal-prime graph: edge exactly at height-one pair sums.

    Refuses a ring that is not equidimensional, so the graph of the top
    primes kept on the ring is then this graph.  It is ``asserted`` when
    the primes or the equidimensionality flag its heights rest on were.
    """
    return _top_prime_graph(ring, require_equidimensional(ring, "the minimal-prime graph"))


def _top_prime_graph(ring: PresentedRing, flag=None) -> PrimeGraph:
    """The graph of the ring's top-dimensional primes, built once and kept
    in ``ring.gamma`` (attached primes are verified, so never stale).  An
    equidimensionality ``flag`` that holds, even asserted, makes every
    minimal prime top and taints the graph."""
    if ring.gamma is None:
        mps = ensure_min_primes(ring)
        primes = mps.ideals() if flag else top_dimensional_primes(ring)
        dim = ring.dim() if len(primes) > 1 else None  # one prime has no pair to read it
        ring.gamma = _pair_graph(primes, dim, provenance(mps, flag))
    return ring.gamma


def is_connected(graph: PrimeGraph) -> ConnectivityReport:
    """Components by graph search from each least unvisited vertex,
    with a split witness when disconnected; the report carries the
    graph's provenance."""
    prov = graph.provenance
    if graph.n == 0:
        return ConnectivityReport("empty", None, (), (), provenance=prov)
    adjacent = [[] for _ in range(graph.n)]
    for a, b in graph.edges:
        adjacent[a].append(b)
        adjacent[b].append(a)
    seen, comps = [False] * graph.n, []
    for start in range(graph.n):
        if not seen[start]:
            seen[start] = True
            comp = [start]
            for v in comp:  # comp grows while it is read
                for w in adjacent[v]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
            comps.append(tuple(sorted(comp)))
    comps = tuple(comps)
    if len(comps) == 1:
        return ConnectivityReport("connected", True, comps, graph.labels, provenance=prov)
    side_b = tuple(sorted(i for c in comps[1:] for i in c))
    witness = _split_witness(graph, comps[0], side_b, "cross_evidence")
    return ConnectivityReport("disconnected", False, comps, graph.labels, witness, provenance=prov)


def _split_witness(graph: PrimeGraph, side_a, side_b, key: str) -> dict:
    """The labels of both sides and, under ``key``, every cross pair's
    height or status, when the graph carries pair dimensions."""
    witness = {
        "side_a": [_label_to_json(graph.labels[i]) for i in side_a],
        "side_b": [_label_to_json(graph.labels[j]) for j in side_b],
    }
    if graph.dims is not None:
        witness[key] = [[i, j, _height_json(graph.pair_value(i, j))] for i in side_a for j in side_b]
    return witness


# ---------------------------------------------------------------------------
# the bipartition route


def disconnection_exists(ring: PresentedRing) -> ConnectivityReport:
    """The bipartition route, :func:`_partition`, on :func:`build_gamma`."""
    return _partition(build_gamma(ring))


def _partition(graph: PrimeGraph) -> ConnectivityReport:
    """Decide whether some bipartition of the graph's primes has every
    cross sum of height at least two.

    Two primes are near when their sum has height below two.  Every
    disconnecting side that holds prime 0 holds the closure C of prime
    0 under that relation, and C is such a side unless it holds every
    prime.  So no bipartition is searched: (C, the rest) is the
    answer, and the first one a counter over side a's masks would
    reach, since a mask holding C's is at least as large.

    Returns a disconnected report carrying that partition and the
    intersection ideals of its two sides, or a connected report when C
    holds every prime.  ``partition_count_searched`` is the
    partition's counter value, one plus the mask of side a's primes
    1..k-1 (bit i - 1 for prime i), or 2^(k-1) - 1, the number of
    bipartitions, when there is none; it is kept so that reports stay
    byte-identical.  Reads the graph's pair dimensions, not its edges:
    a cross-check with :func:`is_connected` catches a graph-search
    fault, never a wrong height.  Its provenance is the graph's, since
    it reads the same claims.
    """
    k, labels, prov = graph.n, graph.labels, graph.provenance
    if k <= 1:
        return ConnectivityReport("connected", True, (tuple(range(k)),), labels, provenance=prov)

    near = [[] for _ in range(k)]  # near[i]: the primes whose sum with prime i has height below two
    for (i, j), d in zip(combinations(range(k), 2), graph.dims):
        if _height(graph.ring_dim, d) < 2:
            near[i].append(j)
            near[j].append(i)
    seen, side_a = [True] + [False] * (k - 1), [0]
    for i in side_a:  # side_a grows while it is read
        for j in near[i]:
            if not seen[j]:
                seen[j] = True
                side_a.append(j)
    if len(side_a) == k:
        witness = {"partition_count_searched": 2 ** (k - 1) - 1}
        return ConnectivityReport("connected", True, (tuple(range(k)),), labels, witness, provenance=prov)
    side_a.sort()
    side_b = [j for j in range(k) if not seen[j]]
    witness = _split_witness(graph, side_a, side_b, "cross_heights")
    witness["side_a_intersection"] = ideal_intersection(*(graph.payloads[i] for i in side_a)).min_gen_strings()
    witness["side_b_intersection"] = ideal_intersection(*(graph.payloads[j] for j in side_b)).min_gen_strings()
    witness["partition_count_searched"] = (sum(1 << i for i in side_a) >> 1) + 1
    return ConnectivityReport("disconnected", False, (tuple(side_a), tuple(side_b)), labels, witness, provenance=prov)


def routes_agree(ring: PresentedRing) -> bool:
    """Whether the graph route and the bipartition route agree on the ring."""
    via_graph = is_connected(build_gamma(ring)).connected
    via_partition = disconnection_exists(ring).status != "disconnected"
    return via_graph == via_partition


def _height_json(h):
    return "inf" if h == float("inf") else h


# ---------------------------------------------------------------------------
# punctured spectrum and local cohomology


def punctured_spectrum_connected(ring: PresentedRing, a: Ideal) -> ConnectivityReport:
    """Connectivity of the punctured spectrum of ring/a.

    Vertices are the minimal primes over the defining ideal plus a; two
    vertices meet away from the irrelevant maximal ideal exactly when
    their sum is not primary to it.  An a primary to the maximal ideal
    leaves nothing after puncturing: status ``empty``.
    """
    total = ideal_sum(ring.defining, a)
    status = _status(dimension(total))
    if status == "unit-ideal":
        raise PreconditionError("the ideal is the unit ideal in the quotient; nothing to puncture")
    if status == "m-primary":
        return ConnectivityReport("empty", None, (), (), witness={"reason": "m-primary"})
    mps = minimal_primes(total)
    graph = _pair_graph(mps.ideals(), None, provenance(mps))
    return is_connected(graph)


def hl_nonvanishing(ring: PresentedRing, a: Ideal) -> bool:
    """Nonvanishing of top local cohomology supported at a.

    True exactly when some minimal prime of full dimension combines
    with a to an ideal primary to the irrelevant maximal ideal.
    """
    if a.ring != ring.ambient:
        raise StructuralError("ideal lives outside the ring's ambient")
    zero_mono = (0,) * ring.ambient.nvars
    for g in a.gens:
        if zero_mono in g.terms:
            raise PreconditionError("the supporting ideal must sit inside the irrelevant maximal ideal")
    return any(dimension(ideal_sum(p, a)) == 0 for p in top_dimensional_primes(ring))


# ---------------------------------------------------------------------------
# products


def gamma_product(g1: PrimeGraph, g2: PrimeGraph) -> PrimeGraph:
    """The graph product matching spectra of tensor products: vertices
    are label pairs, and moves change one coordinate along an edge."""
    labels = tuple((a, b) for a in g1.labels for b in g2.labels)
    n2 = g2.n
    edges = {(i * n2 + a, i * n2 + b) for i in range(g1.n) for a, b in g2.edges}
    edges |= {(a * n2 + j, b * n2 + j) for a, b in g1.edges for j in range(n2)}
    return PrimeGraph(labels, frozenset(edges))
