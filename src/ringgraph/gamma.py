"""Connectedness machinery on the minimal primes of a presented ring.

The central object is the graph whose vertices are the minimal primes
of an equidimensional presentation, with an edge wherever the sum of
two primes has height one in the quotient.  Connectivity of that graph,
the exhaustive bipartition test, connectivity of the punctured spectrum
modulo an ideal, and the nonvanishing criterion for top local
cohomology all live here, along with the product-graph construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import PreconditionError, StructuralError
from .ideals import (
    Ideal,
    PresentedRing,
    _height,
    _quotient_dimension,
    _status,
    ideal_intersection,
    ideal_sum,
    m_primary_status,
    provenance,
)
from .minprimes import (
    ensure_min_primes,
    minimal_primes,
    require_equidimensional,
    top_dimensional_primes,
)

PARTITION_VERTEX_CAP = 20


@dataclass(frozen=True)
class PrimeGraph:
    """A finite graph with canonical, hashable vertex labels.

    ``payloads`` optionally carries the prime ideals behind the labels,
    ``evidence`` the pairwise data (heights or primary statuses) that
    produced the edges, and ``provenance`` the label of every verdict
    read off the graph.
    """

    labels: tuple
    edges: frozenset  # of (i, j) pairs with i < j
    payloads: tuple | None = None
    evidence: tuple | None = None  # sorted ((i, j), value) pairs
    provenance: str = "computed"

    @property
    def n(self) -> int:
        return len(self.labels)

    def evidence_dict(self) -> dict:
        return dict(self.evidence) if self.evidence else {}

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
        if all(isinstance(x, str) for x in label):
            return "(" + ", ".join(label) + ")"
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


def _pair_graph(ring: PresentedRing, mps, relation, is_edge, prov: str) -> PrimeGraph:
    """The graph on the primes of ``mps`` in canonical-key order: each
    pair's evidence is ``relation`` of d = dim ring/(the pair's sum), and
    the pair is an edge where that evidence equals ``is_edge``."""
    primes = sorted(mps.ideals(), key=lambda p: p.canonical_key())
    masked = all(p.var_mask is not None for p in primes)
    evidence = tuple(
        ((i, j), relation(_pair_dimension(ring, primes[i], primes[j], masked)))
        for i in range(len(primes))
        for j in range(i + 1, len(primes))
    )  # generated in sorted pair order
    edges = frozenset(pair for pair, value in evidence if value == is_edge)
    return PrimeGraph(tuple(prime_label(p) for p in primes), edges, tuple(primes), evidence, prov)


def _pair_dimension(ring: PresentedRing, p: Ideal, q: Ideal, masked: bool) -> int:
    """dim ring/(p + q), -1 for the unit ideal there.  When ``masked``, every
    prime is a variable prime containing the defining ideal (attached primes
    are verified to; the primes over it plus a contain it by construction),
    so ring/(p + q) is the polynomial ring in the variables outside both."""
    if masked:
        return ring.ambient.nvars - (p.var_mask | q.var_mask).bit_count()
    return _quotient_dimension(ring, ideal_sum(p, q))


def build_gamma(ring: PresentedRing) -> PrimeGraph:
    """The minimal-prime graph: edge exactly at height-one pair sums.

    The only place pairwise heights are computed.  The graph is built
    once per presented ring and kept on it: attached minimal primes are
    verified against the defining ideal, so they cannot go stale.  The
    graph is ``asserted`` when the primes or the equidimensionality flag
    its heights rest on were asserted.
    """
    mps = ensure_min_primes(ring)
    flag = require_equidimensional(ring, "the minimal-prime graph")
    if ring.gamma is None:
        ring.gamma = _pair_graph(ring, mps, lambda d: _height(ring, d), 1, provenance(mps, flag))
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
    side_a = comps[0]
    side_b = tuple(sorted(i for c in comps[1:] for i in c))
    witness = {
        "side_a": [_label_to_json(graph.labels[i]) for i in side_a],
        "side_b": [_label_to_json(graph.labels[i]) for i in side_b],
    }
    ev = graph.evidence_dict()
    if ev:
        witness["cross_evidence"] = [
            [i, j, _height_json(ev[(min(i, j), max(i, j))])]
            for i in side_a
            for j in side_b
        ]
    return ConnectivityReport("disconnected", False, comps, graph.labels, witness, provenance=prov)


# ---------------------------------------------------------------------------
# the exhaustive bipartition route


def disconnection_exists(ring: PresentedRing) -> ConnectivityReport:
    """Search the 2^(k-1) - 1 bipartitions of the minimal primes for one
    whose cross sums all have height at least two.  A counter numbers
    them, and only those whose side a holds prime 0's neighbours are read.

    Returns a disconnected report carrying the first such partition and
    the intersection ideals of its two sides, or a connected report
    when every bipartition is crossed by a height-one pair.  Reads the
    heights from :func:`build_gamma` but never its edges, so this route
    stays independent of :func:`is_connected`; its provenance is the
    graph's, since it reads the same claims.
    """
    k = len(ensure_min_primes(ring).primes)
    if k > PARTITION_VERTEX_CAP:
        raise PreconditionError(
            f"bipartition search is capped at {PARTITION_VERTEX_CAP} minimal primes, got {k}"
        )
    graph = build_gamma(ring)
    primes, labels, heights = graph.payloads, graph.labels, graph.evidence_dict()
    prov = graph.provenance
    if k <= 1:
        return ConnectivityReport("connected", True, (tuple(range(k)),), labels, provenance=prov)

    near = [0] * k  # near[i]: the primes whose sum with prime i has height below two
    for (i, j), h in heights.items():
        if h < 2:
            near[i] |= 1 << j
            near[j] |= 1 << i
    required = near[0] >> 1  # the mask bits of prime 0's neighbours, always on side a
    mask = required
    while mask < 2 ** (k - 1) - 1:
        side, rest = 1 | mask << 1, mask  # prime 0 is always on side a; bit j of rest is prime j + 1
        while rest and not near[(rest & -rest).bit_length()] & ~side:  # side a's other primes, lowest first
            rest &= rest - 1
        if not rest:  # no prime of side a is near one of side b
            side_a = [i for i in range(k) if side >> i & 1]
            side_b = [i for i in range(k) if not side >> i & 1]
            inter_a = ideal_intersection(*(primes[i] for i in side_a))
            inter_b = ideal_intersection(*(primes[j] for j in side_b))
            witness = {
                "side_a": [_label_to_json(labels[i]) for i in side_a],
                "side_b": [_label_to_json(labels[j]) for j in side_b],
                "side_a_intersection": inter_a.min_gen_strings(),
                "side_b_intersection": inter_b.min_gen_strings(),
                "cross_heights": [
                    [i, j, _height_json(heights[(min(i, j), max(i, j))])]
                    for i in side_a
                    for j in side_b
                ],
                "partition_count_searched": mask + 1,
            }
            comps = (tuple(side_a), tuple(side_b))
            return ConnectivityReport(
                "disconnected", False, comps, labels, witness, provenance=prov
            )
        mask = (mask + 1) | required  # the next mask that holds ``required``
    return ConnectivityReport(
        "connected",
        True,
        (tuple(range(k)),),
        labels,
        witness={"partition_count_searched": 2 ** (k - 1) - 1},
        provenance=prov,
    )


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
    status = m_primary_status(a, ring, total)
    if status == "unit-ideal":
        raise PreconditionError("the ideal is the unit ideal in the quotient; nothing to puncture")
    if status == "m-primary":
        return ConnectivityReport("empty", None, (), (), witness={"reason": "m-primary"})
    mps = minimal_primes(total)
    graph = _pair_graph(ring, mps, _status, "not-m-primary", provenance(mps))
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
    tops = top_dimensional_primes(ring)
    return any(m_primary_status(ideal_sum(p, a), ring) == "m-primary" for p, _ in tops)


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
