"""Squarefree monomial rings from simplicial complexes, and the
randomized connectedness harness built on them.

A complex is stored by its facets (pairwise incomparable, vertices
numbered from 1), each a bitmask in which vertex v is bit v - 1, as is
its variable in the face ring.  The defining ideal is generated by the
minimal non-faces, which by Alexander duality are the minimal
transversals of the facet complements (MMCS on member bitsets in
:mod:`ringgraph.polynomials`, shared with the monomial prime strategy
and with every dimension); sorted as ints they are its reduced grevlex
basis, and it is built knowing its dimension, the largest facet size,
so a face ring makes no dimension search.  Its minimal primes are the
variable primes of the facet complements, and for pure complexes the
minimal-prime graph has an edge exactly when two facets share a
codimension-one face.  The harness samples pure complexes with a
connected graph, adjoins few enough monomial elements, and checks the
punctured spectrum modulo them stays connected.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import asdict, dataclass, field as dc_field
from itertools import combinations
from math import comb

from .errors import PreconditionError, StructuralError
from .fields import QQ, Field
from .gamma import (
    PrimeGraph,
    build_gamma,
    is_connected,
    punctured_spectrum_connected,
)
from .ideals import Ideal, PresentedRing
from .minprimes import MinimalPrimeSet, PrimeCertificate, certify_flag
from .polynomials import PolyRing, mask_bits, minimal_transversals

COMPLEX_VERTEX_CAP = 16


@dataclass(frozen=True)
class SimplicialComplex:
    """Facet description of a finite simplicial complex.

    Facets are vertex masks (vertex v is bit v - 1); they must be
    pairwise incomparable and use vertices 1..n.  The void complex (no
    facets) needs the explicit flag.
    """

    n_vertices: int
    facets: tuple  # of int masks
    allow_void: bool = False

    def __post_init__(self):
        if self.n_vertices < 0 or self.n_vertices > COMPLEX_VERTEX_CAP:
            raise StructuralError(
                f"vertex count must lie in 0..{COMPLEX_VERTEX_CAP}"
            )
        if not self.facets and not self.allow_void:
            raise StructuralError("no facets; pass allow_void for the void complex")
        for f in self.facets:
            if type(f) is not int:
                raise StructuralError("facets must be vertex masks")
            if not f:
                raise StructuralError("empty facet; use the void flag instead")
            if f < 0 or f >> self.n_vertices:
                raise StructuralError("facet vertex out of range")
        if any(i != j and not f & ~g for i, f in enumerate(self.facets) for j, g in enumerate(self.facets)):
            raise StructuralError("facets must be pairwise incomparable")

    def canonical_facets(self) -> tuple:
        """The facets as sorted vertex tuples, in sorted order."""
        return tuple(sorted(_vertices(f) for f in self.facets))


def _vertex_mask(n: int, vertices) -> int:
    vertices = set(vertices)
    if any(v < 1 or v > n for v in vertices):
        raise StructuralError("facet vertex out of range")
    return sum(1 << (v - 1) for v in vertices)


def _vertices(mask: int) -> tuple:
    return tuple(i + 1 for i in mask_bits(mask))


def complex_from_lists(n: int, facets) -> SimplicialComplex:
    """The complex on vertices 1..n whose facets are the given vertex collections."""
    return SimplicialComplex(n, tuple(_vertex_mask(n, f) for f in facets))


def is_pure(cplx: SimplicialComplex) -> bool:
    sizes = {f.bit_count() for f in cplx.facets}
    return len(sizes) <= 1


@functools.lru_cache(maxsize=64)  # one ring per (n, field), shared by the face rings on n vertices
def face_ring_ambient(n: int, field: Field = QQ) -> PolyRing:
    return PolyRing(field, tuple(f"x{i}" for i in range(1, n + 1)))


def sr_ideal(cplx: SimplicialComplex, field: Field = QQ) -> Ideal:
    """The defining ideal of the face ring: one squarefree monomial per
    minimal non-face, the minimal transversals of the facet complements
    (Alexander duality), which are its reduced basis.  It is built with
    its dimension, the size of a largest facet.  The void complex has no
    face, not even the empty one, so its ideal is the unit ideal, of
    dimension -1."""
    ring = face_ring_ambient(cplx.n_vertices, field)
    covers = minimal_transversals(_complement(cplx, f) for f in cplx.facets)
    covers.sort(key=lambda m: (-m.bit_count(), m))  # descending grevlex on squarefree monomials, buchberger's order
    monos = (tuple([m >> i & 1 for i in range(ring.nvars)]) for m in covers)
    ideal = Ideal(ring, map(ring.monomial, monos), grevlex_basis=True)
    ideal._dim = max((f.bit_count() for f in cplx.facets), default=-1)
    return ideal


def _complement(cplx: SimplicialComplex, facet: int) -> int:
    return (1 << cplx.n_vertices) - 1 ^ facet


def _prime_order(cplx: SimplicialComplex) -> list:
    """The facets in the canonical-key order of their complements'
    variable primes: by the complement's set bits, negated, which is
    its binary string read from the lowest bit."""
    return sorted(cplx.facets, key=lambda f: bin(_complement(cplx, f))[:1:-1])


def facet_min_primes(cplx: SimplicialComplex, field: Field = QQ) -> MinimalPrimeSet:
    """Minimal primes of the face ring, one per facet: the variables of
    the complementary vertex set.  The full simplex gives the zero
    ideal as its single prime."""
    ring = face_ring_ambient(cplx.n_vertices, field)
    cert = PrimeCertificate("monomial-variable-prime")
    primes = tuple((Ideal.of_variables(ring, _complement(cplx, f)), cert) for f in _prime_order(cplx))
    return MinimalPrimeSet(sr_ideal(cplx, field), primes, "computed-monomial")


def face_ring(cplx: SimplicialComplex, field: Field = QQ) -> PresentedRing:
    """The presented face ring with reducedness, purity, and minimal
    primes attached (facet route, verified on attach)."""
    mps = facet_min_primes(cplx, field)
    pres = PresentedRing(mps.for_ideal.ring, mps.for_ideal)
    pres.attach_min_primes(mps)
    if is_pure(cplx):
        certify_flag(pres, "equidimensional")
    return pres


def facet_adjacency_graph(cplx: SimplicialComplex) -> PrimeGraph:
    """Combinatorial shortcut for pure complexes: facets adjacent when
    they share all but one vertex, listed in the order of their primes.
    Must agree with the computed minimal-prime graph; tests pin that."""
    if not is_pure(cplx):
        raise PreconditionError("facet adjacency shortcut needs a pure complex")
    facets = _prime_order(cplx)
    size = facets[0].bit_count() if facets else 0
    pairs = combinations(range(len(facets)), 2)
    edges = frozenset((i, j) for i, j in pairs if (facets[i] & facets[j]).bit_count() == size - 1)
    return PrimeGraph(tuple(_vertices(f) for f in facets), edges)


def join(c1: SimplicialComplex, c2: SimplicialComplex) -> SimplicialComplex:
    """Simplicial join: every facet of one unioned with every facet of
    the other, on the disjoint union of the vertex sets."""
    n = c1.n_vertices + c2.n_vertices
    return SimplicialComplex(n, tuple(f | g << c1.n_vertices for f in c1.facets for g in c2.facets))


# ---------------------------------------------------------------------------
# random generation


def random_pure_complex(rng: random.Random, n: int, size: int, count: int) -> SimplicialComplex:
    pool = list(combinations(range(1, n + 1), size))
    if count > len(pool):
        raise PreconditionError("more facets requested than exist at that size")
    return complex_from_lists(n, rng.sample(pool, count))


def random_pure_connected_complex(n: int, size: int, count: int, seed: int, budget: int = 1000) -> SimplicialComplex:
    """Rejection-sample a pure complex whose minimal-prime graph is
    connected; refuses after ``budget`` failed draws."""
    return _connected_sample(n, size, count, seed, budget)[0]


def _connected_sample(n: int, size: int, count: int, seed: int, budget: int = 1000) -> tuple:
    """(complex, face ring) of :func:`random_pure_connected_complex`'s draw."""
    if size < 1 or size > n:
        raise PreconditionError("facet size out of range")
    rng = random.Random(seed)
    for _ in range(budget):
        cand = random_pure_complex(rng, n, size, count)
        ring = face_ring(cand)
        if is_connected(build_gamma(ring)).connected:
            return cand, ring
    raise PreconditionError(
        f"no connected pure complex found in {budget} draws for (n={n}, size={size}, count={count})"
    )


# ---------------------------------------------------------------------------
# the randomized connectedness harness


@dataclass
class HarnessTrial:
    index: int
    n_vertices: int
    facet_size: int
    facets: list
    adjoined: list
    status: str
    connected: bool | None


@dataclass
class HarnessReport:
    trials: int
    seed: int
    passed: int
    failed: int
    records: list = dc_field(default_factory=list)
    failures: list = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_json(self) -> str:
        return json.dumps({**asdict(self), "ok": self.ok}, sort_keys=True)


def default_generator_count(dim: int) -> int:
    """The widest count the connectedness statement allows: dim - 2."""
    return max(0, dim - 2)


def faltings_harness(
    trials: int,
    seed: int,
    max_vertices: int = 8,
    max_facet_size: int = 5,
) -> HarnessReport:
    """Randomized check of the connectedness statement at desk scale.

    Each trial: draw a pure complex with a connected minimal-prime
    graph on at most ``max_vertices`` vertices, adjoin
    ``default_generator_count(dim)`` random monomials over Q, and test
    that the punctured spectrum of the quotient stays connected.  Any disconnected trial is a
    failure and its reproduction data is recorded.
    """
    if max_vertices < 3 or max_vertices > 12:
        raise PreconditionError("vertex bound must lie in 3..12")
    if max_facet_size < 2:
        raise PreconditionError("facet-size bound must be at least 2")
    rng = random.Random(seed)
    report = HarnessReport(trials=trials, seed=seed, passed=0, failed=0)
    for idx in range(trials):
        n = rng.randint(3, max_vertices)
        size = rng.randint(2, min(max_facet_size, n))
        pool_size = comb(n, size)
        count = rng.randint(1, min(pool_size, 8))
        sub_seed = rng.randrange(2**31)
        try:
            cplx, pres = _connected_sample(n, size, count, sub_seed)
        except PreconditionError:
            cplx = complex_from_lists(n, [range(1, size + 1)])
            pres = face_ring(cplx)
        gens = _random_monomials(rng, pres.ambient, default_generator_count(pres.dim()))
        a = Ideal(pres.ambient, tuple(gens))
        result = punctured_spectrum_connected(pres, a)
        ok = result.status in ("connected", "empty")
        trial = HarnessTrial(
            index=idx,
            n_vertices=n,
            facet_size=size,
            facets=[list(f) for f in cplx.canonical_facets()],
            adjoined=[str(g) for g in gens],
            status=result.status,
            connected=result.connected,
        )
        report.records.append(trial)
        if ok:
            report.passed += 1
        else:
            report.failed += 1
            report.failures.append(
                {
                    "trial": asdict(trial),
                    "witness": result.witness,
                    "reproduce": {
                        "seed": seed,
                        "index": idx,
                        "complex_seed": sub_seed,
                    },
                }
            )
    return report


def _random_monomials(rng: random.Random, ring: PolyRing, count: int) -> list:
    out = []
    for _ in range(count):
        nsupp = rng.randint(1, min(3, ring.nvars))
        supp = rng.sample(range(ring.nvars), nsupp)
        mono = [0] * ring.nvars
        for i in supp:
            mono[i] = rng.randint(1, 2)
        out.append(ring.monomial(tuple(mono)))
    return out
