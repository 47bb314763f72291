"""Independent reference implementations used as test oracles.

Everything here is deliberately written against plain Python data
(integer indices, sets, edge lists) rather than the package's own
abstractions, so that agreement between an oracle and the production
code is evidence and not circularity.  Five exceptions are kept as
references for faster lanes of the package:
:func:`groebner_verify_decomposition`, the decomposition check through
Groebner bases, and :func:`lcm_fold_verify_on_masks`, the same check by
an lcm fold on support masks, both for the lattice lane of
``verify_decomposition``; :func:`field_normal_form_with_quotients`,
division with field arithmetic term by term, for the fraction-free dict
core of ``groebner``; :func:`colon_chain_saturation`, the chain of
colons, for the one elimination per generator of ``saturation``; and
:func:`list_mmcs_minimal_transversals`, MMCS on lists of member masks,
for the member-bitset MMCS of ``minimal_transversals``.
:func:`random_arrangement` builds its inputs with the package, as a
generator whose answer is known by construction.
"""

from __future__ import annotations

from itertools import combinations

from ringgraph.errors import StructuralError
from ringgraph.groebner import GroebnerBasis
from ringgraph.fields import QQ
from ringgraph.ideals import Ideal, ideal_colon, ideal_intersection, radical_membership
from ringgraph.minprimes import DecompositionReport
from ringgraph.polynomials import (
    MonomialOrder,
    PolyRing,
    Polynomial,
    mask_bits,
    mono_div,
    mono_divides,
    mono_mask,
    mono_mul,
)


def brute_minimal_covers(n: int, supports: list) -> set:
    """All inclusion-minimal variable subsets meeting every support.

    ``supports`` is a list of sets of variable indices (0-based), one
    per squarefree monomial generator; empty generator lists give the
    empty cover.  This is the prime decomposition of a squarefree
    monomial ideal read as a vertex-cover problem, computed by full
    subset enumeration.
    """
    covers = []
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            s = set(combo)
            if all(s & supp for supp in supports):
                if not any(c <= s for c in covers):
                    covers.append(s)
    return {frozenset(c) for c in covers}


def list_mmcs_minimal_transversals(masks) -> list:
    """The inclusion-minimal masks meeting every mask of the family,
    sorted by (popcount, set bits), by MMCS (Murakami & Uno, 2014) with
    the uncovered members and each chosen vertex's critical members held
    as lists of member masks, copied on every branch."""

    def mmcs(chosen, cand, uncov, crit):  # crit[u]: members u alone covers
        if not uncov:
            yield chosen
            return
        branch = cand & min(uncov, key=lambda e: (e & cand).bit_count())
        cand &= ~branch
        while branch:
            v = branch & -branch
            branch ^= v
            kept = {u: [e for e in es if not e & v] for u, es in crit.items()}
            if all(kept.values()):
                kept[v] = [e for e in uncov if e & v]
                yield from mmcs(chosen | v, cand, [e for e in uncov if not e & v], kept)
            cand |= v

    found = mmcs(0, -1, list(set(masks)), {})  # -1: every vertex is a candidate
    return sorted(found, key=lambda m: (m.bit_count(), mask_bits(m)))


def bfs_components(n: int, edges) -> list:
    """Connected components of a graph on range(n), by breadth-first
    search over an adjacency list."""
    adj = {i: [] for i in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = set()
    comps = []
    for start in range(n):
        if start in seen:
            continue
        queue = [start]
        seen.add(start)
        comp = []
        while queue:
            v = queue.pop()
            comp.append(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


def bfs_connected(n: int, edges) -> bool:
    return n > 0 and len(bfs_components(n, edges)) == 1


def relabeled_edges(labels, edges) -> frozenset:
    """Canonical edge set under the sort order of the labels; two
    graphs are label-isomorphic iff sorted labels and these sets agree."""
    perm = sorted(range(len(labels)), key=lambda i: labels[i])
    where = {old: new for new, old in enumerate(perm)}
    return frozenset(
        (min(where[a], where[b]), max(where[a], where[b])) for a, b in edges
    )


def canonical_graph(labels, edges) -> tuple:
    return tuple(sorted(labels)), relabeled_edges(labels, edges)


def is_face(cplx, vertices) -> bool:
    """Whether the vertex set (any iterable, read once) lies in some
    facet of the complex, read off its facet masks, in which vertex v is
    bit v - 1.  A vertex outside 1..n lies in no face."""
    s = set(vertices)
    if any(v < 1 or v > cplx.n_vertices for v in s):
        return False
    mask = sum(1 << (v - 1) for v in s)
    return any(not mask & ~f for f in cplx.facets)


def minimal_nonface_supports(n: int, facets: list) -> set:
    """Supports of the minimal non-faces of a complex, 0-based, by
    direct enumeration over all vertex subsets."""
    facet_sets = [set(f) for f in facets]

    def is_face(s):
        return any(s <= f for f in facet_sets)

    nonfaces = []
    for size in range(1, n + 1):
        for combo in combinations(range(1, n + 1), size):
            s = set(combo)
            if is_face(s):
                continue
            if all(is_face(s - {v}) for v in s):
                nonfaces.append(frozenset(v - 1 for v in s))
    return set(nonfaces)


def groebner_verify_decomposition(a, primes) -> DecompositionReport:
    """verify_decomposition through Groebner bases alone: containment,
    radical and incomparability by ideal membership."""
    primes = list(primes)
    failures = []
    if not primes:
        if not a.is_unit():
            failures.append("no primes supplied for a proper ideal")
        return DecompositionReport(not failures, failures)
    for idx, p in enumerate(primes):
        if p.is_unit():
            failures.append(f"prime #{idx} is the unit ideal")
        elif not p.contains_ideal(a):
            failures.append(f"prime #{idx} does not contain the ideal")
    for g in ideal_intersection(*primes).canonical_gens():
        if not radical_membership(g, a):
            failures.append(f"intersection generator {g} escapes the radical")
            break
    for i in range(len(primes)):
        for j in range(len(primes)):
            if i != j and primes[i].contains_ideal(primes[j]):
                failures.append(f"prime #{i} contains prime #{j}; not minimal")
    return DecompositionReport(not failures, failures)


def lcm_fold_verify_on_masks(a, prime_masks: list) -> DecompositionReport:
    """verify_decomposition for a monomial ideal and the variable sets of
    its primes, by support masks and a fold.  A monomial lies in a
    variable prime when its support meets it, and in Rad(a) when its
    support contains a generator's; the primes' intersection is the lcm
    fold of ``ideal_intersection``, on masks, and the first of its
    generators outside Rad(a) in fold order is named."""
    gens = {mono_mask(m) for g in a.gens for m in g.terms}
    failures = [
        f"prime #{idx} does not contain the ideal"
        for idx, p in enumerate(prime_masks)
        if not all(g & p for g in gens)
    ]
    inter = [0]  # supports of the minimal generators, from the unit ideal
    for p in prime_masks:
        kept = [f for f in inter if f & p]  # f | v is f for v in f & p
        lcms = {f | 1 << v for f in inter if not f & p for v in mask_bits(p)}
        for c in sorted(lcms, key=int.bit_count):
            if all(k & ~c for k in kept):
                kept.append(c)
        inter = kept
    for m in inter:
        if all(g & ~m for g in gens):
            mono = a.ring.monomial(tuple(m >> i & 1 for i in range(a.ring.nvars)))
            failures.append(f"intersection generator {mono} escapes the radical")
            break
    failures += [
        f"prime #{i} contains prime #{j}; not minimal"
        for i, p in enumerate(prime_masks)
        for j, q in enumerate(prime_masks)
        if i != j and not q & ~p
    ]
    return DecompositionReport(not failures, failures)


def lcm_fold_intersection(generator_lists: list) -> list:
    """The intersection of monomial ideals, each given by the exponent
    tuples of its minimal generators, folded from the left: every lcm of
    a folded generator with a generator of the next ideal, then only the
    lcms no other one divides.  Sorted by (degree, exponents)."""
    folded = list(generator_lists[0])
    for gens in generator_lists[1:]:
        lcms = {tuple(map(max, f, m)) for f in folded for m in gens}
        folded = [
            m for m in lcms
            if not any(k != m and all(x <= y for x, y in zip(k, m)) for k in lcms)
        ]
    return sorted(folded, key=lambda m: (sum(m), m))


def top_facet_components(facets: list) -> list:
    """The components of the facet adjacency graph on the largest facets,
    each as a set of facets (sorted vertex tuples).  The top-dimensional
    primes of a face ring are those of its largest facets, of size d, and
    two of them sum to height one exactly when their facets share d - 1
    vertices, so this is the locality verdict of a face ring, pure or not.
    """
    d = max(len(f) for f in facets)
    top = sorted(tuple(sorted(f)) for f in facets if len(f) == d)
    edges = [(i, j) for i, j in combinations(range(len(top)), 2) if len(set(top[i]) & set(top[j])) == d - 1]
    return [{top[i] for i in comp} for comp in bfs_components(len(top), edges)]


def first_disconnecting_partition(k: int, heights: dict) -> tuple:
    """The first bipartition of range(k), with 0 on side a, whose cross
    pairs all have height at least two, searched in the order of the
    bits of a counter over the other k - 1 vertices, by list scans.

    Returns (side_a, side_b, partitions searched); both sides are None
    when every bipartition is crossed by a pair of height below two.
    ``heights`` maps each pair (i, j), i < j, to its height.
    """
    for mask in range(2 ** (k - 1) - 1):
        side_a = [0] + [i + 1 for i in range(k - 1) if mask >> i & 1]
        side_b = [i for i in range(k) if i not in side_a]
        ok = True
        for i in side_a:
            for j in side_b:
                if heights[(min(i, j), max(i, j))] < 2:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return side_a, side_b, mask + 1
    return None, None, 2 ** (k - 1) - 1


def superset_closure_scan(k: int, near: list) -> tuple:
    """The first disconnecting bipartition by search: a counter over the
    masks that hold prime 0's neighbours, and a closure test that scans
    every prime 1..k-1, as a reference for the closure of prime 0 that
    ``gamma.disconnection_exists`` reads.  ``near[i]`` is the bitmask of
    the primes whose sum with prime i has height below two.

    Returns (side a as a bitmask, partitions searched), or (None, the
    number of bipartitions) when every one is crossed by a near pair.
    """
    required = near[0] >> 1
    mask = required
    while mask < 2 ** (k - 1) - 1:
        side = 1 | mask << 1
        if not any(side >> i & 1 and near[i] & ~side for i in range(1, k)):
            return side, mask + 1
        mask = (mask + 1) | required
    return None, 2 ** (k - 1) - 1


def _divisor_table(gens, order):
    table = []
    for g in gens:
        if isinstance(g, Polynomial) and not g.is_zero():
            lm, lc = g.leading_term(order)
            table.append((lm, lc, g))
    return table


def field_normal_form_with_quotients(f: Polynomial, basis, order: MonomialOrder | None = None):
    """Full reduction returning (remainder, quotients), computed with the
    field's own operations on every step.

    f == sum(q_i * g_i) + remainder holds exactly, and no remainder
    monomial is divisible by any leading monomial of the divisors.
    """
    if isinstance(basis, GroebnerBasis):
        gens = basis.generators
        order = basis.order
    else:
        gens = list(basis)
        if order is None:
            raise StructuralError("an explicit order is required for raw divisor lists")
    ring = f.ring
    for g in gens:
        if g.ring != ring:
            raise StructuralError("divisor in a different ring")
    field = ring.field
    table = _divisor_table(gens, order)
    quotients = [dict() for _ in gens]
    index_of = {id(g): i for i, g in enumerate(gens)}
    keyfn = order.key()

    work = dict(f.terms)
    remainder = {}
    while work:
        m = max(work, key=keyfn)
        c = work.pop(m)
        for lm, lc, g in table:
            if mono_divides(lm, m):
                q = mono_div(m, lm)
                qc = field.div(c, lc)
                qd = quotients[index_of[id(g)]]
                qd[q] = field.add(qd.get(q, field.zero), qc)
                for gm, gc in g.terms.items():
                    if gm == lm:
                        continue
                    mm = mono_mul(q, gm)
                    s = field.sub(work.get(mm, field.zero), field.mul(qc, gc))
                    if s == field.zero:
                        work.pop(mm, None)
                    else:
                        work[mm] = s
                break
        else:
            remainder[m] = c
    quots = [Polynomial(ring, qd) for qd in quotients]
    return Polynomial(ring, remainder), quots


def support_cover_radical_member(mono: tuple, generators: list) -> bool:
    """Whether the monomial with exponent tuple ``mono`` lies in the
    radical of the monomial ideal generated by the exponent tuples
    ``generators``: some power of it is a multiple of a generator, that
    is, some generator's support lies inside the monomial's."""
    support = {i for i, e in enumerate(mono) if e}
    return any({i for i, e in enumerate(g) if e} <= support for g in generators)


def colon_chain_saturation(a, b):
    """(a : b^infinity) as the limit of the chain a ⊆ (a : b) ⊆
    ((a : b) : b) ⊆ ..., computed until two consecutive reduced bases
    agree."""
    current = a
    while True:
        nxt = ideal_colon(current, b)
        if nxt.groebner().key() == current.groebner().key():
            return current
        current = nxt


def random_arrangement(rng) -> tuple:
    """A seeded union of 2 or 3 linear subspaces of Q^n, n from 4 to 6,
    each of codimension 1 to 3: the ideal of each is spanned by nonzero
    random linear forms with coefficients in -2..2, and the union's by
    their intersection.  Returns (the intersection, the subspace
    ideals); the minimal primes of the union are the inclusion-minimal
    distinct subspace ideals."""
    n = rng.randint(4, 6)
    ring = PolyRing(QQ, tuple(f"x{i}" for i in range(1, n + 1)))
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    subspaces = []
    for _ in range(rng.randint(2, 3)):
        forms = []
        for _ in range(rng.randint(1, 3)):
            coeffs = [0] * n
            while not any(coeffs):
                coeffs = [rng.randint(-2, 2) for _ in range(n)]
            forms.append(ring.poly({units[i]: QQ.from_int(c) for i, c in enumerate(coeffs) if c}))
        subspaces.append(Ideal(ring, forms))
    return ideal_intersection(*subspaces), subspaces
