#!/usr/bin/env python3
"""Cross-check the minimal-prime graph of face rings over pure complexes.

For every pure simplicial complex in the configured range, the
minimal-prime graph's connectivity (graph search over height-one
edges) is compared against the disconnecting-partition test, which reads
the closure of one prime under the pair heights below two.  Both routes
read the same pair heights, so that check catches a graph-search bug,
never a wrong height.  The graph's edges are therefore also compared
with the facet adjacency of the complex (facets sharing a codimension-one
face), which is read off the facets alone and never off a prime.
Any disagreement is printed with the complex that produced it.

Run as ``python scripts/sweep_dual_routes.py --max-vertices 5``.
"""

import argparse
import random
import time
from itertools import combinations

from ringgraph import build_gamma, complex_from_lists, face_ring, facet_adjacency_graph
from ringgraph.gamma import routes_agree


def disagreement(n: int, facets) -> str | None:
    """What the face ring of the complex gets wrong, or None."""
    cplx = complex_from_lists(n, facets)
    ring = face_ring(cplx)
    if not routes_agree(ring):
        return "the graph route and the partition route disagree"
    if build_gamma(ring).edges != facet_adjacency_graph(cplx).edges:
        return "the graph's edges are not the facet adjacency"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-vertices", type=int, default=5)
    parser.add_argument("--min-facet-size", type=int, default=2)
    parser.add_argument("--max-facet-size", type=int, default=4)
    parser.add_argument(
        "--max-facets",
        type=int,
        default=0,
        help="exhaust only facet sets up to this size (0 = no bound)",
    )
    parser.add_argument(
        "--random",
        type=int,
        default=0,
        metavar="N",
        help="additionally draw N random complexes at the largest vertex count",
    )
    parser.add_argument("--seed", type=int, default=20260819)
    args = parser.parse_args()

    started = time.perf_counter()
    checked = disagreements = 0

    for n in range(2, args.max_vertices + 1):
        for size in range(args.min_facet_size, min(args.max_facet_size, n) + 1):
            pool = list(combinations(range(1, n + 1), size))
            top = len(pool) if args.max_facets == 0 else min(args.max_facets, len(pool))
            for count in range(1, top + 1):
                for facets in combinations(pool, count):
                    checked += 1
                    why = disagreement(n, facets)
                    if why:
                        disagreements += 1
                        print(f"DISAGREEMENT n={n} facets={list(facets)}: {why}")

    rng = random.Random(args.seed)
    n = args.max_vertices
    for _ in range(args.random):
        size = rng.randint(args.min_facet_size, min(args.max_facet_size, n))
        pool = list(combinations(range(1, n + 1), size))
        facets = rng.sample(pool, rng.randint(1, len(pool)))
        checked += 1
        why = disagreement(n, facets)
        if why:
            disagreements += 1
            print(f"DISAGREEMENT n={n} facets={facets}: {why}")

    elapsed = time.perf_counter() - started
    print(f"checked={checked} disagreements={disagreements} elapsed={elapsed:.1f}s")
    return 0 if disagreements == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
