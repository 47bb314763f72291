"""One pass of a perfbench workload in a fresh interpreter.

``run.py`` starts this script once per pass, so module-global caches in
``ringgraph`` start cold, as they do for a CLI user.  The pass builds its
inputs from the seed, optionally installs the tracer, runs every op in a
closed loop (each op starts when the previous one ends), checks each
result, and prints one JSON object on its last stdout line.

    python3 perfbench/worker.py --workload NAME --seed N [--trace]
    python3 perfbench/worker.py --cli-argv JSON   # one traced CLI call

Inputs are made here, never taken from the test suite.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
import time
from itertools import combinations
from pathlib import Path

import ringgraph as rg

from layertrace import Tracer

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"

# sr-small: the criterion-2 shape, stratified so every seed covers the same
# grid of (vertices, facet size, facet count) with the same mix of connected
# and disconnected complexes; only the facets are drawn.  Connected rings
# cost several times more (the partition search cannot stop early), so an
# unstratified mix would make the seed, not the program, move the timings.
SMALL_VERTICES = (5, 6, 7)
SMALL_FACET_SIZES = (2, 3, 4)
SMALL_MAX_FACETS = 12
SMALL_GRID_ROUNDS = 8
SMALL_TRIALS = 400
SMALL_REDRAWS = 200

# sr-wide: 4-vertex facets on 10 vertices; the first complex is also squared
# by gamma_product.  One ring is one op, so with one 20-facet ring
# op_p50_ms would be a single sub-second timing.  Six 20-facet rings spread
# between the large ones make it the middle of six rings measured at
# different moments, and keep the op count at nine, where the nearest-rank
# op_p90_ms is the 120-facet ring.
WIDE_VERTICES = 10
WIDE_FACET_SIZE = 4
WIDE_FACET_COUNTS = (20, 20, 60, 20, 20, 120, 20, 20)

# gb: cyclic-5 over Q and F_p, then small random ideals (criterion-6 shape).
GB_PRIME = 32003
GB_SMALL_IDEALS = 12000


class Pass:
    """The ops of one pass: latencies, failures and the traced op kind."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.ops: list = []
        self.failures: list = []
        self.ring_pairs = 0

    def run(self, kind: str, label: str, op, check):
        """Time ``op()``, then check its result outside the timed span.
        Returns the result, or None when the op raised or the check failed."""
        if self.tracer is not None:
            self.tracer.op_kind = kind
        started = time.perf_counter()
        try:
            result, problem = op(), None
        except Exception as e:  # noqa: BLE001 - a raising op is a failed op
            result, problem = None, f"raised {type(e).__name__}: {e}"
        self.ops.append([kind, time.perf_counter() - started])
        if self.tracer is not None:
            self.tracer.op_kind = None
        if problem is None:
            try:
                problem = check(result)
            except Exception as e:  # noqa: BLE001 - an unreadable result is wrong
                problem = f"check raised {type(e).__name__}: {e}"
        if problem:
            self.failures.append(f"{label}: {problem}")
            return None
        return result


def _connected_by_bfs(n: int, edges) -> bool:
    adj = {i: [] for i in range(n)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen, todo = {0}, [0]
    while todo:
        for j in adj[todo.pop()]:
            if j not in seen:
                seen.add(j)
                todo.append(j)
    return len(seen) == n


def _graph_problem(cplx, graph, connected: bool) -> str | None:
    """Compare a computed graph and its verdict with the facet-adjacency
    shortcut and a breadth-first search over the shortcut's edges."""
    shortcut = rg.facet_adjacency_graph(cplx)
    if graph.n != shortcut.n or graph.edges != shortcut.edges:
        return (
            f"graph has {graph.n} vertices/{len(graph.edges)} edges, "
            f"facets give {shortcut.n}/{len(shortcut.edges)}"
        )
    expected = _connected_by_bfs(shortcut.n, shortcut.edges)
    if connected != expected:
        return f"connected={connected}, facet adjacency says {expected}"
    return None


# ---------------------------------------------------------------------------
# sr-small


def _draw_facets(rng: random.Random, pool: list, count: int, connected: bool) -> list:
    """Facets drawn from ``pool``, redrawn (boundedly) until the facet
    adjacency graph's connectivity is ``connected`` where that is possible."""
    size = len(pool[0])
    for _ in range(SMALL_REDRAWS):
        facets = sorted(rng.sample(pool, count))
        edges = [
            (i, j)
            for i in range(count)
            for j in range(i + 1, count)
            if len(set(facets[i]) & set(facets[j])) == size - 1
        ]
        if _connected_by_bfs(count, edges) == connected:
            break
    return facets


def sr_small(rng: random.Random, p: Pass):
    rings = []
    for round_ in range(SMALL_GRID_ROUNDS):
        for n in SMALL_VERTICES:
            for size in SMALL_FACET_SIZES:
                pool = list(combinations(range(1, n + 1), size))
                for count in range(1, min(SMALL_MAX_FACETS, len(pool)) + 1):
                    rings.append((n, _draw_facets(rng, pool, count, round_ % 2 == 0)))
    trial_seeds = [rng.randrange(2**31) for _ in range(SMALL_TRIALS)]

    for n, facets in rings:
        cplx = rg.complex_from_lists(n, facets)
        p.ring_pairs += len(facets) * (len(facets) - 1) // 2

        def both_routes(cplx=cplx):
            pres = rg.face_ring(cplx)
            graph = rg.build_gamma(pres)
            via_graph = rg.is_connected(graph).connected
            via_partition = rg.disconnection_exists(pres).status != "disconnected"
            return graph, via_graph, via_partition

        def check(result, cplx=cplx):
            graph, via_graph, via_partition = result
            if via_graph != via_partition:
                return f"routes disagree: graph {via_graph}, partition {via_partition}"
            return _graph_problem(cplx, graph, via_graph)

        p.run("ring", f"ring n={n} facets={facets}", both_routes, check)

    for seed in trial_seeds:

        def check(report):
            status = report.records[0].status
            if report.failed or status not in ("connected", "empty"):
                return f"trial ended {status}"
            return None

        p.run("trial", f"faltings seed={seed}", lambda s=seed: rg.faltings_harness(trials=1, seed=s), check)


# ---------------------------------------------------------------------------
# sr-wide


def sr_wide(rng: random.Random, p: Pass):
    pool = list(combinations(range(1, WIDE_VERTICES + 1), WIDE_FACET_SIZE))
    complexes = [
        rg.complex_from_lists(WIDE_VERTICES, sorted(rng.sample(pool, count)))
        for count in WIDE_FACET_COUNTS
    ]

    graphs = []
    for cplx in complexes:
        k = len(cplx.facets)
        p.ring_pairs += k * (k - 1) // 2

        def build(cplx=cplx):
            graph = rg.build_gamma(rg.face_ring(cplx))
            return graph, rg.is_connected(graph).connected

        def check(result, cplx=cplx):
            graph, connected = result
            return _graph_problem(cplx, graph, connected)

        graphs.append(p.run("ring", f"ring facets={k}", build, check))

    if graphs[0] is None:
        return
    g, connected = graphs[0]

    def square():
        product = rg.gamma_product(g, g)
        return product, rg.is_connected(product).connected

    def check(result):
        product, product_connected = result
        if product.n != g.n * g.n or len(product.edges) != 2 * g.n * len(g.edges):
            return f"product has {product.n} vertices/{len(product.edges)} edges"
        if product_connected != connected:
            return f"product connected={product_connected}, factor connected={connected}"
        return None

    p.run("product", f"gamma_product of the {g.n}-vertex graph", square, check)


# ---------------------------------------------------------------------------
# gb


def cyclic(ring: rg.PolyRing) -> list:
    """The cyclic-n system in all variables of ``ring``."""
    xs, n = ring.gens(), ring.nvars
    gens = []
    for d in range(1, n):
        total = ring.zero()
        for i in range(n):
            term = ring.one()
            for k in range(d):
                term = term * xs[(i + k) % n]
            total = total + term
        gens.append(total)
    product = ring.one()
    for x in xs:
        product = product * x
    gens.append(product - ring.one())
    return gens


def basis_digest(basis) -> str:
    text = "\n".join(str(g) for g in basis.generators)
    return hashlib.sha256(text.encode()).hexdigest()


def cyclic5_rings() -> dict:
    names = tuple(f"x{i}" for i in range(5))
    return {
        "Q": rg.PolyRing(rg.QQ, names),
        f"F{GB_PRIME}": rg.PolyRing(rg.PrimeField(GB_PRIME), names),
    }


def random_polynomial(rng: random.Random, ring, max_terms=3, max_degree=3):
    """A nonzero sparse polynomial with coefficients in +-1..3."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            mono = [0] * ring.nvars
            for _ in range(rng.randint(0, max_degree)):
                mono[rng.randrange(ring.nvars)] += 1
            terms[tuple(mono)] = ring.field.from_int(rng.choice((-3, -2, -1, 1, 2, 3)))
        poly = ring.poly(terms)
        if not poly.is_zero():
            return poly


def gb(rng: random.Random, p: Pass):
    expected = json.loads((EXPECTED / "gb_cyclic5.json").read_text())
    for label, ring in cyclic5_rings().items():

        def check(basis, label=label):
            if basis_digest(basis) != expected[label]:
                return "reduced basis differs from the recorded one"
            return None

        gens = cyclic(ring)
        p.run("cyclic5", f"cyclic-5 over {label}", lambda r=ring, g=gens: rg.buchberger(g, order=rg.GREVLEX, ring=r), check)

    for i in range(GB_SMALL_IDEALS):
        ring = rg.PolyRing(rg.QQ, tuple("xyzw"[: 2 + i % 3]))
        gens = [random_polynomial(rng, ring) for _ in range(rng.randint(2, 4))]
        member = ring.zero()
        for g in gens:
            member = member + random_polynomial(rng, ring, max_degree=2) * g

        def op(ring=ring, gens=gens, member=member):
            basis = rg.buchberger(gens, order=rg.GREVLEX, ring=ring)
            return rg.normal_form(member, basis)

        p.run("ideal", f"small ideal {i}", op, lambda r: None if r.is_zero() else "combination not recognized")


WORKLOADS = {"sr-small": sr_small, "sr-wide": sr_wide, "gb": gb}


# ---------------------------------------------------------------------------


def _check_import():
    src = Path.cwd().resolve() / "src"
    if Path(rg.__file__).resolve().parent.parent != src:
        sys.exit(f"ringgraph was imported from {rg.__file__}, not from {src}")


def run_workload(name: str, seed: int, trace: bool) -> dict:
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    p = Pass(tracer)
    WORKLOADS[name](random.Random(seed), p)
    return {
        "ops": p.ops,
        "failures": p.failures,
        "ring_pairs": p.ring_pairs,
        "trace": tracer.summary() if tracer is not None else None,
    }


def run_cli_traced(argv: list) -> dict:
    tracer = Tracer()
    tracer.install()
    import ringgraph.cli

    out = io.StringIO()
    tracer.op_kind = "cli"
    with contextlib.redirect_stdout(out):
        code = ringgraph.cli.main(argv)
    tracer.op_kind = None
    return {"code": code, "stdout": out.getvalue(), "trace": tracer.summary()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cli-argv", help="JSON list: one traced in-process CLI call")
    args = parser.parse_args()
    _check_import()
    if args.cli_argv is not None:
        doc = run_cli_traced(json.loads(args.cli_argv))
    elif args.workload is not None:
        doc = run_workload(args.workload, args.seed, args.trace)
    else:
        parser.error("give --workload or --cli-argv")
    sys.stdout.write(json.dumps(doc) + "\n")


if __name__ == "__main__":
    main()
