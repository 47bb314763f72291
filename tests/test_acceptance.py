"""Acceptance gate: seven end-to-end criteria, each with a hard wall-clock
budget and an exact (tolerance-free) verdict.  One summary line per
criterion is recorded and echoed after the run."""

import random
import time
from itertools import combinations
from pathlib import Path

from conftest import ACCEPTANCE_LINES, SESSIONS, random_nonzero_polynomial
from oracles import brute_minimal_covers

from ringgraph import (
    GREVLEX,
    QQ,
    Ideal,
    PolyRing,
    buchberger,
    build_gamma,
    complex_from_lists,
    conductor,
    dimension,
    face_ring,
    faltings_harness,
    gamma_product,
    height_in_quotient,
    hl_nonvanishing,
    is_connected,
    join,
    m_primary_status,
    monomial_minimal_primes,
    normal_form,
    parse_fraction,
    parse_session,
    polynomial_quotient,
    s2_local_decision,
)
from ringgraph.complexes import random_pure_complex
from ringgraph.gamma import routes_agree

SEED = 20260819


def record(name: str, failures: list, elapsed: float, budget: float, detail: str):
    ok = not failures and elapsed < budget
    status = "PASS" if ok else "FAIL"
    line = f"criterion {name}: {status} ({elapsed:.1f}s of {budget:.0f}s budget) {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line, flush=True)
    assert not failures, failures[:5]
    assert elapsed < budget, f"{elapsed:.1f}s exceeded the {budget:.0f}s budget"


def test_criterion_1_worked_example_end_to_end():
    budget, started, failures = 60.0, time.perf_counter(), []
    session = parse_session(
        (SESSIONS / "surface_with_two_planes_over_a_line.rg").read_text()
    )
    phi = session.ring_map("phi")
    j = session.ideal("J")
    if not j.canonical_gens():
        failures.append("kernel came back zero")
    for g in j.gens:
        if not phi.apply(g).is_zero():
            failures.append(f"kernel generator {g} does not map to zero")
    if dimension(j) != 3:
        failures.append(f"dimension of the presented ring is {dimension(j)} not 3")

    pres = session.presented("R")
    p = session.ideal("P")
    ht = height_in_quotient(pres, p)
    if ht != 2:
        failures.append(f"height of the distinguished prime is {ht} not 2")

    q1, q2 = session.ideal("Q1"), session.ideal("Q2")
    c1, c2 = session.ideal("C1"), session.ideal("C2")
    if q1.equals(q2):
        failures.append("the two target primes coincide")
    if not c1.equals(p) or not c2.equals(p):
        failures.append("contractions disagree with the distinguished prime")
    if not c1.equals(c2):
        failures.append("the two contractions disagree with each other")

    frac = parse_fraction(session, "R", "e / d")
    res = conductor(frac)
    if not res.member:
        failures.append("e/d was rejected from the S2-ification")
    if not res.ideal.equals(p):
        failures.append("conductor of e/d is not the distinguished prime")
    if res.height != 2:
        failures.append(f"conductor height is {res.height_text()} not 2")

    local = s2_local_decision(pres)
    if not local.connected:
        failures.append("the domain's locality decision came back disconnected")

    record(
        "1 (worked example)",
        failures,
        time.perf_counter() - started,
        budget,
        "kernel presentation, dim 3, height-2 prime, double contraction, e/d member",
    )


def test_criterion_2_disconnection_matches_graph_connectivity():
    budget, started, failures = 300.0, time.perf_counter(), []
    checked = 0

    def sweep(n: int, facet_lists):
        nonlocal checked
        pres = face_ring(complex_from_lists(n, facet_lists))
        if not routes_agree(pres):
            failures.append(f"route disagreement on n={n} facets={facet_lists}")
        checked += 1

    # Exhaustive over every pure complex on up to 5 vertices with facet
    # sizes 2..4: every nonempty set of equal-size facets.
    for n in range(2, 6):
        for size in range(2, min(4, n) + 1):
            pool = list(combinations(range(1, n + 1), size))
            for count in range(1, len(pool) + 1):
                for facets in combinations(pool, count):
                    sweep(n, [list(f) for f in facets])

    # Exhaustive on 6 vertices for up to 3 facets of each size.
    for size in range(2, 5):
        pool = list(combinations(range(1, 7), size))
        for count in range(1, 4):
            for facets in combinations(pool, count):
                sweep(6, [list(f) for f in facets])

    # Seeded random tier on 6 vertices with unbounded facet counts.
    rng = random.Random(SEED)
    for _ in range(300):
        size = rng.randint(2, 4)
        pool = list(combinations(range(1, 7), size))
        count = rng.randint(1, len(pool))
        facets = rng.sample(pool, count)
        sweep(6, [list(f) for f in facets])

    record(
        "2 (partition route vs graph route)",
        failures,
        time.perf_counter() - started,
        budget,
        f"{checked} pure complexes, zero disagreements",
    )


def test_criterion_3_faltings_harness_all_trials_connected():
    budget, started, failures = 600.0, time.perf_counter(), []
    report = faltings_harness(
        trials=200, seed=SEED, max_vertices=8, max_facet_size=5
    )
    if not report.ok:
        failures.append(f"harness not ok: {report.failures}")
    if report.passed != 200 or report.failed != 0:
        failures.append(f"passed={report.passed} failed={report.failed}")
    if len(report.records) != 200:
        failures.append(f"expected 200 records, saw {len(report.records)}")
    for rec in report.records:
        if not rec.connected:
            failures.append(f"trial {rec.index} reported disconnected")
    record(
        "3 (randomized punctured-spectrum harness)",
        failures,
        time.perf_counter() - started,
        budget,
        f"{report.passed}/200 trials connected",
    )


def _label_parts(label) -> tuple:
    return () if label == ("0",) else tuple(label)


def _shift_var(name: str, offset: int) -> str:
    return f"x{int(name[1:]) + offset}"


def test_criterion_4_products_match_joins():
    budget, started, failures = 120.0, time.perf_counter(), []
    rng = random.Random(SEED)

    for trial in range(100):
        sides = []
        for _ in range(2):
            n = rng.randint(2, 5)
            size = rng.randint(2, min(4, n))
            pool_size = len(list(combinations(range(n), size)))
            cplx = random_pure_complex(rng, n, size, rng.randint(1, pool_size))
            sides.append((n, cplx))
        (n1, cx1), (_n2, cx2) = sides

        g1 = build_gamma(face_ring(cx1))
        g2 = build_gamma(face_ring(cx2))
        product = gamma_product(g1, g2)
        joined = build_gamma(face_ring(join(cx1, cx2)))

        if product.n != joined.n:
            failures.append(f"trial {trial}: vertex counts {product.n} != {joined.n}")
            continue

        # A product vertex labeled (u, v) must be the join prime whose
        # generators are u's variables followed by v's shifted by n1.
        where = {label: i for i, label in enumerate(joined.labels)}
        bridge = {}
        for i, (u, v) in enumerate(product.labels):
            expected = _label_parts(u) + tuple(
                _shift_var(s, n1) for s in _label_parts(v)
            )
            target = where.get(expected or ("0",))
            if target is None:
                failures.append(f"trial {trial}: no join prime labeled {expected}")
                break
            bridge[i] = target
        else:
            mapped = frozenset(
                (min(bridge[a], bridge[b]), max(bridge[a], bridge[b]))
                for a, b in product.edges
            )
            if mapped != joined.edges:
                failures.append(f"trial {trial}: edge sets differ under the bridge")

        both = is_connected(g1).connected and is_connected(g2).connected
        if is_connected(product).connected != both:
            failures.append(
                f"trial {trial}: product connectivity disagrees with the factors"
            )

    record(
        "4 (graph products vs complex joins)",
        failures,
        time.perf_counter() - started,
        budget,
        "100 random pairs matched edge-for-edge, connectivity multiplicative",
    )


def test_criterion_5_specialization_matches_support_check():
    budget, started, failures = 120.0, time.perf_counter(), []
    ring = PolyRing(QQ, ("x", "y", "z"))
    pres = polynomial_quotient(ring)
    rng = random.Random(SEED)
    seen = set()

    for trial in range(50):
        gens = [
            random_nonzero_polynomial(rng, ring, zero_constant=True)
            for _ in range(rng.randint(1, 3))
        ]
        if rng.random() < 0.4:
            gens += [ring.var(i) ** rng.randint(1, 3) for i in range(3)]
        a = Ideal(ring, tuple(gens))
        via_cohomology = hl_nonvanishing(pres, a)
        via_primary = m_primary_status(a, pres) == "m-primary"
        if via_cohomology != via_primary:
            failures.append(
                f"trial {trial}: cohomology route {via_cohomology}, "
                f"primary route {via_primary}"
            )
        seen.add(via_primary)

    if seen != {True, False}:
        failures.append(f"sample only produced verdicts {seen}")

    record(
        "5 (specialization criterion on polynomial rings)",
        failures,
        time.perf_counter() - started,
        budget,
        "50 random ideals, both verdicts realized, exact agreement",
    )


def test_criterion_6_reduced_basis_determinism_and_membership():
    budget, started, failures = 120.0, time.perf_counter(), []
    rng = random.Random(SEED)

    for trial in range(100):
        nvars = rng.randint(2, 4)
        ring = PolyRing(QQ, tuple("xyzw"[:nvars]))
        gens = [
            random_nonzero_polynomial(rng, ring, max_terms=3, max_degree=3)
            for _ in range(rng.randint(2, 4))
        ]
        basis = buchberger(gens, order=GREVLEX, ring=ring)

        for _ in range(2):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            again = buchberger(shuffled, order=GREVLEX, ring=ring)
            if again.key() != basis.key():
                failures.append(f"trial {trial}: shuffled basis differs")

        probe = random_nonzero_polynomial(rng, ring)
        reduced = normal_form(probe, basis)
        if normal_form(reduced, basis) != reduced:
            failures.append(f"trial {trial}: normal form not idempotent")

        member = ring.zero()
        for g in gens:
            member = member + random_nonzero_polynomial(rng, ring, max_degree=2) * g
        if not normal_form(member, basis).is_zero():
            failures.append(f"trial {trial}: explicit combination not recognized")

    record(
        "6 (reduced bases: determinism, idempotence, membership)",
        failures,
        time.perf_counter() - started,
        budget,
        "100 random ideals over up to 4 variables",
    )


def test_criterion_7_monomial_primes_match_cover_enumeration():
    budget, started, failures = 120.0, time.perf_counter(), []
    checked = 0

    for n in range(1, 6):
        ring = PolyRing(QQ, tuple(f"x{i + 1}" for i in range(n)))
        monomials = []
        for mask in range(1, 1 << n):
            support = frozenset(i for i in range(n) if mask >> i & 1)
            exps = tuple(1 if i in support else 0 for i in range(n))
            monomials.append((ring.poly({exps: QQ.one}), support))

        for size in range(1, 5):
            for chosen in combinations(monomials, size):
                gens = tuple(m for m, _ in chosen)
                supports = [s for _, s in chosen]
                mps = monomial_minimal_primes(Ideal(ring, gens))
                produced = {
                    frozenset(p.min_gen_strings()) for p in mps.ideals()
                }
                expected = {
                    frozenset(f"x{i + 1}" for i in cover)
                    for cover in brute_minimal_covers(n, supports)
                }
                if produced != expected:
                    failures.append(
                        f"n={n} gens={[str(g) for g in gens]}: "
                        f"{produced} != {expected}"
                    )
                checked += 1

    record(
        "7 (monomial minimal primes vs cover enumeration)",
        failures,
        time.perf_counter() - started,
        budget,
        f"{checked} squarefree monomial ideals, exact agreement",
    )
