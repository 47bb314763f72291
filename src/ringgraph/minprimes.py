"""Minimal primes with certificates, equidimensionality, and the
largest small-dimensional ideal of a reduced presentation.

Two computing strategies are provided.  A monomial ideal's minimal
primes are the variable sets of the minimal transversals of its
generator supports, enumerated on bitmasks by
:func:`minimal_transversals` (face rings read their minimal non-faces
from it too).  The split strategy factors generators within the
certified reach of :mod:`ringgraph.factor` and branches: for g1*g2
the components split as V(I + g1) together with V((I + g2) : g1^inf);
the one-sided saturation keeps the second branch away from components
already inside V(g1) while never losing a prime (a two-sided saturation
would).  Every leaf must be certified prime or the computation refuses
with the leaf attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import PreconditionError, StructuralError, UndecidedComponentError
from .factor import certify_irreducible, factor_once
from .groebner import normal_form
from .ideals import (
    Flag,
    Ideal,
    PresentedRing,
    RingMap,
    dimension,
    ideal_intersection,
    ideal_sum,
    radical_membership,
    ring_map_kernel,
    saturation,
)
from .polynomials import mask_bits, mono_mask

CERTIFICATE_KINDS = (
    "monomial-variable-prime",
    "linear-prime",
    "principal-irreducible",
    "kernel-of-map-into-domain",
    "asserted",
)


@dataclass(frozen=True)
class PrimeCertificate:
    """Why an ideal is prime; ``asserted`` carries no proof obligation."""

    kind: str
    witness: object = None

    def __post_init__(self):
        if self.kind not in CERTIFICATE_KINDS:
            raise StructuralError(f"unknown certificate kind {self.kind!r}")

    def check(self, prime: Ideal) -> bool:
        """Discharge the proof obligation against the claimed prime."""
        gens = prime.groebner().generators
        if self.kind == "monomial-variable-prime":  # a reduced basis repeats no variable
            return all(g.is_monomial() and sum(next(iter(g.terms))) == 1 for g in gens)
        if self.kind == "linear-prime":
            if prime.is_unit():
                return False
            return all(g.total_degree() <= 1 for g in gens)
        if self.kind == "principal-irreducible":
            return len(gens) == 1 and certify_irreducible(gens[0])
        if self.kind == "kernel-of-map-into-domain":
            phi = self.witness
            if not isinstance(phi, RingMap) or isinstance(phi.target, PresentedRing):
                return False
            return ring_map_kernel(phi).equals(prime)
        return True  # asserted


@dataclass
class MinimalPrimeSet:
    """The minimal primes over an ideal, each with a certificate.

    ``provenance`` is one of ``computed-monomial``, ``computed-split``,
    ``computed-kernel`` or ``asserted``; asserted sets taint everything
    downstream.
    """

    for_ideal: Ideal
    primes: tuple  # of (Ideal, PrimeCertificate)
    provenance: str
    _verified: bool = dc_field(default=False, repr=False, compare=False)

    def ideals(self) -> tuple:
        return tuple(p for p, _ in self.primes)

    def is_asserted(self) -> bool:
        return self.provenance == "asserted" or any(
            c.kind == "asserted" for _, c in self.primes
        )

    def verify(self):
        """Check the full decomposition contract; raise on any failure.

        (i) every prime is proper, certified, and contains the ideal;
        (ii) the intersection of the primes and the ideal have equal
        radicals; (iii) the primes are pairwise incomparable.
        Verification is cached; a set that passed once is not rechecked.
        """
        if self._verified:
            return
        report = verify_decomposition(self.for_ideal, self.ideals())
        if not report.ok:
            raise PreconditionError(
                "minimal prime verification failed: " + "; ".join(report.failures)
            )
        for p, cert in self.primes:
            if not cert.check(p):
                raise PreconditionError(
                    f"certificate {cert.kind!r} failed for {p!r}"
                )
        self._verified = True


@dataclass
class DecompositionReport:
    ok: bool
    failures: list = dc_field(default_factory=list)


def verify_decomposition(a: Ideal, primes) -> DecompositionReport:
    """Structured containment/radical/incomparability check: on support
    masks (:func:`_verify_on_masks`) for a monomial ideal and primes
    generated by variables, through Groebner bases otherwise."""
    primes = list(primes)
    failures = []
    if not primes:
        if not a.is_unit():
            failures.append("no primes supplied for a proper ideal")
        return DecompositionReport(not failures, failures)
    if any(p.ring != a.ring for p in primes):
        raise StructuralError("primes and ideal live in different rings")
    monos = [[m for g in p.gens for m in g.terms] for p in primes]
    # one term per generator: (x + y) has terms of degree one but is not (x, y)
    one_term = all(len(g.terms) <= 1 for f in (a, *primes) for g in f.gens)
    if one_term and all(sum(m) == 1 for ms in monos for m in ms):
        # a variable has a one-bit mask, so the sum of the distinct ones is their union
        return _verify_on_masks(a, [sum(set(map(mono_mask, ms))) for ms in monos])
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


def _verify_on_masks(a: Ideal, prime_masks: list) -> DecompositionReport:
    """:func:`verify_decomposition` for a monomial ideal and the variable
    sets of its primes.  A monomial lies in a variable prime when its
    support meets it, and in Rad(a) when its support contains a
    generator's; the primes' intersection is the lcm fold of
    :func:`ringgraph.ideals.ideal_intersection`, on masks."""
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


# ---------------------------------------------------------------------------
# monomial strategy


def minimal_transversals(masks) -> list:
    """The inclusion-minimal masks meeting every mask of the family,
    sorted by (popcount, set bits).

    MMCS (Murakami & Uno, 2014): branch on the candidates of an
    uncovered member with fewest of them, and keep a branch only while
    every chosen vertex is still the sole cover of some member, so each
    minimal transversal is reached exactly once.  The empty family has
    the single transversal 0; a family holding 0 has none.
    """

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


def monomial_minimal_primes(a: Ideal) -> MinimalPrimeSet:
    """Minimal primes of a monomial ideal: one variable prime per
    minimal transversal of the generator supports."""
    gens = [g for g in a.gens if not g.is_zero()]
    if not all(g.is_monomial() for g in gens):
        raise StructuralError("monomial strategy requires monomial generators")
    covers = minimal_transversals(mono_mask(next(iter(g.terms))) for g in gens)
    cert = PrimeCertificate("monomial-variable-prime")
    primes = tuple((Ideal.of_variables(a.ring, c), cert) for c in covers)
    return MinimalPrimeSet(a, primes, "computed-monomial")


# ---------------------------------------------------------------------------
# split strategy


_SPLIT_BUDGET = 400


def _certify_leaf(leaf: Ideal):
    """Certificates for a leaf with no factorable generator, or None."""
    gens = leaf.groebner().generators
    if all(g.is_monomial() for g in gens):
        return list(monomial_minimal_primes(Ideal(leaf.ring, gens)).primes)
    for kind in ("linear-prime", "principal-irreducible"):
        cert = PrimeCertificate(kind)
        if cert.check(leaf):
            return [(leaf, cert)]
    return None


def split_minimal_primes(a: Ideal) -> MinimalPrimeSet:
    """Minimal primes by certified generator splitting; refuses on any
    leaf outside the certification reach."""
    ring = a.ring
    found = []
    seen = set()
    stack = [a]
    steps = 0
    while stack:
        steps += 1
        if steps > _SPLIT_BUDGET:
            raise UndecidedComponentError(
                "splitting budget exhausted; supply an asserted decomposition",
                leaf=stack[-1],
            )
        current = stack.pop()
        gb = current.groebner()
        key = gb.key()
        if key in seen:
            continue
        seen.add(key)
        if gb.is_unit():
            continue
        work = Ideal(ring, gb.generators)
        split = None
        for g in gb.generators:
            verdict, payload = factor_once(g)
            if verdict == "factored":
                split = payload
                break
        if split is not None:
            g1, g2 = split
            stack.append(ideal_sum(work, Ideal(ring, (g1,))))
            stack.append(saturation(ideal_sum(work, Ideal(ring, (g2,))), Ideal(ring, (g1,))))
            continue
        certified = _certify_leaf(work)
        if certified is None:
            raise UndecidedComponentError(
                "leaf ideal could not be certified prime; "
                "supply an asserted decomposition",
                leaf=work,
            )
        found.extend(certified)

    minimal = _prune_to_minimal(found)
    result = MinimalPrimeSet(a, tuple(minimal), "computed-split")
    result.verify()
    return result


def _prune_to_minimal(pairs) -> list:
    by_key = {}
    for p, cert in pairs:
        by_key.setdefault(p.canonical_key(), (p, cert))
    items = list(by_key.values())
    # One ideal per reduced basis, so no two items are equal.
    keep = [
        (p, cert)
        for i, (p, cert) in enumerate(items)
        if not any(i != j and p.contains_ideal(q) for j, (q, _) in enumerate(items))
    ]
    keep.sort(key=lambda pc: pc[0].canonical_key())
    return keep


def minimal_primes(a: Ideal, strategy: str = "auto", asserted=None) -> MinimalPrimeSet:
    """Minimal primes of a by the requested strategy.

    ``asserted`` takes a list of (Ideal, PrimeCertificate) pairs or bare
    Ideals; the set is verified before being accepted.
    """
    if strategy == "asserted" or asserted is not None:
        if asserted is None:
            raise PreconditionError("asserted strategy needs the claimed primes")
        pairs = []
        for entry in asserted:
            if isinstance(entry, tuple):
                pairs.append(entry)
            else:
                pairs.append((entry, PrimeCertificate("asserted")))
        mps = MinimalPrimeSet(a, tuple(pairs), "asserted")
        mps.verify()
        return mps
    if strategy == "monomial":
        return monomial_minimal_primes(a)
    if strategy == "split":
        return split_minimal_primes(a)
    if strategy != "auto":
        raise StructuralError(f"unknown strategy {strategy!r}")
    if all(g.is_monomial() for g in a.groebner().generators):
        return monomial_minimal_primes(Ideal(a.ring, a.groebner().generators))
    return split_minimal_primes(a)


def ensure_min_primes(ring: PresentedRing) -> MinimalPrimeSet:
    """Attach (or reuse) minimal primes on a presented ring."""
    if ring.min_primes is not None:
        return ring.min_primes
    try:
        mps = minimal_primes(ring.defining)
    except UndecidedComponentError as e:
        raise PreconditionError(
            "minimal primes unavailable: " + str(e)
            + "; attach an asserted decomposition to proceed"
        ) from e
    ring.attach_min_primes(mps)
    return mps


# ---------------------------------------------------------------------------
# equidimensionality and the small-dimension ideal


def is_equidimensional(ring: PresentedRing) -> bool:
    """All minimal primes cut out components of the full dimension.

    A certified flag is returned as it stands; otherwise the verdict is
    computed and certified, which refuses if it contradicts an
    asserted flag."""
    flag = ring.equidimensional
    if flag is not None and not flag.is_asserted():
        return flag.value
    value = len(top_dimensional_primes(ring)) == len(ensure_min_primes(ring).primes)
    ring.certify_equidimensional(value)
    return value


def require_equidimensional(ring: PresentedRing, needed_by: str) -> Flag:
    """The equidimensionality flag a verdict rests on, computed when
    unset; refuses when the presentation is not equidimensional."""
    if ring.equidimensional is None:
        is_equidimensional(ring)
    flag = ring.equidimensional
    if not flag.value:
        raise PreconditionError(
            f"{needed_by} needs an equidimensional presentation; "
            "kill the small-dimension ideal first"
        )
    return flag


def certify_reduced_from_decomposition(ring: PresentedRing) -> bool:
    """Decide reducedness by computation: the defining ideal is radical
    exactly when it equals the intersection of its minimal primes.
    Certifies the flag either way and returns the verdict."""
    flag = ring.reduced
    if flag is not None and not flag.is_asserted():
        return flag.value
    value = ideal_intersection(*ensure_min_primes(ring).ideals()).equals(ring.defining)
    ring.certify_reduced(value)
    return value


def top_dimensional_primes(ring: PresentedRing) -> tuple:
    mps = ensure_min_primes(ring)
    d = ring.dim()
    return tuple((p, c) for p, c in mps.primes if dimension(p) == d)


def j_ideal(ring: PresentedRing) -> Ideal:
    """The largest ideal of the quotient of dimension below the ring's,
    for reduced presentations: the intersection of the top-dimensional
    minimal primes, returned as its lift to the ambient ring.

    Its image is zero exactly when the presentation is equidimensional.
    Non-reduced presentations are refused.
    """
    flag = ring.reduced
    if flag is None:
        raise PreconditionError(
            "reducedness unknown: certify or assert it before the small-dimension ideal"
        )
    if not flag.value:
        raise PreconditionError(
            "the small-dimension ideal is only supported for reduced presentations"
        )
    tops = top_dimensional_primes(ring)
    if not tops:
        raise StructuralError("no top-dimensional primes; broken decomposition")
    inter = ideal_intersection(*(p for p, _ in tops))
    return Ideal(ring.ambient, inter.canonical_gens())


def j_ideal_is_zero(ring: PresentedRing, j: Ideal) -> bool:
    """Whether the lifted small-dimension ideal has zero image."""
    gb = ring.defining.groebner()
    return all(normal_form(g, gb).is_zero() for g in j.gens)


def image_domain_presentation(phi: RingMap) -> PresentedRing:
    """The image of a map into a polynomial ring, presented as the
    quotient of the source by the map's kernel.

    Refuses quotient targets, which are not certified domains.
    """
    if isinstance(phi.target, PresentedRing):
        raise PreconditionError(
            "the domain presentation needs a polynomial-ring target;"
            " quotient targets are not certified domains"
        )
    return kernel_domain_presentation(phi, ring_map_kernel(phi))


def kernel_domain_presentation(phi: RingMap, kernel: Ideal) -> PresentedRing:
    """The quotient of the source of phi, a map into a polynomial ring,
    by its already computed ``kernel``.

    The kernel of a map into a domain is prime, so the quotient is a
    domain: its one minimal prime is the defining ideal itself, carried
    by a kernel certificate that recomputes the elimination, and the
    reduced and equidimensional flags are certified.
    """
    pres = PresentedRing(phi.source, kernel)
    cert = PrimeCertificate("kernel-of-map-into-domain", witness=phi)
    pres.attach_min_primes(MinimalPrimeSet(kernel, ((kernel, cert),), "computed-kernel"))
    pres.certify_reduced(True)
    is_equidimensional(pres)
    return pres
