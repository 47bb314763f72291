"""Minimal primes with certificates, equidimensionality, and the
largest small-dimensional ideal of a reduced presentation.

Two computing strategies are provided.  A monomial ideal's minimal
primes are the variable sets of the minimal transversals of its
generator supports, enumerated by MMCS on vertex and member bitmasks
in :func:`ringgraph.polynomials.minimal_transversals` (face rings read
their minimal non-faces, and :func:`ringgraph.ideals.dimension` every
dimension, from it too).  The split strategy factors generators within
the certified reach of :mod:`ringgraph.factor` and branches: for g1*g2
the components split as V(I + g1) together with V((I + g2) : g1^inf);
the one-sided saturation keeps the second branch away from components
already inside V(g1) while never losing a prime (a two-sided saturation
would).  Every leaf must be certified prime or the computation refuses
with the leaf attached.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field

from .errors import PreconditionError, StructuralError, UndecidedComponentError
from .factor import certify_irreducible, factor_once
from .ideals import (
    DIMENSION_VARIABLE_CAP,
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
from .polynomials import minimal_transversals, mono_mask

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
    """Structured containment/radical/incomparability check: on the
    lattice of variable sets (:func:`_verify_on_masks`) when ``a`` has
    one-term generators and every prime a ``var_mask``, the one mark of
    a variable prime, in at most ``DIMENSION_VARIABLE_CAP`` variables;
    through Groebner bases otherwise, as for an asserted (x, y)."""
    primes = list(primes)
    failures = []
    if not primes:
        if not a.is_unit():
            failures.append("no primes supplied for a proper ideal")
        return DecompositionReport(not failures, failures)
    if any(p.ring != a.ring for p in primes):
        raise StructuralError("primes and ideal live in different rings")
    masks = [p.var_mask for p in primes]
    if None not in masks and a.ring.nvars <= DIMENSION_VARIABLE_CAP and all(len(g.terms) <= 1 for g in a.gens):
        return _verify_on_masks(a, masks)
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


@functools.lru_cache(maxsize=17)  # n runs over 0..DIMENSION_VARIABLE_CAP
def _lows(n: int) -> tuple:
    """lows[v]: the sets of n variables without variable v, by doubling."""
    lows = ()
    for v in range(n):
        lows = tuple(low | low << (1 << v) for low in lows) + ((1 << (1 << v)) - 1,)
    return lows


def _verify_on_masks(a: Ideal, prime_masks: list) -> DecompositionReport:
    """:func:`verify_decomposition` for a monomial ideal and the variable
    sets of its primes, on the lattice of the 2^n variable sets: a family
    of sets is one int with bit S for each set S in it, closed upwards or
    downwards by one shift-and-or step per variable (the subset zeta
    transform).  A monomial lies in a variable prime when its support
    meets it, and in Rad(a) when it holds a generator's; the primes'
    intersection is generated by the minimal sets meeting every prime."""
    n = a.ring.nvars
    full, lows = (1 << n) - 1, _lows(n)  # full: every variable
    up = sum(1 << s for s in {mono_mask(m) for g in a.gens for m in g.terms})
    tops = sum(1 << (full ^ p) for p in set(prime_masks))  # the primes' complements
    below = 0
    for v, low in enumerate(lows):
        up |= (up & low) << (1 << v)  # the sets holding a generator's support
        below |= ((tops | below) & ~low) >> (1 << v)  # the sets strictly inside a complement
    failures = [f"prime #{i} does not contain the ideal" for i, p in enumerate(prime_masks) if up >> (full ^ p) & 1]
    meets_all = ~(tops | below) & (1 << (1 << n)) - 1
    escaping = meets_all & ~up
    if escaping:
        for v, low in enumerate(lows):  # keep the minimal ones
            escaping &= ~((meets_all & low) << (1 << v))
        sets = (s for s, bit in enumerate(bin(escaping)[:1:-1]) if bit == "1")
        s = min(sets, key=lambda t: (-t.bit_count(), t))  # grevlex-greatest, as the Groebner route names it
        mono = a.ring.monomial(tuple(s >> i & 1 for i in range(n)))
        failures.append(f"intersection generator {mono} escapes the radical")
    if tops & below or tops.bit_count() < len(prime_masks):  # some prime holds another
        failures += [
            f"prime #{i} contains prime #{j}; not minimal"
            for i, p in enumerate(prime_masks)
            for j, q in enumerate(prime_masks)
            if i != j and not q & ~p
        ]
    return DecompositionReport(not failures, failures)


# ---------------------------------------------------------------------------
# monomial strategy


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


def minimal_primes(a: Ideal, strategy: str = "auto") -> MinimalPrimeSet:
    """Minimal primes of a by the ``monomial`` or ``split`` strategy, or
    ``auto``: monomial when a's reduced basis is.  An asserted set is a
    :class:`MinimalPrimeSet` with provenance ``asserted`` that verifies."""
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
    return tuple(p for p in mps.ideals() if dimension(p) == d)


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
    return Ideal(ring.ambient, ideal_intersection(*tops).canonical_gens())


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
