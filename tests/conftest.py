"""Shared fixtures and strategy builders for the test suite."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from ringgraph import (
    QQ,
    Ideal,
    MinimalPrimeSet,
    PolyRing,
    PresentedRing,
    PrimeCertificate,
    ensure_min_primes,
    ideal_intersection,
)

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

SESSIONS = Path(__file__).parent.parent / "sessions"

ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return random.Random(20260819)


@pytest.fixture
def surface_session_text():
    return (SESSIONS / "surface_with_two_planes_over_a_line.rg").read_text()


@pytest.fixture
def four_cycle_session_text():
    return (SESSIONS / "four_cycle_of_planes.rg").read_text()


@pytest.fixture
def planes_session_text():
    return (SESSIONS / "two_disjoint_planes.rg").read_text()


@pytest.fixture
def nodal_session_text():
    return (SESSIONS / "nodal_curve.rg").read_text()


def random_polynomial(rng, ring, max_terms=3, max_degree=3, zero_constant=False):
    """A random sparse polynomial with small integer coefficients."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        while True:
            mono = [0] * ring.nvars
            budget = rng.randint(0 if not zero_constant else 1, max_degree)
            for _ in range(budget):
                mono[rng.randrange(ring.nvars)] += 1
            mono = tuple(mono)
            if zero_constant and sum(mono) == 0:
                continue
            break
        coeff = rng.choice([-3, -2, -1, 1, 2, 3])
        terms[mono] = ring.field.from_int(coeff)
    return ring.poly(terms)


def random_nonzero_polynomial(rng, ring, **kw):
    while True:
        p = random_polynomial(rng, ring, **kw)
        if not p.is_zero():
            return p


def planes_and_line_ring():
    """Q[x,y,z,w] modulo the intersection of the planes (x, y) and
    (x - z, y - w), which meet at the origin, and the line (x - y, z, w),
    with its minimal primes attached: reduced, not equidimensional, and
    one of its top primes has no variable mask."""
    ring = PolyRing(QQ, ("x", "y", "z", "w"))
    x, y, z, w = ring.gens()
    planes_and_line = (Ideal(ring, (x, y)), Ideal(ring, (z - x, w - y)), Ideal(ring, (x - y, z, w)))
    pres = PresentedRing(ring, ideal_intersection(*planes_and_line))
    ensure_min_primes(pres)
    return pres


def random_monomial_ideal(rng, ring, max_gens=3, max_exp=2):
    """An ideal of 1 to ``max_gens`` random monomials, none of them 1."""
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        mono = tuple(rng.randint(0, max_exp) for _ in range(ring.nvars))
        if sum(mono) == 0:
            mono = (1,) + (0,) * (ring.nvars - 1)
        gens.append(ring.monomial(mono))
    return Ideal(ring, tuple(gens))


def asserted_primes(a, primes):
    """The asserted minimal-prime set of a, verified as a session's
    ``assert minprimes`` builds it."""
    mps = MinimalPrimeSet(a, tuple((p, PrimeCertificate("asserted")) for p in primes), "asserted")
    mps.verify()
    return mps
