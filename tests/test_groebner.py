"""Reduced bases, normal forms, and the membership contract."""

import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringgraph import (
    GREVLEX,
    LEX,
    QQ,
    PolyRing,
    PrimeField,
    RingGraphError,
    buchberger,
    normal_form,
    s_polynomial,
)
from ringgraph.groebner import _integral, _minimal_monomial_set, normal_form_with_quotients
from ringgraph.polynomials import elimination_order, mono_mul

from conftest import random_nonzero_polynomial
from oracles import field_normal_form_with_quotients

R2 = PolyRing(QQ, ("x", "y"))
R3 = PolyRing(QQ, ("x", "y", "z"))
X2, Y2 = R2.gens()
X, Y, Z = R3.gens()


def random_ideal_gens(rng, ring, count=None):
    count = count or rng.randint(1, 3)
    return [
        random_nonzero_polynomial(rng, ring, max_terms=3, max_degree=3)
        for _ in range(count)
    ]


class TestKnownBases:
    def test_linear_triangularization(self):
        gb = buchberger([X2 + Y2, Y2], GREVLEX)
        assert [str(g) for g in gb.generators] == ["x", "y"]

    def test_unit_ideal_detected(self):
        gb = buchberger([X2, X2 + R2.one()], GREVLEX)
        assert gb.is_unit()
        assert [str(g) for g in gb.generators] == ["1"]

    def test_zero_generators_dropped(self):
        gb = buchberger([R2.zero(), X2], GREVLEX)
        assert [str(g) for g in gb.generators] == ["x"]

    def test_twisted_cubic_lex(self):
        # Kernel-style relations of (t^2, t^3) presented directly.
        gb = buchberger([X2 ** 3 - Y2 ** 2], LEX)
        assert [str(g) for g in gb.generators] == ["x^3 - y^2"]

    def test_basis_is_monic_and_interreduced(self):
        gb = buchberger([2 * X + 2 * Y, 3 * Y + 3 * Z], GREVLEX)
        for g in gb.generators:
            assert g.leading_term(GREVLEX)[1] == QQ.one
        # x + y reduced against y + z leaves leading monomials distinct
        assert [str(g) for g in gb.generators] == ["x - z", "y + z"]


def cyclic(ring):
    """The cyclic-n system in all n variables of ``ring``."""
    xs, n = ring.gens(), ring.nvars
    gens = []
    for d in range(1, n):
        total = ring.zero()
        for i in range(n):
            total = total + prod(xs[(i + k) % n] for k in range(d))
        gens.append(total)
    return gens + [prod(xs) - 1]


class TestBuchbergerContract:
    """The defining properties, checked on seeded random ideals."""

    def test_contract_on_random_ideals(self):
        rng = random.Random(411)
        for _ in range(40):
            gens = random_ideal_gens(rng, R3)
            gb = buchberger(gens, GREVLEX)
            # every original generator reduces to zero
            for g in gens:
                assert normal_form(g, gb).is_zero()
            # every S-polynomial of basis pairs reduces to zero
            basis = gb.generators
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    s = s_polynomial(basis[i], basis[j], GREVLEX)
                    assert normal_form(s, gb).is_zero()
            # monic, and no term of one divisible by another's lead
            leads = gb.leading_monomials()
            for k, g in enumerate(basis):
                assert g.leading_term(GREVLEX)[1] == QQ.one
                for m in g.terms:
                    for l, lead in enumerate(leads):
                        if l != k:
                            assert not all(
                                me >= le for me, le in zip(m, lead)
                            ), "basis not inter-reduced"

    def test_shuffle_invariance(self):
        rng = random.Random(412)
        for _ in range(60):
            gens = random_ideal_gens(rng, R3)
            key = buchberger(gens, GREVLEX).key()
            for _ in range(3):
                rng.shuffle(gens)
                assert buchberger(gens, GREVLEX).key() == key

    def test_scaling_invariance(self):
        rng = random.Random(413)
        for _ in range(20):
            gens = random_ideal_gens(rng, R3)
            key = buchberger(gens, GREVLEX).key()
            scaled = [g.scale(QQ.from_int(rng.choice([2, -3, 5]))) for g in gens]
            assert buchberger(scaled, GREVLEX).key() == key


class TestNormalForm:
    def test_idempotence_random(self):
        rng = random.Random(414)
        for _ in range(40):
            gens = random_ideal_gens(rng, R3)
            gb = buchberger(gens, GREVLEX)
            f = random_nonzero_polynomial(rng, R3, max_terms=4, max_degree=4)
            r = normal_form(f, gb)
            assert normal_form(r, gb) == r

    def test_membership_vs_explicit_combination(self):
        rng = random.Random(415)
        for _ in range(40):
            gens = random_ideal_gens(rng, R3)
            gb = buchberger(gens, GREVLEX)
            # a known member: an explicit combination of the generators
            member = R3.zero()
            for g in gens:
                member = member + random_nonzero_polynomial(rng, R3, max_terms=2, max_degree=2) * g
            assert normal_form(member, gb).is_zero()
            # and the division identity reconstructs any input exactly
            f = random_nonzero_polynomial(rng, R3, max_terms=4, max_degree=4)
            r, quots = normal_form_with_quotients(f, gb)
            rebuilt = r
            for q, g in zip(quots, gb.generators):
                rebuilt = rebuilt + q * g
            assert rebuilt == f

    def test_remainder_escapes_leading_terms(self):
        rng = random.Random(416)
        for _ in range(20):
            gens = random_ideal_gens(rng, R3)
            gb = buchberger(gens, GREVLEX)
            f = random_nonzero_polynomial(rng, R3, max_terms=4, max_degree=4)
            r = normal_form(f, gb)
            for m in r.terms:
                for lead in gb.leading_monomials():
                    assert not all(me >= le for me, le in zip(m, lead))

    def test_raw_divisor_list_needs_order(self):
        with pytest.raises(RingGraphError):
            normal_form(X, [X + Y])

    def test_raw_divisor_list_with_order(self):
        assert normal_form(X, [X + Y], GREVLEX) == -Y


class TestIntegerCoefficients:
    def test_denominators_cleared_and_content_removed(self):
        half, third = Fraction(1, 2), Fraction(1, 3)
        cases = [
            (X2 * half + Y2 * third, 3 * X2 + 2 * Y2),
            (X2 * Fraction(2, 3) + Fraction(4, 3), X2 + 2),
            (-X2 * half + third, -3 * X2 + 2),  # the lead's sign is kept
        ]
        for p, expected in cases:
            k, ints = _integral(p.terms)
            assert ints == expected.terms
            assert all(type(c) is int for c in ints.values())
            assert p.scale(k) == expected


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


class TestSympyOracle:
    """Reduced bases equal sympy's, compared as sets of term dicts."""

    @staticmethod
    def ours(gens, ring, order):
        return {frozenset(g.terms.items()) for g in buchberger(gens, order, ring).generators}

    @staticmethod
    def theirs(sympy, gens, ring, order):
        syms = sympy.symbols(ring.names)
        p = getattr(ring.field, "p", 0)
        exprs = []
        for g in gens:
            expr = sympy.Integer(0)
            for m, c in g.terms.items():
                coeff = sympy.Integer(c) if p else sympy.Rational(c.numerator, c.denominator)
                expr += coeff * sympy.Mul(*(s**e for s, e in zip(syms, m)))
            exprs.append(expr)
        options = {"modulus": p} if p else {"domain": sympy.QQ}
        out = set()
        for g in sympy.groebner(exprs, *syms, order=order.kind, **options).polys:
            terms = {m: int(c) % p if p else Fraction(int(c.p), int(c.q)) for m, c in g.terms()}
            out.add(frozenset(terms.items()))
        return out

    @pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
    @pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
    def test_random_ideals(self, sympy, field, order):
        rng = random.Random(418)
        scales = [Fraction(1), Fraction(-1, 2), Fraction(2, 3), Fraction(5)]
        for _ in range(30):
            ring = PolyRing(field, ("x", "y", "z", "w")[: rng.randint(2, 4)])
            gens = [g.scale(rng.choice(scales)) for g in random_ideal_gens(rng, ring)]
            assert self.ours(gens, ring, order) == self.theirs(sympy, gens, ring, order)

    @pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_cyclic(self, sympy, field, n):
        ring = PolyRing(field, tuple(f"x{i}" for i in range(n)))
        gens = cyclic(ring)
        assert self.ours(gens, ring, GREVLEX) == self.theirs(sympy, gens, ring, GREVLEX)


class TestPrimeFieldBases:
    def test_shuffle_invariance_f5(self):
        ring = PolyRing(PrimeField(5), ("x", "y", "z"))
        rng = random.Random(417)
        for _ in range(20):
            gens = random_ideal_gens(rng, ring)
            key = buchberger(gens, GREVLEX).key()
            rng.shuffle(gens)
            assert buchberger(gens, GREVLEX).key() == key


class TestSPolynomial:
    def test_cancels_leading_terms(self):
        f = X ** 2 * Y + X
        g = X * Y ** 2 + Y
        s = s_polynomial(f, g, GREVLEX)
        lcm = (2, 2, 0)
        assert all(m != lcm for m in s.terms)

    @given(st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=10)
    def test_coprime_leads_reduce_to_zero(self, a, b):
        # first Buchberger criterion instance: coprime leading monomials
        f = X ** a + Y
        g = Z ** b + Y
        gb = buchberger([f, g], GREVLEX)
        assert normal_form(s_polynomial(f, g, GREVLEX), gb).is_zero()


EXPONENTS = st.tuples(*[st.integers(0, 2)] * 3)


class TestMonomialFastPaths:
    """The monomial shortcuts agree with the general definitions."""

    @given(
        st.lists(EXPONENTS, max_size=4),
        st.lists(
            st.tuples(EXPONENTS, st.booleans(), st.sampled_from([-2, -1, 1, 3])),
            min_size=1,
            max_size=4,
        ),
    )
    def test_monomial_contains_matches_normal_form(self, gens, terms):
        basis = buchberger([R3.monomial(m) for m in gens], GREVLEX, ring=R3)
        # Terms drawn on a generator are in the ideal; the rest may not be.
        f = R3.zero()
        for i, (m, on_gen, c) in enumerate(terms):
            mono = mono_mul(m, gens[i % len(gens)]) if on_gen and gens else m
            f = f + R3.monomial(mono, c)
        assert basis.contains(f) == normal_form(f, basis).is_zero()

    def test_monomial_contains_known(self):
        basis = buchberger([X ** 2, Y * Z], GREVLEX)
        assert basis.contains(X ** 3 + 2 * X * Y * Z - Y * Z ** 2)
        assert not basis.contains(X ** 3 + Y)
        assert not basis.contains(X * Y)
        assert basis.contains(R3.zero())
        zero = buchberger([], GREVLEX, ring=R3)
        assert zero.contains(R3.zero()) and not zero.contains(X)
        with pytest.raises(RingGraphError):
            basis.contains(X2)

    @given(st.lists(EXPONENTS, max_size=8))
    def test_minimal_monomial_set_matches_definition(self, monos):
        distinct = set(monos)
        expected = sorted(
            (
                m
                for m in distinct
                if not any(k != m and all(a <= b for a, b in zip(k, m)) for k in distinct)
            ),
            key=lambda t: (sum(t), t),
        )
        assert _minimal_monomial_set(monos) == expected


SIGNED_TERMS = st.lists(
    st.tuples(EXPONENTS, st.integers(-3, 3), st.sampled_from([1, 2, 3, 5])), max_size=5
)


def poly_from(ring, terms):
    """Zero numerators drop out, so empty and zero divisors both occur."""
    return ring.poly({m: ring.coerce_scalar(Fraction(n, d)) for m, n, d in terms})


class TestDivisionOracle:
    """The dict core divides exactly as field arithmetic term by term does."""

    @given(
        st.sampled_from([QQ, PrimeField(7)]),
        st.sampled_from([GREVLEX, LEX, elimination_order(2)]),
        SIGNED_TERMS,
        st.lists(SIGNED_TERMS, max_size=4),
    )
    @settings(max_examples=400)
    def test_matches_field_division(self, field, order, f_terms, divisor_terms):
        ring = PolyRing(field, ("x", "y", "z"))
        f = poly_from(ring, f_terms)
        divisors = [poly_from(ring, t) for t in divisor_terms]
        r, quots = normal_form_with_quotients(f, divisors, order)
        expected_r, expected_quots = field_normal_form_with_quotients(f, divisors, order)
        assert r.terms == expected_r.terms
        assert [q.terms for q in quots] == [q.terms for q in expected_quots]
        assert normal_form(f, divisors, order) == r
        rebuilt = r
        for q, g in zip(quots, divisors):
            rebuilt = rebuilt + q * g
        assert rebuilt == f
