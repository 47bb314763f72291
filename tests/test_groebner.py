"""Reduced bases, normal forms, and the membership contract."""

import hashlib
import pickle
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
    GroebnerBasis,
    Ideal,
    PrimeField,
    RingGraphError,
    buchberger,
    normal_form,
    s_polynomial,
)
from ringgraph import groebner
from ringgraph.groebner import _integral, _minimal_monomial_set, normal_form_with_quotients
from ringgraph.polynomials import elimination_order, mono_divides, mono_lcm, mono_mul

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
            leads = [g.leading_monomial(GREVLEX) for g in basis]
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
                for lead in (g.leading_monomial(GREVLEX) for g in gb.generators):
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


def golden_polynomial(rng, ring, max_terms=3, max_degree=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = [0] * ring.nvars
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(ring.nvars)] += 1
        terms[tuple(mono)] = ring.coerce_scalar(rng.choice((-3, -2, -1, 1, 2, 5)))
    return ring.poly(terms)


def golden_digests(count=1000):
    """SHA-256 of the term lists, in dict order, of the reduced bases of
    ``count`` seeded ideals and of the remainders and quotients of one
    division per ideal, by its basis and by its generators."""
    rng = random.Random(20261018)
    fields = {"Q": QQ, "F7": PrimeField(7), "F32003": PrimeField(32003)}
    hashes = {(f, kind): hashlib.sha256() for f in fields for kind in ("basis", "division")}
    for i in range(count):
        label = list(fields)[i % 3]
        n = rng.randint(1, 5)
        ring = PolyRing(fields[label], tuple(f"x{j}" for j in range(n)))
        order = rng.choice([GREVLEX, LEX] + [elimination_order(k) for k in range(1, n + 1)])
        gens = [golden_polynomial(rng, ring) for _ in range(rng.randint(1, 3))]
        basis = buchberger(gens, order, ring)
        for g in basis.generators:
            hashes[label, "basis"].update(repr(list(g.terms.items())).encode())
        f = golden_polynomial(rng, ring, max_terms=4, max_degree=4)
        for divisors in (basis, gens):
            r, quots = normal_form_with_quotients(f, divisors, order)
            for h in (r, *quots):
                hashes[label, "division"].update(repr(list(h.terms.items())).encode())
    return {f"{f}/{kind}": h.hexdigest() for (f, kind), h in hashes.items()}


class TestGoldenDigest:
    """The engine's outputs, down to each dict's insertion order, equal
    the ones recorded at commit d029c81 (before packed monomials)."""

    RECORDED = {
        "Q/basis": "e3338c2e1b7db0571cc367bb66b6588904d348e43d754a892658ceb13dcf5497",
        "Q/division": "e3634d4702f2c655144d3acb1c56f73704d03544b9b3dbfcb414db53833f5d6d",
        "F7/basis": "57db6285c51273f4d4baecc30d915800884fb3f2f368efaf0a8ffab76a13ed56",
        "F7/division": "c5f13bed03bcf771744bc58ebdf4ac65fe0cc017153c48c0a8e31f8f577ea4f2",
        "F32003/basis": "a0d69a2c02224fce402f72ffcec7e2a79768962757219e37c67cd230cdda0e31",
        "F32003/division": "5b7445f8f15108b1c1ec85a92f0aab8b84cb00162368f3267390296373519a00",
    }

    def test_digests_match_the_recorded_ones(self):
        assert golden_digests() == self.RECORDED


def orders_for(nvars):
    return [GREVLEX, LEX] + [elimination_order(k) for k in range(1, nvars + 1)]


@st.composite
def packing_cases(draw):
    """(nvars, order, width, a, b): exponents run up to and past the limit."""
    n = draw(st.integers(1, 6))
    width = draw(st.sampled_from([2, 3, 4, 8]))
    exps = st.tuples(*[st.integers(0, (1 << width - 1) + 1)] * n)
    return n, draw(st.sampled_from(orders_for(n))), width, draw(exps), draw(exps)


class TestPackedMonomials:
    """The packed encoding agrees with the exponent-tuple definitions."""

    @given(packing_cases())
    @settings(max_examples=400)
    def test_matches_tuple_helpers(self, case):
        n, order, width, a, b = case
        packer = groebner._packer(n, order, width)
        flip, guard = packer.flip, packer.guard

        def fits(m):
            return all(sum(m[i:j]) <= packer.limit for i, j in packer.blocks)

        def pack(m):
            return next(iter(packer.pack({m: 1})))

        for m in (a, b):
            if not fits(m):
                with pytest.raises(groebner._Overflow):
                    pack(m)
        if not (fits(a) and fits(b)):
            return
        pa, pb = pack(a), pack(b)
        assert packer.unpack(pa) == a
        assert (pa > pb) - (pa < pb) == order.compare(a, b)
        assert (not (pb ^ flip) - (pa ^ flip) & guard) == mono_divides(a, b)
        product = pa + (pb - flip)  # a term plus a shift, as reduction forms it
        assert (product & guard == packer.valid) == fits(mono_mul(a, b))
        if fits(mono_mul(a, b)):
            assert product == pack(mono_mul(a, b))
        if fits(mono_lcm(a, b)):
            assert packer.lcm(pa ^ flip, pb ^ flip) == pack(mono_lcm(a, b)) ^ flip
        else:
            with pytest.raises(groebner._Overflow):
                packer.lcm(pa ^ flip, pb ^ flip)

    @pytest.mark.parametrize("width", [2, 3, 8])
    def test_an_exponent_at_the_guard_bit_overflows(self, width):
        for n in range(1, 5):
            for order in orders_for(n):
                packer = groebner._packer(n, order, width)
                for i in range(n):
                    m = tuple(1 << width - 1 if j == i else 0 for j in range(n))
                    with pytest.raises(groebner._Overflow):
                        packer.pack({m: 1})


def widening_family():
    """Seeded ideals and divisions, plus binomials far past a narrow field."""
    rng = random.Random(419)
    x, y = R2.gens()
    cases = [(R2, [x - y ** 40]), (R2, [y ** 70 - 1 + x * y]), (R2, [x - y ** 40, y ** 70 - 1 + x * y])]
    for _ in range(30):
        ring = PolyRing(rng.choice([QQ, PrimeField(7)]), ("x", "y", "z"))
        cases.append((ring, random_ideal_gens(rng, ring)))
    for ring, gens in cases:
        f = random_nonzero_polynomial(rng, ring, max_terms=4, max_degree=5) * gens[0]
        for order in (GREVLEX, LEX, elimination_order(1)):
            basis = buchberger(gens, order, ring)
            yield [g.terms for g in basis.generators], normal_form_with_quotients(f + gens[-1] ** 2, basis)


class TestWidening:
    def test_narrowest_start_width_gives_the_same_results(self, monkeypatch):
        expected = [(bases, repr(division)) for bases, division in widening_family()]
        widths, packer = [], groebner._packer
        monkeypatch.setattr(groebner, "_START_WIDTH", 2)
        monkeypatch.setattr(groebner, "_packer", lambda n, o, w: widths.append(w) or packer(n, o, w))
        narrow = [(bases, repr(division)) for bases, division in widening_family()]
        assert [repr(case) for case in narrow] == [repr(case) for case in expected]
        assert min(widths) == 2 and max(widths) >= 16


class TestStoredDivisors:
    """A basis keeps its packed divisors; they change no result and no
    part of its value."""

    def test_same_results_from_buchberger_and_from_generators(self):
        rng = random.Random(420)
        for field in (QQ, PrimeField(7)):
            ring = PolyRing(field, ("x", "y", "z"))
            for _ in range(25):
                gens = random_ideal_gens(rng, ring)
                computed = buchberger(gens, GREVLEX, ring)
                built = GroebnerBasis(ring, GREVLEX, computed.generators)
                for _ in range(3):
                    f = random_nonzero_polynomial(rng, ring, max_terms=4, max_degree=4)
                    assert normal_form(f, computed) == normal_form(f, built)
                    ours, theirs = normal_form_with_quotients(f, computed), normal_form_with_quotients(f, built)
                    assert repr(ours) == repr(theirs)
                    assert [list(q.terms.items()) for q in ours[1]] == [list(q.terms.items()) for q in theirs[1]]
                other = Ideal(ring, random_ideal_gens(rng, ring) + [computed.generators[0]])
                for mine in (Ideal(ring, gens), Ideal.of_variables(ring, rng.randrange(8))):
                    bare = Ideal(ring, mine.gens)
                    bare._gb[(GREVLEX.kind, GREVLEX.block)] = GroebnerBasis(ring, GREVLEX, mine.groebner().generators)
                    assert mine.contains_ideal(other) == bare.contains_ideal(other)
                    assert other.contains_ideal(mine) == other.contains_ideal(bare)

    def test_value_is_unchanged_by_a_division(self):
        rng = random.Random(421)
        for order in (GREVLEX, LEX, elimination_order(1)):
            gens = random_ideal_gens(rng, R3)
            for basis in (buchberger(gens, order), GroebnerBasis(R3, order, buchberger(gens, order).generators)):
                before = pickle.dumps(basis), hash(basis), repr(basis)
                twin = GroebnerBasis(R3, order, basis.generators)
                normal_form(X ** 7 * Y - Z, basis)
                assert (pickle.dumps(basis), hash(basis), repr(basis)) == before
                assert basis == twin and pickle.dumps(twin) == before[0]
                assert pickle.loads(before[0]) == basis
