"""Certified one-step factorization and its helper routines."""

import random
from fractions import Fraction

import pytest

from ringgraph import QQ, PolyRing, PrimeField, certify_irreducible, exact_divide, factor_once
from ringgraph import factor as factor_module
from ringgraph.factor import _fp_roots, _one_variable, _rational_roots, _sqrt_scalar, poly_sqrt

from conftest import random_nonzero_polynomial

R2 = PolyRing(QQ, ("x", "y"))
X, Y = R2.gens()


class TestExactDivide:
    def test_known(self):
        assert exact_divide(X ** 2 - Y ** 2, X - Y) == X + Y
        assert exact_divide(X ** 2, Y) is None
        assert exact_divide(X, R2.zero()) is None

    def test_random_products_divide_back(self):
        rng = random.Random(431)
        for _ in range(30):
            f = random_nonzero_polynomial(rng, R2, max_terms=3, max_degree=2)
            g = random_nonzero_polynomial(rng, R2, max_terms=3, max_degree=2)
            q = exact_divide(f * g, g)
            assert q == f


class TestPolySqrt:
    def test_random_squares_recovered(self):
        rng = random.Random(432)
        for _ in range(30):
            f = random_nonzero_polynomial(rng, R2, max_terms=3, max_degree=2)
            s = poly_sqrt(f * f)
            assert s is not None
            assert s == f or s == -f

    def test_non_squares_rejected(self):
        assert poly_sqrt(X) is None
        assert poly_sqrt(X ** 2 + Y ** 2) is None
        assert poly_sqrt(X ** 2 * Y) is None
        assert poly_sqrt(R2.zero()) == R2.zero()


class TestFactorOnce:
    def test_trivial_classes(self):
        assert factor_once(R2.zero()) == ("unknown", None)
        assert factor_once(R2.one())[0] == "unit"
        assert factor_once(X + Y)[0] == "irreducible"

    def test_monomial_content(self):
        verdict, pair = factor_once(X * Y + X ** 2)
        assert verdict == "factored"
        g, h = pair
        assert g * h == X * Y + X ** 2

    def test_difference_of_squares(self):
        verdict, pair = factor_once(X ** 2 - Y ** 2)
        assert verdict == "factored"
        g, h = pair
        assert g * h == X ** 2 - Y ** 2
        assert g.total_degree() == 1 and h.total_degree() == 1

    def test_degree_five_without_a_root_is_refused(self):
        quintic = X ** 5 - 2
        assert factor_once(quintic) == ("unknown", None)
        assert not certify_irreducible(quintic)
        f7 = PolyRing(PrimeField(7), ("x", "y"))
        x7 = f7.var(0)
        verdict, pair = factor_once(x7 ** 5 - 2)  # 4^5 = 1024 = 2 mod 7
        assert verdict == "factored"
        assert pair[0] * pair[1] == x7 ** 5 - 2

    def test_univariate_roots(self):
        one_var = PolyRing(QQ, ("t",))
        T = one_var.var(0)
        verdict, pair = factor_once(T ** 2 - 1)
        assert verdict == "factored"
        assert pair[0] * pair[1] == T ** 2 - 1
        assert certify_irreducible(T ** 2 + 1)
        assert certify_irreducible(T ** 2 - 2)

    def test_quartic_splits(self):
        one_var = PolyRing(QQ, ("t",))
        T = one_var.var(0)
        # (t^2+1)(t^2+4) has no rational roots but splits into quadratics;
        # the second one's resolvent cubic has roots 0, 1 and -24, and only
        # y = 0 gives no rational split, so every root must be tried
        for f in (T ** 4 + 5 * T ** 2 + 4, (T ** 2 - 4 * T - 2) * (T ** 2 + 6 * T + 3)):
            verdict, pair = factor_once(f)
            assert verdict == "factored"
            assert pair[0] * pair[1] == f

    def test_irreducible_quadratic_form(self):
        assert certify_irreducible(X ** 2 + Y ** 2)
        assert not certify_irreducible(X ** 2 - Y ** 2)

    def test_linear_in_a_variable_with_constant_coefficient(self):
        three = PolyRing(QQ, ("x", "y", "z"))
        x, y, z = three.gens()
        # degree one in z with unit coefficient: a graph, hence a domain
        assert certify_irreducible(z - x * y)
        assert certify_irreducible(x * y - z ** 2) or factor_once(x * y - z ** 2)[0] in (
            "irreducible",
            "unknown",
        )

    def test_quadratic_in_variable_square_discriminant(self):
        # y^2 - x^2: discriminant in y is 4x^2, a perfect square
        verdict, pair = factor_once(Y ** 2 - X ** 2)
        assert verdict == "factored"
        assert pair[0] * pair[1] == Y ** 2 - X ** 2

    def test_factored_verdicts_always_verify(self):
        rng = random.Random(433)
        for _ in range(40):
            f = random_nonzero_polynomial(rng, R2, max_terms=3, max_degree=3)
            g = random_nonzero_polynomial(rng, R2, max_terms=3, max_degree=3)
            verdict, pair = factor_once(f * g)
            if verdict == "factored":
                assert pair[0] * pair[1] == f * g
                assert not pair[0].is_constant()
                assert not pair[1].is_constant()

    def test_prime_field_roots(self):
        ring = PolyRing(PrimeField(7), ("t",))
        T = ring.var(0)
        f = T ** 2 - ring.const(2)  # 2 = 3^2 = 4^2 in F7
        verdict, pair = factor_once(f)
        assert verdict == "factored"
        assert pair[0] * pair[1] == f


class TestPrimeFieldSplits:
    """Quadratic factors of rootless quartics over GF(p), square roots of
    scalars over GF(p), and quadratics in characteristic 2."""

    @staticmethod
    def univariate(p):
        ring = PolyRing(PrimeField(p), ("x",))
        return ring, ring.var(0)

    def test_quartic_with_quadratic_factors_over_f3(self):
        ring, x = self.univariate(3)
        f = x ** 4 + 1
        verdict, (g, h) = factor_once(f)
        assert verdict == "factored"
        assert (g, h) == (x ** 2 + x + ring.const(2), x ** 2 + x.scale(2) + ring.const(2))
        assert g * h == f

    def test_rootless_quartics_without_quadratic_factors(self):
        ring3, x3 = self.univariate(3)
        ring2, x2 = self.univariate(2)
        assert factor_once(x3 ** 4 + x3 ** 2 + ring3.const(2)) == ("irreducible", None)
        assert factor_once(x2 ** 4 + x2 + ring2.one()) == ("irreducible", None)

    def test_quartic_splits_modulo_every_prime_but_not_over_q(self):
        """x^4 + 1 splits into two quadratics modulo every prime, however
        large, and is irreducible over Q."""
        for p in (37, 32003, 2**31 - 1):
            ring, x = self.univariate(p)
            verdict, (g, h) = factor_once(x ** 4 + 1)
            assert verdict == "factored"
            assert g * h == x ** 4 + 1
            assert g.total_degree() == h.total_degree() == 2
        t = PolyRing(QQ, ("t",)).var(0)
        assert factor_once(t ** 4 + 1) == ("irreducible", None)

    def test_characteristic_two_quadratic_in_a_variable(self):
        """2 is not invertible in GF(2), so no quadratic formula: x^2 + x*y + z
        is certified by its degree one in z, and x^2 + y^2 = (x + y)^2."""
        ring = PolyRing(PrimeField(2), ("x", "y", "z"))
        x, y, z = ring.gens()
        assert factor_once(x ** 2 + x * y + z) == ("irreducible", None)
        assert factor_once(x ** 2 + y ** 2) == ("factored", (x + y, x + y))

    def test_quadratic_with_nonsquare_discriminant_reads_a_scalar_root(self, monkeypatch):
        ring = PolyRing(PrimeField(7), ("x", "y"))
        x, y = ring.gens()
        calls = []
        original = factor_module._sqrt_scalar
        monkeypatch.setattr(
            factor_module, "_sqrt_scalar", lambda field, c: calls.append(c) or original(field, c)
        )
        assert factor_once(x ** 2 + x - 4 * y ** 2) == ("irreducible", None)
        assert calls


class TestSearchReach:
    """Roots far past any search come out exact: over GF(p) with p large,
    and over Q with a constant or lead above 10^9."""

    @staticmethod
    def assert_factored(f, first):
        verdict, (g, h) = factor_once(f)
        assert verdict == "factored", f
        assert g == first
        assert g * h == f
        assert not h.is_constant()

    def test_large_prime_field(self):
        ring = PolyRing(PrimeField(32003), ("x", "y"))
        x, y = ring.gens()
        self.assert_factored(x ** 2 - ring.one(), x + ring.const(32002))
        self.assert_factored(x ** 2 - y ** 2, x - y)
        self.assert_factored(x ** 3 - ring.one(), x - ring.one())

    def test_rationals_beyond_the_divisor_search(self):
        x = R2.var(0)
        big_square = x ** 2 - R2.const(10 ** 20)
        three_roots = (x - R2.const(40000)) * (x - R2.const(50000)) * (x + R2.one())
        self.assert_factored(big_square, x - R2.const(10 ** 10))
        self.assert_factored(three_roots, x + R2.one())


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


class TestSympyOracle:
    """Roots, quadratic factors and scalar square roots agree with sympy's
    on seeded random polynomials."""

    PRIMES = (2, 3, 32003, 2**31 - 1)

    @staticmethod
    def product(sympy, rng, t, root):
        """Linear factors t - root() with multiplicity, times a random cofactor."""
        expr = sympy.Integer(1)
        for _ in range(rng.randint(1, 3)):
            expr *= (t - root()) ** rng.randint(1, 2)
        d = rng.randint(0, 2)
        return expr * (rng.randint(1, 9) * t ** d + sum(rng.randint(-9, 9) * t ** k for k in range(d)))

    def test_rational_roots(self, sympy):
        rng = random.Random(451)
        t = sympy.Symbol("t")

        def root():
            bound = rng.choice((5, 10 ** 12))
            return sympy.Rational(rng.randint(-bound, bound), rng.randint(1, 50))

        for _ in range(80):
            poly = sympy.Poly(self.product(sympy, rng, t, root), t, domain=sympy.QQ)
            coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
            expected = {Fraction(int(r.p), int(r.q)) for r in poly.ground_roots()}
            assert set(_rational_roots(coeffs)) == expected, poly

    @pytest.mark.parametrize("p", PRIMES)
    def test_prime_field_roots(self, sympy, p):
        rng = random.Random(452 + p)
        t = sympy.Symbol("t")
        field = PrimeField(p)
        for _ in range(40):
            poly = sympy.Poly(self.product(sympy, rng, t, lambda: rng.randrange(p)), t, modulus=p)
            if poly.degree() < 1:
                continue
            coeffs = [int(c) % p for c in reversed(poly.all_coeffs())]
            expected = sorted(int(r) % p for r in poly.ground_roots())
            assert _fp_roots(_one_variable(field, coeffs)) == expected, poly

    @pytest.mark.parametrize("p", PRIMES)
    def test_rootless_quartics(self, sympy, p):
        rng = random.Random(453 + p)
        t = sympy.Symbol("t")
        ring = PolyRing(PrimeField(p), ("t",))
        seen = 0
        while seen < 20:  # random quartics, and products of two random quadratics
            monic = [t ** d + sum(rng.randrange(p) * t ** k for k in range(d)) for d in (4, 2, 2)]
            poly = sympy.Poly(monic[0] if seen % 2 else monic[1] * monic[2], t, modulus=p)
            if poly.ground_roots():
                continue
            seen += 1
            coeffs = [int(c) % p for c in reversed(poly.all_coeffs())]
            f = ring.poly({(k,): c for k, c in enumerate(coeffs)})
            theirs = {tuple(int(c) % p for c in g.all_coeffs()) for g, _ in poly.factor_list()[1]}
            verdict, pair = factor_once(f)
            if len(theirs) == 1 and all(len(g) == 5 for g in theirs):
                assert verdict == "irreducible", poly
            else:
                assert verdict == "factored", poly
                g, h = pair
                assert g * h == f
                assert tuple(g.terms.get((k,), 0) for k in (2, 1, 0)) in theirs

    def test_scalar_square_roots(self, sympy):
        from sympy.ntheory import sqrt_mod

        rng = random.Random(454)
        field = PrimeField(32003)
        for c in [rng.randrange(1, 32003) for _ in range(200)]:
            roots = sqrt_mod(c, 32003, all_roots=True)
            assert _sqrt_scalar(field, c) == (min(roots) if roots else None), c
