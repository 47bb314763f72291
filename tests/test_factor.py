"""Certified one-step factorization and its helper routines."""

import random

from ringgraph import QQ, PolyRing, PrimeField, certify_irreducible, exact_divide, factor_once
from ringgraph import factor as factor_module
from ringgraph.factor import poly_sqrt

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
        # (t^2+1)(t^2+4) has no rational roots but splits into quadratics
        f = T ** 4 + 5 * T ** 2 + 4
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
    """The quadratic-divisor scan of rootless quartics over small GF(p),
    and square roots of scalars over GF(p)."""

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

    def test_quartic_beyond_the_scan_is_unknown(self):
        ring, x = self.univariate(37)
        assert factor_once(x ** 4 + 1) == ("unknown", None)  # rootless, and 37 > 31

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
