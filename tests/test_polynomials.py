"""Sparse polynomial arithmetic, monomial orders, and printing."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringgraph import (
    GREVLEX,
    LEX,
    QQ,
    PolyRing,
    PrimeField,
    RingGraphError,
    elimination_order,
    parse_polynomial,
)
from ringgraph.polynomials import embed, fresh_names, strip_first

R3 = PolyRing(QQ, ("x", "y", "z"))
X, Y, Z = R3.gens()


def monos(nvars=3, max_exp=3):
    return st.tuples(*[st.integers(0, max_exp)] * nvars)


def polys(ring=R3, max_exp=3):
    return st.dictionaries(
        monos(ring.nvars, max_exp),
        st.integers(-9, 9).filter(lambda c: c != 0).map(ring.field.from_int),
        min_size=0,
        max_size=4,
    ).map(ring.poly)


class TestRingConstruction:
    def test_duplicate_names_refused(self):
        with pytest.raises(RingGraphError):
            PolyRing(QQ, ("x", "x"))

    def test_equality_includes_field(self):
        assert PolyRing(QQ, ("x",)) == PolyRing(QQ, ("x",))
        assert PolyRing(QQ, ("x",)) != PolyRing(PrimeField(5), ("x",))
        assert PolyRing(QQ, ("x",)) != PolyRing(QQ, ("y",))

    def test_extended_and_fresh_names(self):
        ext = R3.extended(("t",))
        assert ext.names == ("t", "x", "y", "z")
        (name,) = fresh_names(R3, "~t", 1)
        assert name not in R3.names


class TestArithmetic:
    @given(polys(), polys(), polys())
    def test_ring_axioms(self, f, g, h):
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + R3.zero() == f
        assert f * R3.one() == f
        assert f - f == R3.zero()

    @given(polys(), st.integers(0, 4))
    def test_power_matches_repeated_product(self, f, n):
        expected = R3.one()
        for _ in range(n):
            expected = expected * f
        assert f ** n == expected

    @pytest.mark.parametrize("field", [QQ, PrimeField(7)])
    def test_cancelled_terms_leave_no_zero_coefficient(self, field):
        ring = PolyRing(field, ("x", "y"))
        x, y = ring.gens()
        total = (x * y + 3 * x) + (-x * y - 3 * x)
        assert total == ring.zero() and total.terms == {}
        product = (x + y) * (x - y)  # the x*y terms cancel
        assert product == x ** 2 - y ** 2 and set(product.terms) == {(2, 0), (0, 2)}

    def test_zero_coefficients_are_dropped(self):
        one = (1, 0, 0)
        assert R3.poly({one: Fraction(0), (0, 1, 0): 0}).terms == {}
        assert R3.poly({one: 5}).terms == {one: 5}  # a nonzero int is kept as given
        ring = PolyRing(PrimeField(7), ("x",))
        assert ring.poly({(1,): 0, (0,): 3}).terms == {(0,): 3}

    def test_int_coercion(self):
        assert (X + 1) - 1 == X
        assert 2 * X == X + X

    def test_evaluate_and_compose(self):
        f = X * Y - Z ** 2
        assert f.evaluate([QQ.from_int(2), QQ.from_int(3), QQ.from_int(1)]) == QQ.from_int(5)
        g = f.compose([Y, X, X + Y])
        assert g == Y * X - (X + Y) ** 2

    @given(polys())
    def test_scale_and_monic(self, f):
        assert f.scale(0).is_zero()
        if not f.is_zero():
            lc = f.leading_term(GREVLEX)[1]
            m = f.scale(QQ.div(QQ.one, lc))
            assert m.leading_term(GREVLEX)[1] == QQ.one
            assert m.scale(lc) == f


class TestOrders:
    def test_grevlex_degree_first(self):
        f = X ** 2 + X * Y ** 2
        assert f.leading_monomial(GREVLEX) == (1, 2, 0)

    def test_grevlex_tie_break(self):
        # Same degree: the earlier variable wins.
        f = X * Y + Y * Z
        assert f.leading_monomial(GREVLEX) == (1, 1, 0)
        assert (X + Y + Z).leading_monomial(GREVLEX) == (1, 0, 0)

    def test_lex_ignores_degree(self):
        f = X + Y ** 5
        assert f.leading_monomial(LEX) == (1, 0, 0)

    def test_elimination_block_dominates(self):
        order = elimination_order(1)
        # Any monomial involving x beats any monomial without it.
        f = X + Y ** 7 * Z ** 7
        assert f.leading_monomial(order) == (1, 0, 0)

    @given(monos(), monos())
    def test_compare_is_antisymmetric(self, a, b):
        for order in (GREVLEX, LEX, elimination_order(1)):
            ka, kb = order.key()(a), order.key()(b)
            assert (ka > kb) - (ka < kb) == -((kb > ka) - (kb < ka))
            assert (ka == kb) == (a == b)


class TestStringRoundTrip:
    def test_known_forms(self):
        assert str(R3.zero()) == "0"
        assert str(X - Y) == "x - y"
        assert str(-X * Z + Z ** 2) == "-x*z + z^2"
        assert str(X.scale(QQ.from_fraction(__import__("fractions").Fraction(1, 2)))) == "1/2*x"

    @given(polys())
    def test_parse_inverts_print(self, f):
        assert parse_polynomial(str(f), R3) == f

    @given(polys(PolyRing(PrimeField(7), ("x", "y", "z"))))
    def test_parse_inverts_print_fp(self, f):
        assert parse_polynomial(str(f), f.ring) == f


class TestEmbedding:
    def test_embed_strip_round_trip(self):
        ext = R3.extended(("t",))
        shifted = tuple(i + 1 for i in range(3))
        f = X * Y - Z ** 3
        lifted = embed(f, ext, shifted)
        assert strip_first(lifted, 1, R3) == f

    def test_strip_refuses_used_variable(self):
        ext = R3.extended(("t",))
        with pytest.raises(RingGraphError):
            strip_first(ext.var(0), 1, R3)


def run_with_hash_seed(seed: int, code: str, stdin: bytes = b"") -> bytes:
    """Run ``code`` in a fresh interpreter whose string hashes use ``seed``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], input=stdin, env=env, capture_output=True, check=True)
    return done.stdout


class TestPickles:
    """A ring or polynomial pickled under one hash seed loads as an equal
    object with the loading process's hash, and its bytes do not depend
    on the seed."""

    SETUP = (
        "import pickle, sys\n"
        "from ringgraph import QQ, PolyRing\n"
        "R = PolyRing(QQ, ('x', 'y'))\n"
        "x, y = R.gens()\n"
        "f = x * y - 2 * y + 1\n"
        "hash(R), hash(f)\n"
    )

    def test_round_trip_across_hash_seeds(self):
        dumped = run_with_hash_seed(1, self.SETUP + "sys.stdout.buffer.write(pickle.dumps((R, f)))")
        assert run_with_hash_seed(2, self.SETUP + "sys.stdout.buffer.write(pickle.dumps((R, f)))") == dumped
        check = self.SETUP + (
            "R2, f2 = pickle.loads(sys.stdin.buffer.read())\n"
            "assert R2 == R and hash(R2) == hash(R) and R2 in {R}\n"
            "assert f2 == f and hash(f2) == hash(f) and f2 in {f}\n"
            "assert list(f2.terms.items()) == list(f.terms.items())\n"
            "print('ok')\n"
        )
        assert run_with_hash_seed(2, check, dumped).strip() == b"ok"
