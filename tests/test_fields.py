"""Exact field arithmetic: rationals and prime fields."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringgraph import QQ, PrimeField, RingGraphError, field_by_name

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)


class TestRationalField:
    def test_constants(self):
        assert QQ.zero == Fraction(0)
        assert QQ.one == Fraction(1)

    def test_arithmetic_known(self):
        a, b = Fraction(2, 3), Fraction(-1, 6)
        assert QQ.add(a, b) == Fraction(1, 2)
        assert QQ.sub(a, b) == Fraction(5, 6)
        assert QQ.mul(a, b) == Fraction(-1, 9)
        assert QQ.div(a, b) == Fraction(-4)
        assert QQ.neg(a) == Fraction(-2, 3)

    def test_division_by_zero_refused(self):
        with pytest.raises(ZeroDivisionError):
            QQ.div(QQ.one, QQ.zero)

    @given(rationals, rationals)
    def test_field_axioms(self, a, b):
        assert QQ.add(a, b) == QQ.add(b, a)
        assert QQ.mul(a, b) == QQ.mul(b, a)
        assert QQ.add(a, QQ.neg(a)) == QQ.zero
        if b:
            assert QQ.mul(QQ.div(a, b), b) == a

    def test_conversions(self):
        assert QQ.from_int(-7) == Fraction(-7)
        assert QQ.from_fraction(Fraction(3, 4)) == Fraction(3, 4)
        assert QQ.to_str(Fraction(-3, 4)) == "-3/4"
        assert QQ.to_str(Fraction(5)) == "5"


class TestPrimeField:
    def test_rejects_non_prime(self):
        for bad in (0, 1, 4, 9, 15):
            with pytest.raises(RingGraphError):
                PrimeField(bad)

    def test_miller_rabin_rounds_decide_past_trial_division(self):
        for p in (32003, 2 ** 61 - 1, 2 ** 63 - 25):
            assert PrimeField(p).p == p
        # 41 * 43, and a strong pseudoprime to the bases 2, 3, 5 and 7
        for bad in (1763, 3215031751):
            with pytest.raises(RingGraphError, match="not prime"):
                PrimeField(bad)

    def test_axioms_exhaustive_f7(self):
        f = PrimeField(7)
        elements = [f.from_int(i) for i in range(7)]
        for a in elements:
            assert f.add(a, f.neg(a)) == f.zero
            for b in elements:
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)
                if b:
                    assert f.mul(f.div(a, b), b) == a
                for c in elements:
                    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))

    def test_division_by_zero_refused(self):
        f = PrimeField(5)
        with pytest.raises(ZeroDivisionError):
            f.div(f.one, f.zero)

    def test_from_fraction_inverts_denominator(self):
        f = PrimeField(7)
        # 3/4 in F7 is 3 * 4^(-1) = 3 * 2 = 6.
        assert f.from_fraction(Fraction(3, 4)) == f.from_int(6)
        with pytest.raises(ZeroDivisionError):
            f.from_fraction(Fraction(1, 7))

    def test_equality_by_characteristic(self):
        assert PrimeField(5) == PrimeField(5)
        assert PrimeField(5) != PrimeField(7)
        assert PrimeField(5) != QQ


class TestFieldByName:
    def test_lookup(self):
        assert field_by_name("Q") == QQ
        assert field_by_name("Fp", 11) == PrimeField(11)

    def test_bad_lookup(self):
        with pytest.raises(RingGraphError):
            field_by_name("R")
        with pytest.raises(RingGraphError):
            field_by_name("Fp")
