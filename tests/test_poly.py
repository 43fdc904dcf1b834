"""Exact polynomial arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvforms import Polynomial


def p_x(nvars=2):
    return Polynomial.variable(nvars, 0)


def p_y(nvars=2):
    return Polynomial.variable(nvars, 1)


class TestConstruction:
    def test_zero(self):
        z = Polynomial.zero(3)
        assert z.is_zero()
        assert not z
        assert z.terms == {}

    def test_constant(self):
        c = Polynomial.constant(2, Fraction(3, 4))
        assert c.terms == {(0, 0): Fraction(3, 4)}
        assert Polynomial.constant(2, 0).is_zero()

    def test_variable(self):
        v = Polynomial.variable(3, 1)
        assert v.terms == {(0, 1, 0): Fraction(1)}
        with pytest.raises(ValueError):
            Polynomial.variable(3, 3)
        with pytest.raises(ValueError):
            Polynomial.variable(3, -1)

    def test_monomial(self):
        m = Polynomial.monomial(2, (2, 1), Fraction(1, 2))
        assert m.terms == {(2, 1): Fraction(1, 2)}
        assert Polynomial.monomial(2, (2, 1), 0).is_zero()

    def test_zero_coefficients_dropped(self):
        p = Polynomial(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
        assert p.terms == {(0, 1): Fraction(2)}

    def test_public_constructor_rejects_bad_keys(self):
        with pytest.raises(ValueError, match="does not have 2 slots"):
            Polynomial(2, {(1, 0, 0): 1})
        with pytest.raises(ValueError, match="negative exponent"):
            Polynomial(2, {(1, -1): 1})
        with pytest.raises(ValueError):
            Polynomial(-1)


class TestArithmetic:
    def test_add_cancel(self):
        x, y = p_x(), p_y()
        assert (x + y - x - y).is_zero()

    def test_product(self):
        x, y = p_x(), p_y()
        p = (x + y) * (x - y)
        assert p == x * x - y * y

    def test_scalar(self):
        x = p_x()
        assert 3 * x == x + x + x
        assert x * Fraction(1, 2) + x * Fraction(1, 2) == x

    def test_incompatible_sizes(self):
        with pytest.raises(ValueError):
            Polynomial.zero(2) + Polynomial.zero(3)

    def test_total_degree(self):
        x, y = p_x(), p_y()
        assert (x * x * y + y).total_degree() == 3
        assert Polynomial.zero(2).total_degree() == 0


exps = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
coeffs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
small_polys = st.dictionaries(exps, coeffs, max_size=5).map(
    lambda d: Polynomial(3, d)
)


class TestRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(small_polys, small_polys, small_polys)
    def test_associativity_and_distribution(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60, deadline=None)
    @given(small_polys, small_polys)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @settings(max_examples=60, deadline=None)
    @given(small_polys)
    def test_units(self, a):
        one = Polynomial.constant(3, 1)
        assert a + Polynomial.zero(3) == a
        assert a * one == a
        assert (a - a).is_zero()


def _assert_clean(p):
    # results built without the public checks still hold only nonzero Fractions
    assert all(type(c) is Fraction and c for c in p.terms.values())


class TestComputedResults:
    def test_cancellation_stores_no_terms(self):
        p = p_x() * p_x() * Fraction(1, 3) - p_y()
        for zero in (p - p, p + (-p), p * 0, p * Polynomial.zero(2)):
            assert zero.is_zero()
            assert zero.terms == {}

    def test_differentiate_past_degree(self):
        p = p_x() * p_x() * p_y()
        assert p.differentiate(0, 3).terms == {}
        assert p.differentiate(1, 2).terms == {}
        _assert_clean(p.differentiate(0, 2))

    def test_symmetrized_derivative_cancels_cleanly(self):
        x, y = p_x(), p_y()
        # d/dt1 + d/dt2 kills t1 - t2 and leaves 2 for t1 + t2
        assert (x - y).symmetrized_derivative(1).terms == {}
        two = (x + y).symmetrized_derivative(1)
        assert two.terms == {(0, 0): Fraction(2)}
        _assert_clean(two)

    @settings(max_examples=60, deadline=None)
    @given(small_polys, small_polys)
    def test_results_hold_nonzero_fractions(self, a, b):
        derived = (a.differentiate(0, 2), a.symmetrized_derivative(2))
        for p in (a + b, a - b, a * b, 3 * a, a * Fraction(1, 2), -a, *derived):
            _assert_clean(p)

    def test_json_of_computed_result_unchanged(self):
        x, y = p_x(), p_y()
        p = (x + y) * (x - y) * Fraction(1, 2) - Polynomial.constant(2, 3)
        assert p.to_json_dict() == {
            "nvars": 2,
            "terms": [
                {"exp": [2, 0], "num": "1", "den": "2"},
                {"exp": [0, 2], "num": "-1", "den": "2"},
                {"exp": [0, 0], "num": "-3", "den": "1"},
            ],
        }


class TestDifferentiation:
    def test_power_rule(self):
        p = Polynomial.monomial(1, (4,))
        assert p.differentiate(0) == Polynomial.monomial(1, (3,), 4)
        assert p.differentiate(0, 2) == Polynomial.monomial(1, (2,), 12)
        assert p.differentiate(0, 5).is_zero()

    def test_order_zero_is_identity(self):
        p = p_x() * p_y()
        assert p.differentiate(0, 0) == p

    @settings(max_examples=60, deadline=None)
    @given(small_polys, small_polys)
    def test_product_rule(self, a, b):
        left = (a * b).differentiate(2)
        right = a.differentiate(2) * b + a * b.differentiate(2)
        assert left == right

    @settings(max_examples=40, deadline=None)
    @given(small_polys)
    def test_repeated_equals_higher_order(self, a):
        assert a.differentiate(1).differentiate(1) == a.differentiate(1, 2)

    def test_symmetrized_derivative(self):
        # sum of k-th partials in every variable
        x, y = p_x(), p_y()
        p = x * x * x + y * y
        assert p.symmetrized_derivative(1) == 3 * x * x + 2 * y
        assert p.symmetrized_derivative(2) == 6 * x + Polynomial.constant(2, 2)


class TestCanonicalText:
    def test_ordering(self):
        x, y = p_x(), p_y()
        p = y + x * x - x * y
        # graded order, higher total degree first, then lex on exponents
        assert p.canonical_text() == "t1^2 - t1*t2 + t2"

    def test_leading_minus(self):
        p = -p_x() + Polynomial.constant(2, 1)
        assert p.canonical_text() == "-t1 + 1"

    def test_fractions(self):
        p = Polynomial.monomial(2, (2, 0), Fraction(1, 2)) - Polynomial.monomial(
            2, (0, 2), Fraction(3, 2)
        )
        assert p.canonical_text() == "1/2*t1^2 - 3/2*t2^2"

    def test_zero(self):
        assert Polynomial.zero(2).canonical_text() == "0"

    @settings(max_examples=80, deadline=None)
    @given(small_polys, small_polys)
    def test_text_injective(self, a, b):
        if a.canonical_text() == b.canonical_text():
            assert a == b


class TestJson:
    @settings(max_examples=60, deadline=None)
    @given(small_polys)
    def test_round_trip(self, a):
        assert Polynomial.from_json_dict(a.to_json_dict()) == a

    def test_fraction_fields_are_strings(self):
        p = Polynomial.monomial(2, (1, 1), Fraction(-7, 3))
        data = p.to_json_dict()
        (term,) = data["terms"]
        assert term["num"] == "-7" and term["den"] == "3"
