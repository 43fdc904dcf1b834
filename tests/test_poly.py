"""Exact polynomial arithmetic."""

import operator
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvforms.poly import Polynomial, sum_of


def p_x(nvars=2):
    return Polynomial.monomial(nvars, (1,) + (0,) * (nvars - 1))


def p_y(nvars=2):
    return Polynomial.monomial(nvars, (0, 1) + (0,) * (nvars - 2))


class TestConstruction:
    def test_zero(self):
        z = Polynomial(3)
        assert bool(z) is False
        assert not z
        assert z.terms == {}

    def test_monomial(self):
        m = Polynomial.monomial(2, (2, 1), Fraction(1, 2))
        assert m.terms == {(2, 1): Fraction(1, 2)}
        assert not Polynomial.monomial(2, (2, 1), 0)

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
        assert not (x + y - x - y)

    def test_incompatible_sizes(self):
        for op in (operator.add, operator.sub):
            with pytest.raises(ValueError, match="mixing 2- and 3-variable"):
                op(p_x(), Polynomial(3))
            with pytest.raises(ValueError, match="mixing 3- and 2-variable"):
                op(Polynomial(3), p_x())

    def test_no_multiplication(self):
        # products are formed inside the integer kernels, never on Polynomial
        x, y = p_x(), p_y()
        for product in (lambda: x * y, lambda: 2 * x, lambda: x * Fraction(1, 2)):
            with pytest.raises(TypeError):
                product()


exps = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
coeffs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
small_polys = st.dictionaries(exps, coeffs, max_size=5).map(
    lambda d: Polynomial(3, d)
)
# the same kind of values, held over a denominator that is not reduced
unreduced_polys = st.builds(
    lambda nums, denom: Polynomial.from_numerators(3, {e: c for e, c in nums.items() if c}, denom),
    st.dictionaries(exps, st.integers(-9, 9), max_size=5),
    st.integers(1, 12),
)
any_polys = st.one_of(small_polys, unreduced_polys)


class TestRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(any_polys, any_polys, any_polys)
    def test_associativity_and_distribution(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert -(a + b) == -a + -b
        assert a - (b + c) == (a - b) - c

    @settings(max_examples=60, deadline=None)
    @given(any_polys, any_polys)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a - b == -(b - a)

    @settings(max_examples=60, deadline=None)
    @given(any_polys)
    def test_units(self, a):
        assert a + Polynomial(3) == a
        assert -(-a) == a
        assert not (a - a)


def _assert_clean(p):
    # results built without the public checks still hold only nonzero Fractions
    assert all(type(c) is Fraction and c for c in p.terms.values())


class TestComputedResults:
    def test_cancellation_stores_no_terms(self):
        p = Polynomial.monomial(2, (2, 0), Fraction(1, 3)) - p_y()
        for zero in (p - p, p + (-p), sum_of(2, [p.numerators(), (-p).numerators()]), p.symmetrized_derivative(3)):
            assert not zero
            assert zero.terms == {}

    def test_differentiate_past_degree(self):
        p = Polynomial.monomial(2, (2, 1))
        assert p.symmetrized_derivative(3).terms == {}
        # only the t1^2 factor survives a second derivative
        assert p.symmetrized_derivative(2).terms == {(0, 1): Fraction(2)}
        _assert_clean(p.symmetrized_derivative(2))

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
        for p in (a + b, a - b, sum_of(3, [q.numerators() for q in (a, b, a)]), -a, a.symmetrized_derivative(2)):
            _assert_clean(p)

    def test_json_of_computed_result_unchanged(self):
        half = Fraction(1, 2)
        p = Polynomial.monomial(2, (2, 0), half) - Polynomial.monomial(2, (0, 2), half)
        p = p - Polynomial.monomial(2, (0, 0), 3)
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
        # in one variable the power sum is the plain k-th derivative
        p = Polynomial.monomial(1, (4,))
        assert p.symmetrized_derivative(1) == Polynomial.monomial(1, (3,), 4)
        assert p.symmetrized_derivative(2) == Polynomial.monomial(1, (2,), 12)
        assert not p.symmetrized_derivative(5)

    @settings(max_examples=60, deadline=None)
    @given(small_polys, small_polys)
    def test_product_rule(self, a, b):
        # sum_i d/dt_i is a derivation; the products come from the frozen reference
        def mul(p, q):
            return Polynomial(3, _frozen_mul(dict(p.terms), dict(q.terms)))

        left = mul(a, b).symmetrized_derivative(1)
        right = mul(a.symmetrized_derivative(1), b) + mul(a, b.symmetrized_derivative(1))
        assert left == right

    def test_symmetrized_derivative(self):
        # sum of k-th partials in every variable
        p = Polynomial(2, {(3, 0): 1, (0, 2): 1})
        assert p.symmetrized_derivative(1) == Polynomial(2, {(2, 0): 3, (0, 1): 2})
        assert p.symmetrized_derivative(2) == Polynomial(2, {(1, 0): 6, (0, 0): 2})
        with pytest.raises(ValueError, match="at least 1"):
            p.symmetrized_derivative(0)


class TestCanonicalText:
    def test_ordering(self):
        p = Polynomial(2, {(0, 1): 1, (2, 0): 1, (1, 1): -1})
        # graded order, higher total degree first, then lex on exponents
        assert p.canonical_text() == "t1^2 - t1*t2 + t2"

    def test_leading_minus(self):
        p = -p_x() + Polynomial.monomial(2, (0, 0))
        assert p.canonical_text() == "-t1 + 1"

    def test_fractions(self):
        p = Polynomial.monomial(2, (2, 0), Fraction(1, 2)) - Polynomial.monomial(
            2, (0, 2), Fraction(3, 2)
        )
        assert p.canonical_text() == "1/2*t1^2 - 3/2*t2^2"

    def test_zero(self):
        assert Polynomial(2).canonical_text() == "0"

    @settings(max_examples=80, deadline=None)
    @given(any_polys, any_polys)
    def test_text_injective(self, a, b):
        if a.canonical_text() == b.canonical_text():
            assert a == b


class TestJson:
    @settings(max_examples=60, deadline=None)
    @given(any_polys)
    def test_round_trip(self, a):
        # the JSON terms rebuild the value through the public constructor
        data = a.to_json_dict()
        terms = {tuple(t["exp"]): Fraction(int(t["num"]), int(t["den"])) for t in data["terms"]}
        assert Polynomial(data["nvars"], terms) == a

    def test_fraction_fields_are_strings(self):
        p = Polynomial.monomial(2, (1, 1), Fraction(-7, 3))
        data = p.to_json_dict()
        (term,) = data["terms"]
        assert term["num"] == "-7" and term["den"] == "3"


class TestRepresentation:
    """Integer numerators over one denominator, compared by value."""

    def test_equal_values_with_different_denominators(self):
        half = Polynomial(2, {(1, 0): Fraction(1, 2)})
        two_quarters = Polynomial.from_numerators(2, {(1, 0): 2}, 4)
        assert two_quarters == half
        assert hash(two_quarters) == hash(half)
        assert {two_quarters, half} == {half}

    @settings(max_examples=60, deadline=None)
    @given(any_polys, st.integers(1, 30))
    def test_rescaled_numerators_are_the_same_value(self, a, m):
        scaled = Polynomial.from_numerators(3, {e: c * m for e, c in a._numerators.items()}, a._denom * m)
        assert scaled == a and a == scaled
        assert hash(scaled) == hash(a)
        assert scaled.canonical_text() == a.canonical_text()
        assert scaled.to_json_dict() == a.to_json_dict()

    def test_one_differing_coefficient_is_unequal(self):
        p = Polynomial.from_numerators(2, {(1, 0): 2, (0, 1): 1}, 4)
        assert p != Polynomial(2, {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)})
        assert p != Polynomial(2, {(1, 0): Fraction(1, 2)})
        assert p != Polynomial.from_numerators(3, {(1, 0, 0): 2, (0, 1, 0): 1}, 4)

    def test_terms_are_reduced_and_read_only(self):
        p = Polynomial.from_numerators(2, {(1, 0): 2, (0, 1): -6}, 4)
        terms = p.terms
        assert terms == {(1, 0): Fraction(1, 2), (0, 1): Fraction(-3, 2)}
        assert [c.denominator for c in terms.values()] == [2, 2]
        with pytest.raises(TypeError):
            terms[(1, 0)] = Fraction(1)

    def test_cancelling_sum_is_zero(self):
        a = Polynomial.from_numerators(2, {(1, 0): 1, (0, 0): 3}, 2)
        b = Polynomial.from_numerators(2, {(1, 0): -2, (0, 0): -6}, 4)
        total = a + b
        assert not total
        assert total.canonical_text() == "0"
        assert total == Polynomial(2)

    def test_first_monomial_is_canonical_first(self):
        p = p_y() + Polynomial.monomial(2, (2, 0)) - Polynomial.monomial(2, (1, 1))
        assert p.first_monomial() == (2, 0) == p.canonical_terms()[0][0]
        assert Polynomial(2).first_monomial() is None

    def test_sum_of(self):
        # (numerators, denom) pairs: t1 + 1/3*t2 - t1, the last over 2
        parts = [({(1, 0): 1}, 1), ({(0, 1): 1}, 3), ({(1, 0): -2}, 2)]
        third = Polynomial.monomial(2, (0, 1), Fraction(1, 3))
        assert sum_of(2, parts) == third
        assert sum_of(2, []) == Polynomial(2)
        # only items() is read, so a read-only mapping sums as a dict does
        assert sum_of(2, [(MappingProxyType({(1, 1): 3}), 6)]) == Polynomial.monomial(2, (1, 1), Fraction(1, 2))
        # numerators() is the pair from_numerators takes, shared rather than copied
        numerators, denom = third.numerators()
        assert Polynomial.from_numerators(2, numerators, denom) == third and numerators is third.numerators()[0]


def _frozen_add(a: dict, b: dict) -> dict:
    # Fraction-dict addition as written before numerators over one denominator
    out = dict(a)
    for exps, coeff in b.items():
        out[exps] = out.get(exps, Fraction(0)) + coeff
    return {e: c for e, c in out.items() if c}


def _frozen_mul(a: dict, b: dict) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


def _frozen_symmetrized_derivative(nvars: int, terms: dict, k: int) -> dict:
    # sum over the variables of the old falling-factorial partial derivative
    acc = {}
    for var in range(nvars):
        for exps, coeff in terms.items():
            e = exps[var]
            if e < k:
                continue
            fall = 1
            for i in range(k):
                fall *= e - i
            key = exps[:var] + (e - k,) + exps[var + 1:]
            acc[key] = acc.get(key, Fraction(0)) + coeff * fall
    return {e: c for e, c in acc.items() if c}



class TestAgainstFrozenFractionReference:
    @settings(max_examples=100, deadline=None)
    @given(any_polys, any_polys, st.integers(1, 4))
    def test_operations_agree(self, a, b, k):
        ta, tb = dict(a.terms), dict(b.terms)
        assert dict((a + b).terms) == _frozen_add(ta, tb)
        assert dict((a - b).terms) == _frozen_add(ta, {e: -c for e, c in tb.items()})
        assert dict(a.symmetrized_derivative(k).terms) == _frozen_symmetrized_derivative(3, ta, k)
