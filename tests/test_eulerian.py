"""Classical Eulerian polynomials: triangle engine vs recurrence, explicit-sum and
generating-function oracles."""
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import assume, given, settings, strategies as st

from qeuler.errors import PoleAtMinusOne, PoleAtOne
from qeuler.eulerian import (
    eulerian_poly,
    eulerian_series_coeff,
    witt_value,
)

SIGN_POINTS = [Fraction(0), Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(5, 3)]


def recurrence_residual(n: int) -> list[int]:
    """sum_{k<=n} C(n,k) A_k(t) (t-1)^{n-k} - t A_n(t), from the binomial recurrence,
    as a coefficient list of length n + 2.

    Zero for n >= 1; equals 1 - t for n = 0.
    """
    acc = [0] * (n + 2)
    for k in range(n + 1):
        term = [comb(n, k) * c for c in eulerian_poly(k).coeffs]
        for _ in range(n - k):  # times (t - 1)
            term = [a - b for a, b in zip([0] + term, term + [0])]
        for i, c in enumerate(term):
            acc[i] += c
    for i, c in enumerate(eulerian_poly(n).coeffs):
        acc[i + 1] -= c
    return acc


def explicit_eulerian_number(n: int, k: int) -> int:
    """<n,k> = sum_{j<=k} (-1)^j C(n+1,j) (k+1-j)^n."""
    return sum((-1) ** j * comb(n + 1, j) * (k + 1 - j) ** n for j in range(k + 1))


class TestRecurrenceEngine:
    def test_first_values(self):
        assert eulerian_poly(0).coeffs == (1,)
        assert eulerian_poly(1).coeffs == (1,)
        assert eulerian_poly(2).coeffs == (1, 1)
        assert eulerian_poly(3).coeffs == (1, 4, 1)
        assert eulerian_poly(5).coeffs == (1, 26, 66, 26, 1)

    @pytest.mark.parametrize("n", range(26))
    def test_structure(self, n):
        poly = eulerian_poly(n)
        coeffs = poly.coeffs
        assert len(coeffs) == max(n, 1)
        assert all(type(c) is int and c > 0 for c in coeffs)
        assert list(coeffs) == list(reversed(coeffs))
        assert poly.evaluate(1) == factorial(n)

    @pytest.mark.parametrize("n", range(26))
    def test_recurrence_residual(self, n):
        residual = recurrence_residual(n)
        assert residual == ([1, -1] if n == 0 else [0] * (n + 2))

    def test_explicit_sum_oracle(self):
        for n in range(121):
            coeffs = eulerian_poly(n).coeffs
            assert list(coeffs) == [explicit_eulerian_number(n, k) for k in range(max(n, 1))]


class TestSeriesOracle:
    def test_constant_term(self):
        for x0 in (0, 2, Fraction(-7, 3)):
            assert eulerian_series_coeff(0, x0) == 1

    def test_first_order_is_minus_one(self):
        for x0 in (0, 2, Fraction(1, 2)):
            assert eulerian_series_coeff(1, x0) == -1

    def test_n2_at_2(self):
        assert eulerian_series_coeff(2, 2) == 3

    def test_pole(self):
        with pytest.raises(PoleAtOne):
            eulerian_series_coeff(3, 1)

    @pytest.mark.parametrize("n", range(26))
    def test_sign_reconciliation(self, n):
        poly = eulerian_poly(n)
        for x0 in SIGN_POINTS:
            assert eulerian_series_coeff(n, x0) == Fraction(-1) ** n * poly.evaluate(x0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 30), st.integers(-10**6, 10**6), st.integers(1, 10**6))
    def test_integer_recurrence_matches_the_triangle(self, n, a, b):
        assume(a != b)
        x0 = Fraction(a, b)
        assert eulerian_series_coeff(n, x0) == (-1) ** n * eulerian_poly(n).evaluate(x0)

    def test_poly_is_the_polynomial_itself(self):
        assert eulerian_poly(4).poly.coeffs == eulerian_poly(4).coeffs == (1, 11, 11, 1)


class TestWittValue:
    def test_n1_is_one(self):
        for q in (2, 3, Fraction(7, 3)):
            assert witt_value(1, q) == 1

    def test_n2(self):
        assert witt_value(2, 2) == -1

    def test_n0(self):
        assert witt_value(0, 7) == 1

    def test_n3_reference(self):
        assert witt_value(3, 8) == 33

    def test_pole(self):
        with pytest.raises(PoleAtMinusOne):
            witt_value(2, -1)
