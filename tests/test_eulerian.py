"""Classical Eulerian polynomials: triangle engine vs recurrence, explicit-sum and
generating-function oracles."""
from fractions import Fraction
from math import comb, factorial

import pytest

from qeuler.errors import PoleAtMinusOne, PoleAtOne
from qeuler.eulerian import (
    eulerian_poly,
    eulerian_series_coeff,
    witt_value,
)
from qeuler.polyq import PolyQ

SIGN_POINTS = [Fraction(0), Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(5, 3)]


def recurrence_residual(n: int) -> PolyQ:
    """sum_{k<=n} C(n,k) A_k(t) (t-1)^{n-k} - t A_n(t), from the binomial recurrence.

    Zero for n >= 1; equals 1 - t for n = 0.
    """
    t_minus_1 = PolyQ((-1, 1))
    acc = PolyQ.zero()
    for k in range(n + 1):
        acc = acc + comb(n, k) * eulerian_poly(k).poly * t_minus_1 ** (n - k)
    return acc - PolyQ((0, 1)) * eulerian_poly(n).poly


def explicit_eulerian_number(n: int, k: int) -> int:
    """<n,k> = sum_{j<=k} (-1)^j C(n+1,j) (k+1-j)^n."""
    return sum((-1) ** j * comb(n + 1, j) * (k + 1 - j) ** n for j in range(k + 1))


class TestRecurrenceEngine:
    def test_first_values(self):
        assert eulerian_poly(0).poly == PolyQ((1,))
        assert eulerian_poly(1).poly == PolyQ((1,))
        assert eulerian_poly(2).poly == PolyQ((1, 1))
        assert eulerian_poly(3).poly == PolyQ((1, 4, 1))
        assert eulerian_poly(5).poly == PolyQ((1, 26, 66, 26, 1))

    @pytest.mark.parametrize("n", range(26))
    def test_structure(self, n):
        poly = eulerian_poly(n).poly
        coeffs = poly.coeffs
        assert poly.degree == max(n - 1, 0)
        assert all(c > 0 and c.denominator == 1 for c in coeffs)
        assert list(coeffs) == list(reversed(coeffs))
        assert poly.evaluate(1) == factorial(n)

    @pytest.mark.parametrize("n", range(26))
    def test_recurrence_residual(self, n):
        residual = recurrence_residual(n)
        if n == 0:
            assert residual == PolyQ((1, -1))
        else:
            assert residual.is_zero()

    def test_explicit_sum_oracle(self):
        for n in range(121):
            coeffs = eulerian_poly(n).poly.coeffs
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
        poly = eulerian_poly(n).poly
        for x0 in SIGN_POINTS:
            assert eulerian_series_coeff(n, x0) == Fraction(-1) ** n * poly.evaluate(x0)


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
