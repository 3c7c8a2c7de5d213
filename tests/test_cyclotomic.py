"""Cyclotomic polynomials and exact field arithmetic in Q(zeta_m)."""
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from qeuler.characters import enumerate_characters
from qeuler.cyclotomic import CycElem, cyc_embed, cyclotomic_polynomial
from qeuler.numtheory import divisors, phi

orders = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12])


def elem_for(m, coeffs):
    return CycElem(m, coeffs)


def zeta(m):
    """The distinguished primitive root of unity zeta_m."""
    return CycElem(m, (0, 1))


def poly_mul(a, b):
    """Product of two dense coefficient sequences (index = degree)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_divmod(a, b):
    """Quotient and remainder of Fraction coefficient lists, b with a nonzero
    leading coefficient; both trimmed of trailing zeros."""
    rem, quot = [Fraction(c) for c in a], []
    for i in range(len(rem) - len(b), -1, -1):
        factor = rem[i + len(b) - 1] / b[-1]
        quot.append(factor)
        for j, c in enumerate(b):
            rem[i + j] -= factor * c
    return trim(quot[::-1]), trim(rem[:len(b) - 1])


def trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


elems = orders.flatmap(lambda m: st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=10),
    min_size=phi(m), max_size=phi(m)).map(lambda cs: elem_for(m, cs)))


class TestCyclotomicPolynomial:
    def test_base_case(self):
        assert cyclotomic_polynomial(1) == (-1, 1)

    def test_phi3(self):
        assert cyclotomic_polynomial(3) == (1, 1, 1)

    def test_phi6(self):
        assert cyclotomic_polynomial(6) == (1, -1, 1)

    @pytest.mark.parametrize("m", range(1, 61))
    def test_product_over_divisors(self, m):
        product = [1]
        for d in divisors(m):
            product = poly_mul(product, cyclotomic_polynomial(d))
        assert product == [-1] + [0] * (m - 1) + [1]

    def test_integer_monic(self):
        for m in range(1, 201):
            poly = cyclotomic_polynomial(m)
            assert len(poly) == phi(m) + 1
            assert poly[-1] == 1
            assert all(type(c) is int for c in poly)

    @pytest.mark.parametrize("m, height", [(105, 2), (165, 2), (195, 2), (385, 3)])
    def test_coefficients_beyond_one(self, m, height):
        # 105 is the least m whose Phi_m has a coefficient outside {0, 1, -1}, 385 the least with a 3
        poly = cyclotomic_polynomial(m)
        assert max(map(abs, poly)) == height
        assert len(poly) == phi(m) + 1

    def test_spot_coefficients_of_phi_105(self):
        poly = cyclotomic_polynomial(105)
        assert poly[7] == -2 and poly[41] == -2
        assert [i for i, c in enumerate(poly) if abs(c) > 1] == [7, 41]


class TestCycReduce:
    def test_zeta_cubed(self):
        assert CycElem(3, (0, 0, 0, 1)) == 1

    def test_phi_divides(self):
        assert CycElem(3, (1, 1, 1)) == 0

    def test_order_one(self):
        assert zeta(1) == 1

    @settings(max_examples=60, deadline=None)
    @given(orders, st.lists(st.integers(-9, 9), min_size=0, max_size=10),
           st.lists(st.integers(-9, 9), min_size=0, max_size=10))
    def test_reduction_is_multiplicative(self, m, a, b):
        assert CycElem(m, poly_mul(a, b)) == CycElem(m, a) * CycElem(m, b)


class TestCycElem:
    def test_zeta_power_wraps(self):
        z = zeta(5)
        assert z**5 == 1
        assert z**7 == z**2

    def test_sum_of_cube_roots(self):
        z = zeta(3)
        assert 1 + z + z**2 == 0

    def test_cross_order_equality(self):
        z6 = zeta(6)
        z3 = zeta(3)
        assert z6**2 == z3

    def test_negative_power_raises(self):
        with pytest.raises(ValueError):
            zeta(5) ** -1

    def test_rational_detection(self):
        z = zeta(4)
        assert not (z + 1).is_rational
        assert (z**2).to_rational() == -1

    @settings(max_examples=60, deadline=None)
    @given(elems, elems, elems)
    def test_field_laws(self, a, b, c):
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


class TestCoordinateTypes:
    """Int and Fraction coordinates are kept as given; anything else becomes a Fraction."""

    def test_int_coordinates_stay_ints(self):
        assert all(type(c) is int for c in CycElem(7, (1, 2, 3)).coeffs)
        for d in range(3, 64, 2):
            for chi in enumerate_characters(d):
                assert all(type(c) is int for v in chi.values() for c in v.coeffs), chi.label

    def test_other_inputs_become_fractions(self):
        coeffs = CycElem(3, [0.5, "1/3"]).coeffs
        assert coeffs == (Fraction(1, 2), Fraction(1, 3))
        assert all(type(c) is Fraction for c in coeffs)

    def test_rationals_read_from_int_coordinates_are_fractions(self):
        three, two = CycElem(5, (3,)), CycElem(5, (2,))
        assert type(three.to_rational()) is Fraction and three.to_rational() == 3
        for lhs, rhs, r in ((three, two, Fraction(3, 2)), (CycElem(5, (4, 0, 6)), CycElem(5, (2, 0, 3)), 2)):
            ratio = lhs.rational_ratio(rhs)
            assert type(ratio) is Fraction and ratio == r


def euclid_inverse(a: CycElem) -> CycElem:
    """Inverse in Q(zeta_m) by the extended Euclidean algorithm over Q[x].

    Phi_m is irreducible over Q, so every nonzero residue is a unit.
    """
    r0, r1 = trim(a.coeffs), list(cyclotomic_polynomial(a.order))
    s0, s1 = [Fraction(1)], []
    while r1:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, trim(x - y for x, y in zip_longest(s0, poly_mul(q, s1), fillvalue=0))
    assert len(r0) == 1
    return CycElem(a.order, [c / r0[0] for c in s0])


sparse = st.one_of(st.just(Fraction(0)),
                   st.fractions(min_value=-5, max_value=5, max_denominator=10))


@st.composite
def ratio_pairs(draw):
    """(lhs, rhs): lhs a rational multiple of rhs, an unrelated element, or a
    rational multiple with one coordinate nudged."""
    m = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 9, 12, 15, 21, 42]))
    rhs = CycElem(m, draw(st.lists(sparse, min_size=phi(m), max_size=phi(m))))
    kind = draw(st.sampled_from(["rational", "irrational", "near-miss"]))
    if kind == "irrational":
        return CycElem(m, draw(st.lists(sparse, min_size=phi(m), max_size=phi(m)))), rhs
    coeffs = list((rhs * draw(sparse)).coeffs)
    if kind == "near-miss":
        i = draw(st.integers(0, phi(m) - 1))
        coeffs[i] += draw(st.fractions(min_value=-1, max_value=1, max_denominator=7).filter(bool))
    return CycElem(m, coeffs), rhs


class TestRationalRatio:
    @settings(max_examples=300, deadline=None)
    @given(ratio_pairs())
    def test_matches_euclid_quotient(self, pair):
        lhs, rhs = pair
        if rhs.is_zero():
            with pytest.raises(ZeroDivisionError):
                lhs.rational_ratio(rhs)
            return
        inverse = euclid_inverse(rhs)
        assert rhs * inverse == 1
        quotient = lhs * inverse
        expected = quotient.to_rational() if quotient.is_rational else None
        assert lhs.rational_ratio(rhs) == expected

    def test_spot_values(self):
        z = zeta(12)
        e = 3 * z**2 + Fraction(1, 2)
        assert (e * Fraction(-7, 3)).rational_ratio(e) == Fraction(-7, 3)
        assert (e * z).rational_ratio(e) is None


class TestCycEmbed:
    def test_one(self):
        v = cyc_embed(CycElem.one(7), 64)
        with mp.workprec(80):
            assert mp.fabs(v - 1) < mp.mpf(2) ** -63

    def test_i(self):
        v = cyc_embed(zeta(4), 64)
        with mp.workprec(80):
            assert mp.fabs(v - mp.mpc(0, 1)) < mp.mpf(2) ** -63

    def test_cube_root_sum(self):
        z = zeta(3)
        v = cyc_embed(z + z**2, 64)
        with mp.workprec(80):
            assert mp.fabs(v + 1) < mp.mpf(2) ** -60

    def test_precision_scales(self):
        z = zeta(9)
        coarse = cyc_embed(z, 64)
        fine = cyc_embed(z, 256)
        with mp.workprec(300):
            assert mp.fabs(coarse - fine) < mp.mpf(2) ** -60
            root = mp.expjpi(mp.mpf(2) / 9)
            assert mp.fabs(fine - root) < mp.mpf(2) ** -250

    def test_rejects_tiny_bits(self):
        with pytest.raises(ValueError):
            cyc_embed(CycElem.one(3), 8)
