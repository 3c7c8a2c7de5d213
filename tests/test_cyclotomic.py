"""Cyclotomic polynomials and exact field arithmetic in Q(zeta_m)."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from qeuler.cyclotomic import CycElem, cyc_embed, cyclotomic_polynomial
from qeuler.numtheory import divisors, phi
from qeuler.polyq import PolyQ

orders = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12])


def elem_for(m, coeffs):
    return CycElem(m, coeffs)


elems = orders.flatmap(lambda m: st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=10),
    min_size=phi(m), max_size=phi(m)).map(lambda cs: elem_for(m, cs)))


class TestCyclotomicPolynomial:
    def test_base_case(self):
        assert cyclotomic_polynomial(1) == PolyQ((-1, 1))

    def test_phi3(self):
        assert cyclotomic_polynomial(3) == PolyQ((1, 1, 1))

    def test_phi6(self):
        assert cyclotomic_polynomial(6) == PolyQ((1, -1, 1))

    @pytest.mark.parametrize("m", range(1, 61))
    def test_product_over_divisors(self, m):
        product = PolyQ.one()
        for d in divisors(m):
            product = product * cyclotomic_polynomial(d)
        assert product == PolyQ.x_power_minus_one(m)

    def test_integer_monic(self):
        for m in (12, 30, 45):
            poly = cyclotomic_polynomial(m)
            assert poly.coeffs[-1] == 1
            assert all(c.denominator == 1 for c in poly.coeffs)


class TestCycReduce:
    def test_zeta_cubed(self):
        assert CycElem.from_poly(PolyQ.monomial(3), 3) == 1

    def test_phi_divides(self):
        assert CycElem.from_poly(PolyQ((1, 1, 1)), 3) == 0

    def test_order_one(self):
        assert CycElem.from_poly(PolyQ.monomial(1), 1) == 1

    @settings(max_examples=60, deadline=None)
    @given(orders, st.lists(st.integers(-9, 9), min_size=0, max_size=10),
           st.lists(st.integers(-9, 9), min_size=0, max_size=10))
    def test_reduction_is_multiplicative(self, m, a_coeffs, b_coeffs):
        a, b = PolyQ(a_coeffs), PolyQ(b_coeffs)
        assert CycElem.from_poly(a * b, m) == CycElem.from_poly(a, m) * CycElem.from_poly(b, m)


class TestCycElem:
    def test_zeta_power_wraps(self):
        z = CycElem.zeta(5)
        assert z**5 == 1
        assert z**7 == z**2

    def test_sum_of_cube_roots(self):
        z = CycElem.zeta(3)
        assert 1 + z + z**2 == 0

    def test_cross_order_equality(self):
        z6 = CycElem.zeta(6)
        z3 = CycElem.zeta(3)
        assert z6**2 == z3

    def test_negative_power_raises(self):
        with pytest.raises(ValueError):
            CycElem.zeta(5) ** -1

    def test_rational_detection(self):
        z = CycElem.zeta(4)
        assert not (z + 1).is_rational
        assert (z**2).to_rational() == -1

    @settings(max_examples=60, deadline=None)
    @given(elems, elems, elems)
    def test_field_laws(self, a, b, c):
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def euclid_inverse(a: CycElem) -> CycElem:
    """Inverse in Q(zeta_m) by the extended Euclidean algorithm over Q[x].

    Phi_m is irreducible over Q, so every nonzero residue is a unit.
    """
    r0, r1 = PolyQ(a.coeffs), cyclotomic_polynomial(a.order)
    s0, s1 = PolyQ.one(), PolyQ.zero()
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    assert r0.degree == 0
    return CycElem.from_poly(s0 * (1 / r0.coeffs[0]), a.order)


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
        z = CycElem.zeta(12)
        e = 3 * z**2 + Fraction(1, 2)
        assert (e * Fraction(-7, 3)).rational_ratio(e) == Fraction(-7, 3)
        assert (e * z).rational_ratio(e) is None


class TestCycEmbed:
    def test_one(self):
        v = cyc_embed(CycElem.one(7), 64)
        with mp.workprec(80):
            assert mp.fabs(v - 1) < mp.mpf(2) ** -63

    def test_i(self):
        v = cyc_embed(CycElem.zeta(4), 64)
        with mp.workprec(80):
            assert mp.fabs(v - mp.mpc(0, 1)) < mp.mpf(2) ** -63

    def test_cube_root_sum(self):
        z = CycElem.zeta(3)
        v = cyc_embed(z + z**2, 64)
        with mp.workprec(80):
            assert mp.fabs(v + 1) < mp.mpf(2) ** -60

    def test_precision_scales(self):
        z = CycElem.zeta(9)
        coarse = cyc_embed(z, 64)
        fine = cyc_embed(z, 256)
        with mp.workprec(300):
            assert mp.fabs(coarse - fine) < mp.mpf(2) ** -60
            root = mp.expjpi(mp.mpf(2) / 9)
            assert mp.fabs(fine - root) < mp.mpf(2) ** -250

    def test_rejects_tiny_bits(self):
        with pytest.raises(ValueError):
            cyc_embed(CycElem.one(3), 8)
