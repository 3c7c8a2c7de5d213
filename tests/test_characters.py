"""Unit groups, character enumeration, values, conductors, orthogonality."""
from itertools import product
from math import gcd, lcm, prod

import pytest

from qeuler.characters import (
    DirichletCharacter,
    _zeta_powers,
    character_by_index,
    enumerate_characters,
    principal_character,
    unit_group,
)
from qeuler.cyclotomic import CycElem
from qeuler.errors import EvenModulus
from qeuler.numtheory import divisors, multiplicative_order, phi


def discrete_logs(group) -> list[tuple[int, tuple[int, ...]]]:
    """(prod_i g_i^{x_i} mod d, x) for every exponent tuple x with 0 <= x_i < o_i, from the generators and orders
    alone (d = 1: the empty product, 1 mod 1 = 0, with x = ())."""
    d = group.modulus
    return [(prod(pow(g, x, d) for g, x in zip(group.generators, xs)) % d, xs)
            for xs in product(*(range(o) for o in group.orders))]


class TestUnitGroup:
    def test_mod_nine(self):
        g = unit_group(9)
        assert g.generators == (2,)
        assert g.orders == (6,)
        assert multiplicative_order(2, 9) == 6

    def test_mod_fifteen(self):
        g = unit_group(15)
        assert g.orders == (2, 4)
        assert g.generators[0] % 3 == 2 and g.generators[0] % 5 == 1
        assert g.generators[1] % 3 == 1 and g.generators[1] % 5 == 2

    def test_mod_one(self):
        g = unit_group(1)
        assert g.generators == ()
        assert phi(1) == 1

    def test_even_rejected(self):
        with pytest.raises(EvenModulus):
            unit_group(10)

    @pytest.mark.parametrize("d", [3, 9, 15, 21, 45])
    def test_dlog_is_bijection(self, d):
        g = unit_group(d)
        units = [a for a in range(d) if gcd(a, d) == 1]
        assert sorted(a for a, _ in discrete_logs(g)) == units
        assert prod(g.orders) == phi(d)
        for o, order in zip(g.generators, g.orders):
            assert multiplicative_order(o, d) == order


class TestEnumeration:
    def test_mod_three(self):
        chars = enumerate_characters(3)
        assert len(chars) == 2
        assert chars[0].is_principal
        assert chars[1](2) == -1

    def test_mod_five_orders(self):
        assert [c.order for c in enumerate_characters(5)] == [1, 4, 2, 4]

    def test_mod_one(self):
        chars = enumerate_characters(1)
        assert len(chars) == 1
        assert chars[0](0) == 1 and chars[0](17) == 1

    @pytest.mark.parametrize("d", [3, 5, 9, 15, 45])
    def test_count_and_index_roundtrip(self, d):
        chars = enumerate_characters(d)
        assert len(chars) == phi(d)
        for k, chi in enumerate(chars):
            assert chi.index == k
            assert character_by_index(d, k) == chi


class TestValues:
    def test_quadratic_mod_three(self):
        chi = enumerate_characters(3)[1]
        assert chi(2) == -1

    def test_zero_on_nonunits(self):
        chi = enumerate_characters(9)[1]
        assert chi(0).is_zero() and chi(3).is_zero() and chi(6).is_zero()

    def test_principal_on_unit(self):
        assert principal_character(9)(4) == 1

    def test_value_order_divides(self):
        for d in (5, 9, 15):
            for chi in enumerate_characters(d):
                for a in range(d):
                    v = chi(a)
                    if not v.is_zero():
                        assert v ** chi.order == 1

    @pytest.mark.parametrize("d", list(range(1, 46, 2)))
    def test_complete_multiplicativity_on_units(self, d):
        units = list(range(d)) if d == 1 else [a for a in range(d) if gcd(a, d) == 1]
        for chi in enumerate_characters(d):
            for i, a in enumerate(units):
                ca = chi(a)
                for b in units[i:]:
                    assert chi(a * b) == ca * chi(b)


def dlog_exponents(chi):
    """The zeta_m exponent table by its definition: chi(a) = zeta_m^j with j = sum_i x_i e_i m / o_i
    at a = prod_i g_i^{x_i}, over every exponent tuple x of the unit group."""
    group, m = chi.group, chi.order
    table = [None] * chi.modulus
    for a, xs in discrete_logs(group):
        table[a] = sum(x * e * m // o for x, e, o in zip(xs, chi.exponents, group.orders)) % m
    return tuple(table)


@pytest.mark.parametrize("d", range(1, 256, 2))
def test_zeta_exponents_match_the_discrete_log(d):
    for chi in enumerate_characters(d):
        assert chi.zeta_exponents() == dlog_exponents(chi), chi.label


@pytest.mark.parametrize("m", range(1, 151))
def test_zeta_powers_are_each_power_reduced_from_scratch(m):
    expected = [CycElem(m, (0,) * j + (1,)) for j in range(m)]
    assert [(z.order, [(type(c), c) for c in z.coeffs]) for z in _zeta_powers(m)] == \
        [(z.order, [(type(c), c) for c in z.coeffs]) for z in expected]


class TestConductor:
    def test_principal(self):
        assert principal_character(9).conductor() == 1

    def test_lifted_quadratic(self):
        chars9 = enumerate_characters(9)
        quadratic = next(c for c in chars9 if c.order == 2)
        assert quadratic.conductor() == 3

    def test_full_order_character(self):
        chars9 = enumerate_characters(9)
        order6 = next(c for c in chars9 if c.order == 6)
        assert order6.conductor() == 9

    def test_primitive_mod_five(self):
        for chi in enumerate_characters(5):
            assert chi.conductor() == (1 if chi.is_principal else 5)

    def test_matches_divisor_scan(self):
        checked = 0
        for d in range(1, 64, 2):
            for chi in enumerate_characters(d):
                assert chi.conductor() == scanned_conductor(chi), chi
                checked += 1
        assert checked == 825


def scanned_conductor(chi):
    """Smallest f | d with chi(a) = 1 on every unit a = 1 mod f, by scanning the units."""
    d = chi.modulus
    for f in divisors(d):
        if all(chi(a) == 1 for a in range(1, d + 1) if gcd(a, d) == 1 and a % f == 1 % f):
            return f
    return d


def character_dot(chi, psi):
    """sum_a chi(a) * conj(psi)(a) over a mod d, in a common field."""
    d = chi.modulus
    conj = psi.conjugate()
    target = lcm(chi.order, conj.order)
    total = CycElem.zero(target)
    for a in range(max(d, 1)):
        total = total + chi(a) * conj(a)
    return total


@pytest.mark.parametrize("d", [3, 5, 9, 15])
def test_orthogonality(d):
    chars = enumerate_characters(d)
    for chi in chars:
        for psi in chars:
            expected = phi(d) if chi == psi else 0
            assert character_dot(chi, psi) == expected


def test_even_modulus_rejected_everywhere():
    with pytest.raises(EvenModulus):
        enumerate_characters(6)
    with pytest.raises(EvenModulus):
        DirichletCharacter(4, (0,))
