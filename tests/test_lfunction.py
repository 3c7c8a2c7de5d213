"""Numeric Eulerian L-values, interpolation at negative integers, Mellin terms."""
import signal
import sys
import time
import tracemalloc
from fractions import Fraction
from functools import reduce
from itertools import accumulate, count
from math import ceil, comb, floor, lgamma, log, log2

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp
from mpmath.libmp import from_int, from_man_exp, mpf_add, mpf_div, mpf_mul, mpf_neg, mpf_pos, round_nearest

from qeuler import lfunction
from qeuler.characters import character_by_index, enumerate_characters, principal_character
from qeuler.chi_eulerian import chi_eulerian, chi_eulerian_series_check, kernel_series_check
from qeuler.cyclotomic import cyc_embed
from qeuler.errors import ConvergenceDomain, DomainError
from qeuler.lfunction import (_boole_coefficients, _inverse_powers, _partial_sum, _working_prec, l_eulerian,
                              mellin_term_check, verify_interpolation)
from qeuler.numerics import (_pair, _round, alternating_character_sum, choose_truncation, decay_index,
                             integer_powers, numeric_check, to_mpc, to_mpf)
from qeuler.numtheory import phi

QUAD3 = enumerate_characters(3)[1]
MOD1 = principal_character(1)
OVER_BUDGET = r"^s = .*: no route fits the work budget of \d+ terms$"


def assert_close(value, expected, bits=100):
    with mp.workprec(bits + 32):
        assert mp.fabs(value - expected) < mp.mpf(2) ** (-bits)


class TestLEulerian:
    def test_spot_zero(self):
        lv = l_eulerian(0, QUAD3, 2, 128)
        assert_close(lv.value, -4)

    def test_spot_minus_one(self):
        lv = l_eulerian(-1, QUAD3, 2, 128)
        assert_close(lv.value, -12)

    def test_modulus_one_geometric(self):
        # q(1+q) * sum_{m>=1} (-1/q)^m = -q
        lv = l_eulerian(0, MOD1, 2, 128)
        assert_close(lv.value, -2)

    def test_tail_bound_is_rigorous(self):
        lv = l_eulerian(Fraction(-3), QUAD3, Fraction(7, 2), 128)
        fine = l_eulerian(Fraction(-3), QUAD3, Fraction(7, 2), 192)
        with mp.workprec(256):
            assert mp.fabs(lv.value - fine.value) <= lv.tail_bound + mp.mpf(2) ** -120

    def test_stability_under_refinement(self):
        coarse = l_eulerian(Fraction(1, 2), QUAD3, 2, 96)
        fine = l_eulerian(Fraction(1, 2), QUAD3, 2, 160)
        with mp.workprec(200):
            assert mp.fabs(coarse.value - fine.value) <= 2 * coarse.tail_bound + mp.mpf(2) ** -90

    @pytest.mark.parametrize("height", [10**25, 10**40])
    def test_tail_bound_holds_at_large_imaginary_part(self, height):
        # the phases of m^-s and (1+q)^{1-s} lose log2(|Im s| log M) bits; the working precision adds them
        coarse = l_eulerian((1, height), QUAD3, 2, 64)
        fine = l_eulerian((1, height), QUAD3, 2, 512)
        with mp.workprec(600):
            slack = mp.mpf(2) ** (8 - 64) * max(1, mp.fabs(fine.value))
            assert mp.fabs(coarse.value - fine.value) <= coarse.tail_bound + slack

    def test_working_precision_grows_only_past_the_threshold(self):
        # |Im s| log 128 is 4.9e8 < 2^32 at Im s = 10^8 and 4.9e9 < 2^33 at 10^9
        assert _working_prec(complex(0.5, 1e8), 128, Fraction(2), 128) == 192
        assert _working_prec(complex(0.5, 1e9), 128, Fraction(2), 128) == 193
        assert _working_prec(Fraction(-3), 10**6, Fraction(2), 128) == 192

    def test_real_character_real_value(self):
        for s in (Fraction(2), Fraction(-4)):
            lv = l_eulerian(s, QUAD3, 3, 128)
            with mp.workprec(160):
                assert mp.fabs(lv.value.imag) <= lv.tail_bound + mp.mpf(2) ** -110

    def test_complex_s(self):
        lv = l_eulerian(complex(0.5, 1.0), QUAD3, 2, 96)
        assert lv.terms >= 16

    def test_convergence_domain(self):
        with pytest.raises(ConvergenceDomain, match="Re s > 0"):
            l_eulerian(0, QUAD3, 1, 128)
        with pytest.raises(ConvergenceDomain, match="Re s > 0"):
            l_eulerian(complex(-0.5, 2), QUAD3, 1, 128)
        with pytest.raises(ConvergenceDomain, match="q > 1"):
            l_eulerian(Fraction(1, 2), QUAD3, Fraction(9, 10), 128)
        # 1/|Gamma(1/2 + 10^5 i)| ~ e^{50000 pi}: no plan fits the work budget, and no partial sum
        # certifies
        with pytest.raises(ConvergenceDomain, match=OVER_BUDGET):
            l_eulerian(complex(0.5, 1e5), QUAD3, 1, 128)

    @pytest.mark.parametrize("s", [Fraction(-2**22 - 1, 2**11), -10**300])
    def test_real_part_outside_the_summed_range_is_refused(self, s):
        # below -2^11 the partial sum would take more than 2^12 terms of exact m^|Re s|; it is
        # refused before any sum
        with pytest.raises(ConvergenceDomain, match=r"^s = .* Re s >= -2\^11$"):
            l_eulerian(s, QUAD3, 2, 128)

    def test_large_real_parts_inside_the_range_are_summed(self):
        lv = l_eulerian(10**6, QUAD3, 2, 128)
        assert (lv.method, lv.terms) == ("boole", 3)
        assert l_eulerian(-2**9, QUAD3, 2, 64).method == "partial-sum"

    @pytest.mark.parametrize("s", [10**9, (10**9, 1), 2**30, 2**30 + 1, 10**12, 10**18, 10**100, (10**12, 1),
                                   (Fraction(10**300), Fraction(1))])
    def test_huge_real_parts_take_little_memory(self, s):
        # the m = 2 term lies 2^-Re s below the m = 1 term, and the sum does not add a product
        # more than 2 prec + 2 bits below it, so no integer is shifted by Re s bits (tracemalloc's
        # peak was 657 MB at s = 10^9); the sum is still bit for bit the mpc loop's, and the value
        # is the head m <= 7 by mp.power with the log2 |s| bits that the exponents take
        chi, q = largest_order_character(7), Fraction(2)
        tracemalloc.start()
        try:
            lv = l_eulerian(s, chi, q, 128)
            with mp.workprec(192):
                s_val = to_mpc(s)
                got = alternating_character_sum(chi, q, 128, 64, _inverse_powers(s_val, 64))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 22
        assert (lv.method, lv.terms) == ("boole", 7)
        with mp.workprec(192):
            assert got._mpc_ == term_by_term(chi, q, 128, 64, multiplicative_powers(s_val))._mpc_
        with mp.workprec(256 + 2 * mp.mag(to_mpc(s))):
            s_val = to_mpc(s)
            head = sum((-1) ** m * cyc_embed(chi(m), mp.prec) * to_mpf(q) ** -m * mp.power(m, -s_val)
                       for m in range(1, 8))
            reference = to_mpf(q) * mp.power(to_mpf(1 + q), 1 - s_val) * head
            assert mp.fabs(lv.value - reference) <= lv.tail_bound

    def test_q_too_close_to_one_for_a_partial_sum(self):
        # 64 doublings of M cannot certify the partial sum's tail at q - 1 = 10^-21; the Boole
        # route sums it on both sides of Re s = 0, and at Re s <= 0 its value lies next to the
        # q = 1 continuation 2^{1-s} (2^{1-s} chi(2) - 1) L(s, chi)
        q = Fraction(10**21 + 1, 10**21)
        lv = l_eulerian(complex(0.5, 1), QUAD3, q, 128)
        assert lv.method == "boole"
        at_one = l_eulerian(complex(0.5, 1), QUAD3, 1, 128)
        with mp.workprec(192):
            assert lv.tail_bound < mp.mpf(2) ** -124
            assert 0 < mp.fabs(lv.value - at_one.value) < mp.mpf(10) ** -19
        lv = l_eulerian(complex(-0.5, 1), QUAD3, q, 128)
        assert lv.method == "boole"
        with mp.workprec(192):
            s_val = mp.mpc(-0.5, 1)
            two = mp.power(2, 1 - s_val)
            values = [cyc_embed(QUAD3(a), 192) for a in range(3)]
            continuation = two * (two * values[2] - 1) * mp.dirichlet(s_val, values)
            assert lv.tail_bound < mp.mpf(2) ** -124
            assert 0 < mp.fabs(lv.value - continuation) < mp.mpf(10) ** -19


class TestInterpolation:
    @pytest.mark.parametrize("n", range(9))
    def test_quadratic_mod3(self, n):
        assert verify_interpolation(n, QUAD3, 2, 128).passed

    def test_spot_values(self):
        r0 = verify_interpolation(0, QUAD3, 2, 128)
        r1 = verify_interpolation(1, QUAD3, 2, 128)
        assert_close(r0.lhs, -4)
        assert_close(r1.lhs, -12)
        assert_close(r1.rhs, -12)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_modulus_one_positive_n(self, n):
        assert verify_interpolation(n, MOD1, 2, 128).passed

    def test_modulus_one_n0_measured_offset(self):
        # the L-series starts at m = 1, so at d = 1, n = 0 it misses the
        # m = 0 term: L(0) = A_0 - q(1+q) = -q, not A_0 = q^2
        for q in (Fraction(2), Fraction(3), Fraction(7, 2)):
            report = verify_interpolation(0, MOD1, q, 128)
            assert not report.passed
            expected = chi_eulerian(0, MOD1, q).to_rational() - q * (1 + q)
            assert_close(report.lhs, expected)

    def test_complex_character(self):
        chi = enumerate_characters(5)[1]
        for n in (0, 2, 5):
            assert verify_interpolation(n, chi, Fraction(7, 2), 128).passed

    def test_order_six_character(self):
        chi = next(c for c in enumerate_characters(9) if c.order == 6)
        assert verify_interpolation(3, chi, 3, 128).passed


class TestMellinTerm:
    def test_exact_one_ninth(self):
        report = mellin_term_check(2, 1, 2, 128)
        assert report.passed
        with mp.workprec(160):
            assert mp.fabs(report.lhs - mp.mpf(1) / 9) < mp.mpf(2) ** -64

    def test_quarter(self):
        report = mellin_term_check(1, 2, 1, 128)
        assert report.passed
        with mp.workprec(160):
            assert mp.fabs(report.lhs - mp.mpf(1) / 4) < mp.mpf(2) ** -64

    def test_three_halves(self):
        report = mellin_term_check(Fraction(3, 2), 1, 2, 128)
        assert report.passed
        with mp.workprec(160):
            assert mp.fabs(report.rhs - mp.power(3, mp.mpf(-1.5))) < mp.mpf(2) ** -64

    def test_domain_error(self):
        with pytest.raises(DomainError):
            mellin_term_check(0, 1, 2, 64)
        with pytest.raises(DomainError):
            mellin_term_check(Fraction(-1), 1, 2, 64)

    # mp.quad evaluates at 20 bits above the working precision and rounds its sum once, so
    # the real and the complex t^(s-1), which may round a node differently at that precision,
    # still give the same integral.  These s take the quadrature on [0, T], as the complex
    # integrand does; Re s < 1 integrates its head term by term (the next test).
    @pytest.mark.parametrize("s,m,q,bits", [
        pytest.param(s, m, q, bits, id=f"s{s}-m{m}-q{q}-{bits}bits".replace("/", "_"))
        for s in (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(7))
        for m in (1, 2, 3) for q in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(7, 2))
        for bits in (64, 128, 192)])
    def test_real_integrand_is_the_complex_one_bit_for_bit(self, s, m, q, bits):
        got, want = mellin_term_check(s, m, q, bits), complex_mellin_term_check(s, m, q, bits)
        assert [mp.mpc(x)._mpc_ for x in (got.lhs, got.rhs, got.bound)] == \
            [mp.mpc(x)._mpc_ for x in (want.lhs, want.rhs, want.bound)]
        assert got.passed == want.passed

    # at real s the integrand runs on raw libmp values; at every node, at the precision mp.quad
    # raises to, it must give the bits of the mpf expression
    @pytest.mark.parametrize("s,q,bits", [
        pytest.param(s, q, bits, id=f"s{s}-q{q}-{bits}bits".replace("/", "_"))
        for s in (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7))
        for q in (Fraction(0), Fraction(1, 2), Fraction(2)) for bits in (64, 128, 192)])
    def test_raw_integrand_is_the_mpf_expression_node_for_node(self, monkeypatch, s, q, bits):
        quad, precs = mp.quad, []
        with mp.workprec(bits + 48):
            exponent, rate = to_mpf(s) - 1, 2 * to_mpf(1 + q)  # both exact

        def checked_quad(f, *args, **kwargs):
            def checked(t):
                precs.append(mp.prec)
                got = f(t)
                assert got._mpf_ == (mp.power(t, exponent) * mp.exp(-rate * t))._mpf_
                return got
            return quad(checked, *args, **kwargs)

        monkeypatch.setattr(mp, "quad", checked_quad)
        assert mellin_term_check(s, 2, q, bits).passed
        assert len(precs) > 100 and min(precs) > bits + 48

    # at 0 < s < 1, t^(s-1) is unbounded at 0, where the quadrature alone stopped at its top
    # degree short of 2^(-bits/2); the series head brings it to within rounding
    @pytest.mark.parametrize("s,m,q,bits", [
        pytest.param(s, m, q, bits, id=f"s{s}-m{m}-q{q}-{bits}bits".replace("/", "_"))
        for s in (Fraction(1, 3), Fraction(1, 2))
        for m in (1, 2, 3) for q in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(7, 2))
        for bits in (64, 128, 192)])
    def test_singular_integrand_within_rounding(self, s, m, q, bits):
        report = mellin_term_check(s, m, q, bits)
        assert report.passed
        with mp.workprec(bits + 64):
            assert mp.fabs(report.lhs - report.rhs) <= mp.mpf(2) ** (8 - bits) * mp.fabs(report.rhs)

    def test_complex_s_keeps_the_complex_integrand(self):
        s = (Fraction(3, 2), Fraction(2))
        got, want = mellin_term_check(s, 2, Fraction(1, 2), 128), complex_mellin_term_check(s, 2, Fraction(1, 2), 128)
        assert got.passed and want.passed
        assert (got.lhs._mpc_, got.rhs._mpc_) == (want.lhs._mpc_, want.rhs._mpc_)


def complex_mellin_term_check(s, m_index, q, bits):
    """``mellin_term_check`` with the complex integrand t^(s-1) e^(-m(1+q)t) at every s,
    s - 1 formed on each call."""
    qf = Fraction(q)
    with mp.workprec(bits + 48):
        s_val = to_mpc(s)
        rate = m_index * to_mpf(1 + qf)
        T = (bits + 64) * mp.ln(2) / rate
        integral = mp.quad(lambda t: mp.power(t, s_val - 1) * mp.exp(-rate * t), [0, T], maxdegree=12)
        return numeric_check(integral / mp.gamma(s_val), mp.power(rate, -s_val), mp.mpf(2) ** (-(bits // 2)))


def mul_once(x, y):
    """x * y for mpc x and y, each part formed exactly and rounded once at mp.prec.

    mpc_mul can round a part differently: mpf_add lets a much smaller exact
    product count only as a sticky bit."""
    (a, b), (c, d) = mp.mpc(x)._mpc_, mp.mpc(y)._mpc_
    re = mpf_add(mpf_mul(a, c), mpf_neg(mpf_mul(b, d)), 0)
    im = mpf_add(mpf_mul(a, d), mpf_mul(b, c), 0)
    return mp.make_mpc((mpf_pos(re, mp.prec, round_nearest), mpf_pos(im, mp.prec, round_nearest)))


def power_once(x, n):
    """x^n for an mpf x and n >= 0, formed exactly and rounded once at mp.prec,
    where mpf_pow_int rounds on the way once the exact power has 1,000 bits."""
    sign, man, exp, _ = x._mpf_
    return mp.make_mpf(from_man_exp((-man if sign else man) ** n, exp * n, mp.prec, round_nearest))


def term_by_term(chi, q, bits, M, term, start=1):
    """The alternating character series as a plain mpc loop: chi embedded at
    bits + 32 and every term (-1)^m * chi(m) * term(m) * q^{-m} evaluated with
    mpmath's number types, the complex product chi(m) * term(m) by ``mul_once``.
    ``alternating_character_sum`` must agree with it bit for bit."""
    d = max(chi.modulus, 1)
    table = [cyc_embed(chi(a), bits + 32) for a in range(d)]
    qinv = to_mpf(1 / Fraction(q))
    weight = mp.mpf(1)
    acc = mp.mpc(0)
    for m in range(M + 1):
        cval = table[m % d]
        if m >= start and cval:
            acc += mul_once((-1) ** m * cval, term(m)) * weight
        weight *= qinv
    return acc


def oracle_l_value(s, chi, q, bits, powers=None):
    """L_E(s | chi) from ``term_by_term``, with m^-s from ``powers(s)`` or else one
    ``mp.power(m, -s)`` per term."""
    with mp.workprec(bits + 64):
        s_val = to_mpc(s)
        M, _ = choose_truncation(max(mp.mpf(0), -s_val.real), q, bits - 4)
        power = powers(s_val) if powers else lambda m: mp.power(m, -s_val)
        acc = term_by_term(chi, q, bits, M, power)
        return +(to_mpf(q) * mp.power(to_mpf(1 + q), 1 - s_val) * acc)


def prime_factors(m):
    """The prime factors of m, with multiplicity, in increasing order."""
    factors, p = [], 2
    while p * p <= m:
        while m % p == 0:
            factors.append(p)
            m //= p
        p += 1
    return factors + [m] if m > 1 else factors


def multiplicative_powers(s_val):
    """m -> m^{-s} as mpc: ``mp.mpc(p) ** -s`` once per prime, a composite the
    product of its prime factors' powers from the smallest up, each product
    one ``mul_once``."""
    cache = {}

    def prime_power(p):
        if p not in cache:
            cache[p] = mp.mpc(p) ** -s_val
        return cache[p]

    return lambda m: reduce(mul_once, map(prime_power, prime_factors(m)), mp.mpc(1))


def largest_order_character(d):
    return max(enumerate_characters(d), key=lambda c: c.order)


# ORACLE_GRID points where the partial sum's terms are below the Boole price at Re s > 0: q = 2 at
# moduli 5-15, all but one at s = 1/2+14i, where 1/|Gamma(s)| ~ 2^31 lengthens the Boole tail
PARTIAL_SUM_CORNERS = 8
ORACLE_GRID = [pytest.param(d, q, bits, id=f"mod{d}-q{q.numerator}_{q.denominator}-{bits}bits")
               for d in (1, 3, 5, 7, 9, 15)
               for q in (Fraction(2), Fraction(7, 2), Fraction(11, 10), Fraction(21, 20))
               for bits in (64, 128, 256)]


class TestTermByTermOracle:
    """The integer-pair loop and the multiplicative m^{-s} against the mpc loop."""

    @staticmethod
    def assert_real_terms_bit_identical(chi, q, bits, ns):
        for n in ns:
            with mp.workprec(bits + 64):
                M, _ = choose_truncation(n, q, bits - 4)
                series = term_by_term(chi, q, bits, M, lambda m: mp.mpf(m) ** n)
                opq = to_mpf(1 + q)
                kernel = term_by_term(chi, q, bits, M, lambda m: power_once(-(mp.mpf(m)) * opq, n), start=0)
                kernel *= to_mpf(q * (1 + q))
            assert chi_eulerian_series_check(n, chi, q, bits).rhs._mpc_ == series._mpc_
            assert kernel_series_check(n, chi, q, bits).rhs._mpc_ == kernel._mpc_
            assert l_eulerian(-n, chi, q, bits).value._mpc_ == oracle_l_value(-n, chi, q, bits)._mpc_

    @pytest.mark.parametrize("d,q,bits", ORACLE_GRID)
    def test_series_forms_and_negative_integers_are_bit_identical(self, d, q, bits):
        self.assert_real_terms_bit_identical(largest_order_character(d), q, bits, (0, 3))

    @pytest.mark.parametrize("d", [11, 13])
    def test_long_real_parts_are_bit_identical(self, d):
        # on ORACLE_GRID every chi(m) has real part 0, +-1 or +-1/2, so chi(m) * term(m)
        # is exact for short terms; orders 10 and 12 give long ones.  At n = 9 the
        # kernel's (-m(1+q))^9 has over 1,000 bits before it is rounded.
        chi = largest_order_character(d)
        self.assert_real_terms_bit_identical(chi, Fraction(11, 10), 128, (0, 3, 9))

    @pytest.mark.parametrize("n", [0, 14, 16])
    def test_exact_powers_end_where_m_to_the_n_outgrows_the_precision(self, n):
        # at 64 bits (working precision 128) and q = 2 the series runs to M = 64, 240 and 272:
        # 240^14 has 111 bits and 272^16 has 130, and on both sides of the precision m^n is
        # the exact power rounded once
        q, bits = Fraction(2), 64
        with mp.workprec(bits + 64):
            prec = mp.prec
            M, _ = choose_truncation(n, q, bits - 4)
            assert ((M**n).bit_length() <= prec) == (n < 16)
            power = _inverse_powers(mp.mpc(-n), M)
            assert all(power(m) == _round(m**n, 0, prec) for m in range(1, M + 1))
        for d in (1, 3, 5, 7, 11):
            chi = largest_order_character(d)
            reference = oracle_l_value(-n, chi, q, bits, lambda s_val: lambda m: mp.mpf(m) ** n)
            assert l_eulerian(-n, chi, q, bits).value._mpc_ == reference._mpc_

    @pytest.mark.parametrize("d,q,bits", ORACLE_GRID)
    def test_complex_s_within_relative_rounding(self, d, q, bits):
        # Re s <= 0: the partial sum is the engine pinned here, and l_eulerian takes the route
        # the documented rule names
        chi = largest_order_character(d)
        s = complex(-0.5, 3) if (d + bits) % 2 else complex(-2, 5)
        lv = l_eulerian(s, chi, q, bits)
        assert (lv.method, lv.terms) == boole_route(s, chi, q, bits)
        value = _partial_sum(s, chi, q, bits).value
        reference = oracle_l_value(s, chi, q, bits)
        with mp.workprec(bits + 96):
            assert mp.fabs(value - reference) <= mp.mpf(2) ** -(bits + 32) * mp.fabs(reference)


    @pytest.mark.parametrize("d,q,bits", ORACLE_GRID)
    def test_complex_s_is_bit_identical(self, d, q, bits, monkeypatch):
        # the partial sum at Re s <= 0, and at Re s > 0 the Boole head and (K > 0) tail, each tail
        # term m^-s times its polynomial in 1/m, rounded once from the exact Horner value
        chi = largest_order_character(d)
        s = complex(-0.5, 3) if (d + bits) % 2 else complex(-2, 5)
        reference = oracle_l_value(s, chi, q, bits, multiplicative_powers)
        assert _partial_sum(s, chi, q, bits).value._mpc_ == reference._mpc_
        s = complex(2, -3) if (d + bits) % 2 else complex(0.5, 14)
        plans, plan = [], lfunction._boole_plan
        monkeypatch.setattr(lfunction, "_boole_plan", lambda *args: plans.append(plan(*args)) or plans[-1])
        monkeypatch.setattr(lfunction, "choose_truncation", uncertified)
        lv = l_eulerian(s, chi, q, bits)
        (J, K), head = plans[-1], d * plans[-1][0]
        assert lv.method == "boole"
        with mp.workprec(_working_prec(s, head + d if K else head, q, bits)):
            s_val, prec = to_mpc(s), mp.prec
            power = multiplicative_powers(s_val)
            coefficients = _boole_coefficients(s_val, q, d, K, prec) if K else []

            def term(m):
                if m <= head:
                    return power(m)
                re, im = (sum(c[i] * m ** (K - 1 - k) for k, c in enumerate(coefficients)) for i in (0, 1))
                f = [mpf_div(from_man_exp(x, -prec), from_int(m ** (K - 1)), prec, round_nearest) for x in (re, im)]
                return mul_once(power(m), mp.make_mpc(tuple(f)))

            acc = term_by_term(chi, q, prec - 32, head + d if K else head, term)  # chi at prec
            reference = +(to_mpf(q) * mp.power(to_mpf(1 + q), 1 - s_val) * acc)
        assert lv.value._mpc_ == reference._mpc_


TERM_SHAPES = ("m^n", "(-m(1+q))^n", "m^n + i(-m(1+q))^k", "m^-s")


@st.composite
def kernel_cases(draw, max_m=200):
    """chi of odd modulus <= 15, q = a/b in (1, 4], 64-320 bits, M <= max_m, start, and a term
    shape with its exponents n, k <= 12 and s."""
    b = draw(st.integers(1, 60))
    q = Fraction(draw(st.integers(b + 1, 4 * b)), b)
    chi = draw(st.sampled_from(enumerate_characters(draw(st.sampled_from(range(1, 16, 2))))))
    shape = draw(st.sampled_from(TERM_SHAPES))
    start = 1 if shape == "m^-s" else draw(st.sampled_from((0, 1)))
    s = complex(draw(st.integers(-8, 8)) / 2, draw(st.integers(1, 40)) * draw(st.sampled_from((-1, 1))))
    return (chi, q, draw(st.integers(64, 320)), draw(st.integers(1, max_m)), start, shape,
            draw(st.integers(0, 12)), draw(st.integers(0, 12)), s)


@settings(max_examples=200, deadline=None)
@given(kernel_cases())
# a real character, and an order-12 one, with (-m(1+q))^12 of over 1,000 bits before it is rounded
@example((next(c for c in enumerate_characters(5) if c.order == 2), Fraction(11, 10), 128, 200, 0,
          "(-m(1+q))^n", 12, 0, 0j))
@example((largest_order_character(13), Fraction(21, 20), 256, 200, 1, "m^n + i(-m(1+q))^k", 3, 12, 0j))
# exact ties, one at each product rounding of the loop body (q^-m included):
# rounding a tie up instead of to even at that site changes the sum
@example((character_by_index(11, 4), Fraction(4, 3), 136, 14, 1, "(-m(1+q))^n", 1, 0, 0j))
@example((character_by_index(3, 1), Fraction(3, 2), 181, 108, 1, "m^n + i(-m(1+q))^k", 11, 2, 0j))
@example((MOD1, Fraction(54, 53), 80, 183, 0, "m^n", 1, 8, 0j))
@example((character_by_index(15, 6), Fraction(8, 7), 239, 139, 1, "(-m(1+q))^n", 8, 8, 0j))
@example((character_by_index(3, 1), Fraction(8, 7), 243, 118, 0, "m^n + i(-m(1+q))^k", 11, 1, 0j))
@example((character_by_index(11, 6), Fraction(4, 3), 76, 135, 0, "(-m(1+q))^n", 1, 12, 0j))
@example((character_by_index(13, 6), Fraction(3, 2), 180, 183, 0, "(-m(1+q))^n", 2, 12, 0j))
@example((character_by_index(7, 5), Fraction(4, 3), 116, 69, 0, "m^n", 1, 7, 0j))
@example((character_by_index(7, 5), Fraction(16, 9), 140, 151, 0, "(-m(1+q))^n", 1, 2, 0j))
@example((MOD1, Fraction(3, 2), 256, 78, 1, "m^n + i(-m(1+q))^k", 1, 9, 0j))
@example((MOD1, Fraction(8, 5), 140, 100, 1, "m^n + i(-m(1+q))^k", 12, 1, 0j))
# exactly zero parts, which the loop skips: chi(2) = i with a real term, and term(0) = 0^n + 0i at modulus 1
@example((character_by_index(5, 1), Fraction(7, 5), 128, 60, 1, "m^n", 3, 0, 0j))
@example((MOD1, Fraction(5, 4), 96, 80, 0, "m^n + i(-m(1+q))^k", 2, 3, 0j))
def test_kernel_matches_term_by_term(case):
    """``alternating_character_sum`` on integer pairs is bit for bit the mpc loop, for every term shape."""
    chi, q, bits, M, start, shape, n, k, s = case
    with mp.workprec(bits + 64):
        prec = mp.prec
        opq = to_mpf(1 + q)
        om, oe = _pair(opq._mpf_, prec)

        def kernel_pair(m, e):  # (-m(1+q))^e as kernel_series_check forms it
            man, exp = _round(-m * om, oe, prec)
            return _round(man**e, exp * e, prec)

        def kernel_value(m, e):
            return power_once(-(mp.mpf(m)) * opq, e)

        if shape == "m^-s":
            s_val = to_mpc(s)
            pair, value = _inverse_powers(s_val, M), multiplicative_powers(s_val)
        elif shape == "m^n":
            pair, value = (lambda m: _round(m**n, 0, prec)), (lambda m: mp.mpf(m) ** n)
        elif shape == "(-m(1+q))^n":
            pair, value = (lambda m: kernel_pair(m, n)), (lambda m: kernel_value(m, n))
        else:
            pair = lambda m: (*_round(m**n, 0, prec), *kernel_pair(m, k))
            value = lambda m: mp.mpc(mp.mpf(m) ** n, kernel_value(m, k))
        got = alternating_character_sum(chi, q, bits, M, pair, start)
        want = term_by_term(chi, q, bits, M, value, start)
    assert got._mpc_ == want._mpc_


def shape_term(shape, q, M, n, k, s):
    """term(m) for 0 <= m <= M in a ``TERM_SHAPES`` shape, formed as the kernel's callers form it,
    and its decay index."""
    prec = mp.prec
    om, oe = _pair(to_mpf(1 + q)._mpf_, prec)

    def kernel_pair(m, e):  # (-m(1+q))^e
        man, exp = _round(-m * om, oe, prec)
        return _round(man**e, exp * e, prec)

    if shape == "m^-s":
        s_val = to_mpc(s)
        return _inverse_powers(s_val, M), decay_index(max(0, -s_val.real), q)
    if shape == "m^n":
        return integer_powers(n, M), decay_index(n, q)
    if shape == "(-m(1+q))^n":
        return (lambda m: kernel_pair(m, n)), decay_index(n, q)
    power = integer_powers(n, M)  # |term|^2 is a sum of two squares, each falling past its index
    return (lambda m: (*power(m), *kernel_pair(m, k))), decay_index(max(n, k), q)


@settings(max_examples=100, deadline=None)
@given(kernel_cases(max_m=2000))
# cancellation: at n = 30, q = 2 the terms reach 2^120 and the sum is about 2^55, so the stop
# waits for terms below the smaller sum's ulp, at m = 384 (320 for the quadratic character)
@example((MOD1, Fraction(2), 64, 2000, 1, "m^n", 30, 0, 0j))
@example((QUAD3, Fraction(2), 64, 2000, 0, "m^n", 30, 0, 0j))
# complex terms and an order-12 character: the stop comes at m = 256
@example((largest_order_character(13), Fraction(2), 128, 2000, 1, "m^-s", 0, 0, complex(-4, 3)))
def test_the_stop_at_the_decay_index_is_bit_for_bit(case):
    """The sum that stops once no remaining term can change it is the sum to M."""
    chi, q, bits, M, start, shape, n, k, s = case
    with mp.workprec(bits + 64):
        term, decay = shape_term(shape, q, M, n, k, s)
        stopped = alternating_character_sum(chi, q, bits, M, term, start, decay)
        full = alternating_character_sum(chi, q, bits, M, term, start)
    assert stopped._mpc_ == full._mpc_


def pair_value(v):
    """A term's (man, exp) pairs as an exact mpf or mpc."""
    parts = [mp.make_mpf(from_man_exp(*v[i:i + 2])) for i in range(0, len(v), 2)]
    return mp.mpc(*parts) if len(parts) == 2 else parts[0]


def cancelled_head(m):
    """1 at m >= 2, and at m = 1 twice sum_{2<=j<=64} (-1)^j 2^-j, so at q = 2 the sum to 64 is 0."""
    if m > 1:
        return (1, 0)
    return (2 * sum((-1) ** j << (64 - j) for j in range(2, 65)), -64)


@pytest.mark.parametrize("chi,q,decay,term,part", [
    # real chi, real terms below the index and complex ones from it on, whose imaginary parts
    # are 0 until m = 150: at m = 128 the real sum is ready to stop and the imaginary one is 0
    pytest.param(QUAD3, Fraction(4), 64, lambda m: (1, 0) if m < 64 else (1, 0, int(m >= 150), 0), "imag",
                 id="zero-imaginary-part"),
    # exact cancellation: the real sum is 0 at m = 64, and the terms after it make the sum
    pytest.param(MOD1, Fraction(2), 2, cancelled_head, "real", id="cancelled-to-zero"),
    # the real parts 2^300 q^-1 and 2^302 q^-2 cancel, and real parts come back at m = 150; the
    # zero real sum keeps the exponent of 2^298 meanwhile, far above the terms
    pytest.param(MOD1, Fraction(4), 3, lambda m: (4**m << 298, 0, 0, 0) if m < 3 else (int(m >= 150), 0, 1, 0),
                 "real", id="cancelled-far-above"),
])
def test_a_zero_accumulator_blocks_the_stop(chi, q, decay, term, part):
    bits, M = 64, 200
    calls = []

    def counted(m):
        calls.append(m)
        return term(m)

    with mp.workprec(bits + 64):
        stopped = alternating_character_sum(chi, q, bits, M, counted, 1, decay)
        full = alternating_character_sum(chi, q, bits, M, term)
        want = term_by_term(chi, q, bits, M, lambda m: pair_value(term(m)))
    assert max(calls) > 128
    assert stopped._mpc_ == full._mpc_ == want._mpc_
    assert getattr(stopped, part)


@pytest.mark.parametrize("decay", [None, decay_index(2, Fraction(3, 2))], ids=["to-M", "decay-index"])
@pytest.mark.parametrize("mixed", [False, True], ids=["real", "mixed-shapes"])
def test_each_term_is_computed_once(mixed, decay):
    # the loop checks each term's shape as it comes, so no term is computed twice, and
    # real and complex terms may alternate within one sum; with the decay index of m^2 q^-m
    # the loop evaluates the terms up to its stop, past a multiple of 64, and no further
    chi, q, bits, M = largest_order_character(7), Fraction(3, 2), 128, 600
    calls = []

    def pair(m):
        calls.append(m)
        return (m**2, 0, -m, 0) if mixed and m % 3 == 0 else (m**2, 0)

    with mp.workprec(bits + 64):
        got = alternating_character_sum(chi, q, bits, M, pair, decay=decay)
        want = term_by_term(chi, q, bits, M, lambda m: mp.mpc(m**2, -m) if mixed and m % 3 == 0 else mp.mpf(m**2))
    stop = M if decay is None else calls[-1]
    assert calls == [m for m in range(1, stop + 1) if chi(m % 7)]
    assert decay is None or stop < M and stop % 64 in (0, 1)  # chi(64 k) = 0 when 7 | k
    assert got._mpc_ == want._mpc_


@pytest.mark.parametrize("chi", [enumerate_characters(7)[0], largest_order_character(7)], ids=["principal", "order-6"])
def test_the_stop_shortens_the_interpolation_and_series_sums(chi, monkeypatch):
    # at modulus 7, q = 21/20, 256 bits and n = 7 both sums run to M = 8,192 and certify
    # that M, but no term past m = 5,632 can change the sum, so fewer are evaluated
    q, bits, n = Fraction(21, 20), 256, 7
    M = choose_truncation(n, q, bits - 4)[0]
    calls = []

    def counted(chi, q, bits, M, term, start=1, decay=None):
        def each(m):
            calls.append(m)
            return term(m)
        return alternating_character_sum(chi, q, bits, M, each, start, decay)

    monkeypatch.setattr(lfunction, "alternating_character_sum", counted)
    monkeypatch.setattr(sys.modules["qeuler.chi_eulerian"], "alternating_character_sum", counted)
    for check in (verify_interpolation, chi_eulerian_series_check):
        calls.clear()
        result = check(n, chi, q, bits)
        assert result.passed and result.terms == M == 8192
        assert len(set(calls)) == len(calls) < 0.75 * M


def chebyshev_weights(n, q, d):
    """lambda_k = sum_{i>k} |C_i| / sum_i |C_i| (k < n) as (man, exp) pairs, T_n(1 - 2 q^d x) = sum C_i x^i.

    sum_j (-1)^j b_j = sum_{k<n} (-1)^k lambda_k b_k + remainder for moments on [0, q^{-d}].
    The c_i of T_n(1 - 2y) alternate in sign, with c_0 = 1 and |c_{i+1}/c_i| =
    2 (n+i)(n-i) / ((2i+1)(i+1)); for q = u/v each |C_i| v^{dn} is an integer.
    """
    ud, vd = q.numerator ** d, q.denominator ** d
    c, g = 1, vd**n  # |c_i| and u^{di} v^{d(n-i)}
    scaled = []
    for i in range(n + 1):
        scaled.append(c * g)
        c = c * 2 * (n + i) * (n - i) // ((2 * i + 1) * (i + 1))
        g = g * ud // vd
    total, tails = from_int(sum(scaled)), reversed(list(accumulate(reversed(scaled[1:]))))
    return [_pair(mpf_div(from_int(tail), total, mp.prec, round_nearest), mp.prec) for tail in tails]


def chebyshev_l_value(s, chi, q, bits):
    """(value, bound, terms) of L_E(s | chi) at Re s > 0, q >= 1, by residue classes with
    Chebyshev weights: the oracle of the Boole route at Re s > 0.

    As d is odd, (-1)^{a+dj} = (-1)^a (-1)^j, and by the Mellin transform the class terms
    r^j (a+dj)^{-s}, r = q^{-d}, are the moments on [0, r] of a measure of total variation
    Gamma(sigma) a^{-sigma} / |Gamma(s)|, sigma = Re s > 0.  Algorithm 1 of Cohen, Rodriguez
    Villegas and Zagier (Exp. Math. 9, 2000) with P_n(x) = T_n(1 - 2x/r) then leaves at most
    that over P_n(-1) = T_n(1 + 2 q^d) per class.  n is the smallest count with bound =
    |prefactor| sum_a q^{-a} a^{-sigma} (Gamma(sigma) / (|Gamma(s)| T_n(1 + 2 q^d))
    + n 2^-(bits+30)) < 2^(4-bits), over a with chi(a) != 0, evaluated at 64 bits and
    doubled; its last term covers the rounding of chi at bits + 32 and of the n terms per
    class at the working precision.
    """
    d = max(chi.modulus, 1)
    classes = [a for a in range(1, d + 1) if chi(a % d)]
    with mp.workprec(bits + 64):
        s_val = to_mpc(s)
        prefactor = to_mpf(q) * mp.power(to_mpf(1 + q), 1 - s_val)
    with mp.workprec(64):
        mass = 2 * mp.fabs(prefactor) * mp.fsum(to_mpf(q) ** -a * mp.mpf(a) ** -s_val.real for a in classes)
        ratio = mp.gamma(s_val.real) / mp.fabs(mp.gamma(s_val))
        z = 1 + 2 * to_mpf(q) ** d
        eps, unit = mp.mpf(2) ** (4 - bits), mp.mpf(2) ** -(bits + 30)
        t_prev, t, n = mp.mpf(1), z, 1  # T_{n-1}(z), T_n(z)
        while (bound := mass * (ratio / t + n * unit)) >= eps:
            t_prev, t, n = t, 2 * z * t - t_prev, n + 1
    with mp.workprec(_working_prec(s, d * n, q, bits)):
        s_val = to_mpc(s)
        prefactor = to_mpf(q) * mp.power(to_mpf(1 + q), 1 - s_val)
        prec = mp.prec
        weights = chebyshev_weights(n, q, d)
        power = _inverse_powers(s_val, d * n)

        def damped(m):
            wm, we = weights[(m - 1) // d]
            t = power(m)
            if len(t) == 2:
                return _round(t[0] * wm, t[1] + we, prec)
            return (*_round(t[0] * wm, t[1] + we, prec), *_round(t[2] * wm, t[3] + we, prec))

        acc = alternating_character_sum(chi, q, bits, d * n, damped)
        return +(prefactor * acc), +bound, len(classes) * n


def boole_cost(q, d, phi, J, K):
    """The price in series terms that ``lfunction._boole_plan`` documents: phi J head terms at
    K = 0, else phi (J + 1) + K^2 (1 + K log2 D / g) / c, D = a^d + b^d for q = a/b."""
    if not K:
        return phi * J
    log2_D = log2(q.numerator**d + q.denominator**d)
    return phi * (J + 1) + K * K * (1 + K * log2_D / lfunction._TAIL_BITS) / lfunction._TAIL_STEPS


def boole_route(s, chi, q, bits):
    """(method, terms) that the documented rule picks at Re s > 0 (q >= 1) or Re s <= 0 off the
    integers (q > 1): for each J the smallest K, by a plain scan up to the bound's turning point,
    whose bound G Gamma(sigma+K) (d/(3w))^K w^-sigma / |Gamma(s)| times |prefactor| sum_a q^-w,
    every class at the smallest w in (d/(3w))^K and in w^-sigma at the smallest w when sigma > 0
    and the largest otherwise, is below 2^(3-bits); the Boole route when the least
    ``boole_cost`` is below the cap min(phi M / d, MAX_TERMS), M the partial sum's terms, or
    MAX_TERMS alone where no partial sum certifies its tail."""
    d = max(chi.modulus, 1)
    classes = [a for a in range(1, d + 1) if chi(a % d)]
    phi = len(classes)
    with mp.workprec(bits + 64):
        s_val = to_mpc(s)
        try:
            M = choose_truncation(max(mp.mpf(0), -s_val.real), q, bits - 4)[0] if q > 1 else None
        except ConvergenceDomain:
            M = None
    with mp.workprec(128):
        qv, r = to_mpf(q), mp.mpf(3)
        G = 1 + 1 / (mp.sin(mp.mpf(31) / 10) * (1 - r * 10 / 31))
        log2_scale = (mp.log(2 * qv * mp.power(1 + qv, 1 - s_val.real) * G * sum(qv**-a for a in classes), 2)
                      - mp.loggamma(s_val).real / mp.ln2)
        log2_scale, log2_q, sigma = float(log2_scale), float(mp.log(qv, 2)), float(s_val.real)
    limit = min(phi * M / d, lfunction.MAX_TERMS) if M else lfunction.MAX_TERMS
    best = None
    for J in count(1):
        if phi * J >= min(best[0] if best else limit, limit):
            break
        lo, hi = d * J + classes[0], d * J + classes[-1]
        for K in range(max(0, floor(-sigma) + 1), max(0, ceil(3 * lo / d - sigma)) + 1):
            log2_bound = (log2_scale - d * J * log2_q + lgamma(sigma + K) / log(2) + K * log2(d / (3 * lo))
                          - sigma * log2(lo if sigma > 0 else hi))
            if log2_bound < 3 - bits:
                cost = boole_cost(q, d, phi, J, K)
                if best is None or cost < best[0]:
                    best = (cost, d * J + phi * K)
                break
    return ("boole", best[1]) if best is not None and best[0] < limit else ("partial-sum", M)


def max_order_characters(d):
    chars = enumerate_characters(d)
    top = max(c.order for c in chars)
    return [c for c in chars if c.order == top]


BOOLE_S = (complex(-0.5, 3), complex(-2, 5), complex(-3.5, 7), Fraction(-1, 3), Fraction(-5, 2))


def lerch_l_value(s, chi, q, bits):
    """L_E(s | chi) = q (1+q)^{1-s} sum_{a=1..d} chi(a) (-1/q)^a d^{-s} Phi((-1/q)^d, s, a/d) by
    ``mp.lerchphi`` at the current precision, as in ``TestLerchRoute``."""
    d = chi.modulus
    s_val, z = to_mpc(s), -1 / to_mpf(q)
    acc = mp.mpc(0)
    for a in range(1, d + 1):
        if chi(a % d):
            acc += (cyc_embed(chi(a % d), mp.prec) * z**a * mp.power(d, -s_val)
                    * mp.lerchphi(z**d, s_val, mp.mpf(a) / d))
    return to_mpf(q) * mp.power(to_mpf(1 + q), 1 - s_val) * acc


def assert_within_bound_of_dirichlet(lv, s, chi, bits):
    """At q = 1, sum (-1)^m chi(m) m^-s = (2^{1-s} chi(2) - 1) L(s, chi), and the prefactor is
    2^{1-s}: the value lies within ``tail_bound`` of that by ``mp.dirichlet``."""
    d = max(chi.modulus, 1)
    with mp.workprec(bits + 64):
        s_val = to_mpc(s)
        values = [cyc_embed(chi(a), bits + 64) for a in range(d)]
        two = mp.power(2, 1 - s_val)
        reference = two * (two * cyc_embed(chi(2 % d), bits + 64) - 1) * mp.dirichlet(s_val, values)
        rounding = mp.mpf(2) ** -(bits + 32) * mp.fabs(reference)
        assert mp.fabs(lv.value - reference) <= lv.tail_bound + rounding


def uncertified(*args):
    """``choose_truncation`` where no partial sum certifies its tail."""
    raise ConvergenceDomain("no partial sum here")


class TestBooleRoute:
    """Re s <= 0 off the integers: a head and a Frobenius-Euler tail per class, against the
    partial sum 64 bits finer and, at q = 1001/1000, Lerch transcendents."""

    @pytest.mark.parametrize("chi,q,bits", [
        pytest.param(chi, q, bits, id=f"{chi.label}-q{q.numerator}_{q.denominator}-{bits}bits")
        for d in (1, 3, 5, 7, 9, 15) for chi in max_order_characters(d)
        for q in (Fraction(21, 20), Fraction(11, 10), Fraction(2)) for bits in (64, 128, 256)])
    def test_bound_covers_the_error(self, chi, q, bits, monkeypatch):
        # the route runs at every point, also where the partial sum takes fewer terms: with no
        # partial sum certified, the route has no cost to beat
        for s in BOOLE_S:
            reference = _partial_sum(s, chi, q, bits + 64).value
            with monkeypatch.context() as patch:
                patch.setattr(lfunction, "choose_truncation", uncertified)
                lv = l_eulerian(s, chi, q, bits)
            assert lv.method == "boole"
            with mp.workprec(bits + 128):
                assert lv.tail_bound < mp.mpf(2) ** (4 - bits)
                rounding = mp.mpf(2) ** -(bits + 32) * mp.fabs(reference)
                assert mp.fabs(lv.value - reference) <= lv.tail_bound + rounding, s

    @pytest.mark.parametrize("d,s,bits", [(1, complex(-0.5, 3), 64), (3, Fraction(-1, 3), 128),
                                          (7, complex(-3.5, 7), 128), (9, Fraction(-5, 2), 64),
                                          (5, complex(-2, 5), 256)])
    def test_near_q_one_matches_lerch_transcendents(self, d, s, bits):
        # the partial sum would take 2^17 or more terms at q = 1001/1000
        q = Fraction(1001, 1000)
        chi = largest_order_character(d)
        lv = l_eulerian(s, chi, q, bits)
        assert (lv.method, lv.terms) == boole_route(s, chi, q, bits)
        with mp.workprec(bits + 32):
            reference = lerch_l_value(s, chi, q, bits)
            assert lv.tail_bound < mp.mpf(2) ** (4 - bits)
            rounding = mp.mpf(2) ** -(bits + 32) * mp.fabs(reference)
            assert mp.fabs(lv.value - reference) <= lv.tail_bound + rounding


class TestAcceleratedRoute:
    """Re s > 0: the Boole route against the partial sum 64 bits finer and the Chebyshev-weighted
    class sums, and at q = 1 against Dirichlet L-values."""

    @pytest.mark.parametrize("s", [complex(0.5, 14), complex(2, -3)], ids=["s=1/2+14i", "s=2-3i"])
    @pytest.mark.parametrize("d,q,bits", ORACLE_GRID)
    def test_bound_covers_the_error(self, d, q, bits, s):
        chi = largest_order_character(d)
        lv = l_eulerian(s, chi, q, bits)
        assert (lv.method, lv.terms) == boole_route(s, chi, q, bits)
        reference = _partial_sum(s, chi, q, bits + 64).value
        chebyshev, chebyshev_bound, _ = chebyshev_l_value(s, chi, q, bits)
        with mp.workprec(bits + 128):
            assert lv.tail_bound < mp.mpf(2) ** (4 - bits)
            rounding = mp.mpf(2) ** -(bits + 32) * mp.fabs(reference)
            assert mp.fabs(lv.value - reference) <= lv.tail_bound + rounding
            assert mp.fabs(lv.value - chebyshev) <= lv.tail_bound + chebyshev_bound

    def test_the_accelerated_route_is_the_one_taken_on_the_grid(self):
        # the Boole route runs on all but PARTIAL_SUM_CORNERS points of the grid, where the
        # partial sum costs fewer terms
        routes = [boole_route(s, largest_order_character(d), q, bits)[0]
                  for d, q, bits in (p.values for p in ORACLE_GRID)
                  for s in (complex(0.5, 14), complex(2, -3))]
        assert routes.count("partial-sum") == PARTIAL_SUM_CORNERS

    @pytest.mark.parametrize("s", [Fraction(1, 2), complex(0.5, 14), complex(2, 3), complex(1.5, -5),
                                   complex(0.25, 1), 2, complex(3, 40), complex(0.5, 300)])
    @pytest.mark.parametrize("d", [1, 3, 7])
    @pytest.mark.parametrize("bits", [128, 256])
    def test_q_one_is_a_dirichlet_l_value(self, d, s, bits):
        chi = largest_order_character(d)
        lv = l_eulerian(s, chi, 1, bits)
        if s in (complex(0.5, 14), complex(0.5, 300)):
            assert (lv.method, lv.terms) == boole_route(s, chi, Fraction(1), bits)
        assert lv.method == "boole"
        assert_within_bound_of_dirichlet(lv, s, chi, bits)

    def test_q_one_past_the_old_imaginary_edge_is_summed(self):
        # |Im s| <= 4096 was a domain edge at q = 1; the work budget takes its place, and here the
        # plan prices about 27,000 terms
        s, bits = complex(0.5, 4500), 64
        lv = l_eulerian(s, MOD1, 1, bits)
        assert lv.method == "boole" and lv.terms < lfunction.MAX_TERMS
        assert_within_bound_of_dirichlet(lv, s, MOD1, bits)

    @pytest.mark.parametrize("d,q,s,longer_head", [(7, Fraction(21, 20), complex(-100.5, 1), 882),
                                                   (3, Fraction(1), complex(0.5, 1000), 3196)],
                             ids=["s=-201/2+i-q21_20", "s=1/2+1000i-q1"])
    def test_long_plans_take_a_short_head(self, d, q, s, longer_head, monkeypatch):
        # pricing h_k as Eulerian-triangle rows took J = longer_head here; the closed-form price
        # buys a longer tail and a shorter head, still within the bound of an independent value
        chi, bits = character_by_index(d, 1), 128
        plans, plan = [], lfunction._boole_plan
        monkeypatch.setattr(lfunction, "_boole_plan", lambda *args: plans.append(plan(*args)) or plans[-1])
        lv = l_eulerian(s, chi, q, bits)
        assert lv.method == "boole" and plans[-1][0] < longer_head
        if q == 1:
            assert_within_bound_of_dirichlet(lv, s, chi, bits)
            return
        reference = _partial_sum(s, chi, q, bits + 64).value
        with mp.workprec(bits + 64):
            rounding = mp.mpf(2) ** -(bits + 32) * mp.fabs(reference)
            assert mp.fabs(lv.value - reference) <= lv.tail_bound + rounding

    def test_weights_come_from_the_chebyshev_recurrence(self):
        # T_{k+1}(1 - 2y) = 2 (1 - 2y) T_k(1 - 2y) - T_{k-1}(1 - 2y), integer coefficients in y;
        # lambda_k is the share of sum_i |C_i| with i > k, C_i the coefficients in x = y q^-d
        for n, q, d in ((1, Fraction(1), 1), (7, Fraction(1), 3), (12, Fraction(11, 10), 5),
                        (20, Fraction(7, 2), 7)):
            prev, cur = [1], [1, -2]
            for _ in range(n - 1):
                nxt = [2 * c for c in cur] + [0]
                for i, c in enumerate(cur):
                    nxt[i + 1] -= 4 * c
                for i, c in enumerate(prev):
                    nxt[i] -= c
                prev, cur = cur, nxt
            assert all((-1) ** i * c > 0 for i, c in enumerate(cur))
            magnitudes = [abs(c) * q ** (d * i) for i, c in enumerate(cur)]
            with mp.workprec(200):
                got = [mp.make_mpf(from_man_exp(*w)) for w in chebyshev_weights(n, q, d)]
            with mp.workprec(400):
                for k, w in enumerate(got):
                    exact = to_mpf(sum(magnitudes[k + 1:]) / sum(magnitudes))
                    assert mp.fabs(w - exact) <= mp.mpf(2) ** -200 * exact  # rounded once

    def test_the_head_alone_takes_no_triangle(self, monkeypatch):
        # at s = 10^6 the head m <= 3 leaves a tail below q^-3 4^-s: K = 0, and h_k is not formed
        def no_triangle(*args):
            raise AssertionError("the triangle was formed")

        monkeypatch.setattr(lfunction, "_frobenius_euler", no_triangle)
        lv = l_eulerian(10**6, QUAD3, 2, 128)
        assert (lv.method, lv.terms) == ("boole", 3)

    def test_modulus_15_at_s_2(self, monkeypatch):
        # with no partial sum to beat and the triangle left unpriced, the head alone certified
        # here, K = 0, and h_k for k < 0 was asked for
        chi = largest_order_character(15)
        reference = _partial_sum(2, chi, Fraction(2), 192).value
        chebyshev, chebyshev_bound, _ = chebyshev_l_value(2, chi, Fraction(2), 128)
        monkeypatch.setattr(lfunction, "choose_truncation", uncertified)
        lv = l_eulerian(2, chi, 2, 128)
        assert lv.method == "boole"
        with mp.workprec(256):
            rounding = mp.mpf(2) ** -160 * mp.fabs(reference)
            assert mp.fabs(lv.value - reference) <= lv.tail_bound + rounding
            assert mp.fabs(lv.value - chebyshev) <= lv.tail_bound + chebyshev_bound


Q_21, Q_6 = 1 + Fraction(1, 10**21), 1 + Fraction(1, 10**6)
OVER_BUDGET_GRID = [(s, q, d, bits) for d in (1, 7, 15) for bits in (64, 1024)
                    for s, q in [(complex(-2000, 1), Q_21), (complex(-2000, 1), Q_6), (complex(0.5, 1e5), Fraction(1)),
                                 (-4, Q_6)] + ([(complex(0.5, 4096), Q_21)] if d > 1 else [])]


class TestWorkBudget:
    """Every route takes at most MAX_TERMS priced series terms, or raises before any sum."""

    def test_over_budget_points_are_refused_before_any_sum(self, monkeypatch):
        # each call in process under a 2 s alarm, and the grid under 30 s: before the budget, the
        # plan alone took 36-45 s at s = -2000+i, q - 1 = 10^-21, and s = -4 at q - 1 = 10^-6 summed
        # 2^28 terms; modulus 1 at s = 1/2+4096i, q - 1 = 10^-21 fits, with a price near 373,000
        def expire(signum, frame):
            raise TimeoutError("over 2 s")

        plans, plan = [], lfunction._boole_plan

        def timed(*args):
            start = time.perf_counter()
            result = plan(*args)
            plans.append(time.perf_counter() - start)
            return result

        monkeypatch.setattr(lfunction, "_boole_plan", timed)
        handler, start = signal.signal(signal.SIGALRM, expire), time.perf_counter()
        try:
            for s, q, d, bits in OVER_BUDGET_GRID:
                plans.clear()
                signal.alarm(2)
                with pytest.raises(ConvergenceDomain, match=OVER_BUDGET):
                    l_eulerian(s, largest_order_character(d), q, bits)
                signal.alarm(0)
                if s == complex(-2000, 1):
                    assert plans and max(plans) < 1
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, handler)
        assert time.perf_counter() - start < 30

    def test_a_plan_near_the_budget_is_searched_in_under_a_second(self, monkeypatch):
        # modulus 1 at s = 1/2+4096i, q - 1 = 10^-21 fits the budget; the spy stops before the sum,
        # which would take seconds, and the plan is the one the J walk took before the budget
        class Planned(Exception):
            pass

        plans, plan = [], lfunction._boole_plan

        def stop(*args):
            start = time.perf_counter()
            plans.append((plan(*args), time.perf_counter() - start))
            raise Planned

        monkeypatch.setattr(lfunction, "_boole_plan", stop)
        with pytest.raises(Planned):
            l_eulerian(complex(0.5, 4096), MOD1, Q_21, 64)
        (J, K), seconds = plans[0]
        assert (J, K) == (122404, 928) and seconds < 1


def bernoulli_numbers(n):
    """B_0..B_n with B_1 = -1/2."""
    b = []
    for m in range(n + 1):
        b.append(Fraction(1) if m == 0 else -sum(comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b


def generalized_bernoulli(n, chi):
    """B_{n,chi} = d^{n-1} sum_{a=1..d} chi(a) B_n(a/d), with B_{1,chi_1} = +1/2."""
    d = max(chi.modulus, 1)
    b = bernoulli_numbers(n)
    total = 0
    for a in range(1, d + 1):
        value = sum(comb(n, k) * b[k] * Fraction(a, d) ** (n - k) for k in range(n + 1))
        total = chi(a % d) * value + total
    return total * Fraction(d) ** (n - 1)


class TestExactQOne:
    @pytest.mark.parametrize("d", [1, 3, 5, 7, 9, 15])
    def test_eulerian_values_at_q_one_are_generalized_bernoulli_numbers(self, d):
        # (-1)^n A_n(chi, -1) - 2^{n+1} chi(0) 0^n = -2^{n+1} (2^{n+1} chi(2) - 1) B_{n+1,chi} / (n+1)
        cases = 0
        for chi in enumerate_characters(d):
            for n in range(12):
                boundary = chi(0) * 2 ** (n + 1) if n == 0 else 0
                lhs = chi_eulerian(n, chi, 1) * (-1) ** n - boundary
                rhs = ((chi(2 % d) * 2 ** (n + 1) - 1) * generalized_bernoulli(n + 1, chi)
                       * Fraction(-(2 ** (n + 1)), n + 1))
                assert lhs == rhs, (chi.label, n)
                cases += 1
        assert cases == 12 * phi(d)


class TestLerchRoute:
    @pytest.mark.parametrize("s", [complex(0.5, 14), complex(2, -3)])
    def test_matches_lerch_transcendent(self, s):
        # m = a + d k splits the series into d Lerch transcendents:
        # L_E(s | chi) = q (1+q)^{1-s} sum_{a=1..d} chi(a) (-1/q)^a d^{-s} Phi((-1/q)^d, s, a/d)
        chi, q, bits = largest_order_character(7), Fraction(11, 10), 128
        lv = l_eulerian(s, chi, q, bits)
        d = chi.modulus
        with mp.workprec(bits + 32):
            s_val, z = mp.mpc(s), -1 / to_mpf(q)
            acc = mp.mpc(0)
            for a in range(1, d + 1):
                if chi(a % d):
                    acc += (cyc_embed(chi(a % d), bits + 32) * z**a * mp.power(d, -s_val)
                            * mp.lerchphi(z**d, s_val, mp.mpf(a) / d))
            reference = to_mpf(q) * mp.power(to_mpf(1 + q), 1 - s_val) * acc
            slack = mp.mpf(2) ** (8 - bits) * max(1, mp.fabs(reference))
            assert mp.fabs(lv.value - reference) <= lv.tail_bound + slack


class TestPrecisionGuard:
    @pytest.mark.parametrize("check", [chi_eulerian_series_check, kernel_series_check,
                                       lambda n, chi, q, bits: l_eulerian(-n, chi, q, bits)])
    def test_below_64_bits_is_refused(self, check):
        with pytest.raises(ValueError, match="bits must be >= 64"):
            check(3, QUAD3, 2, 8)
