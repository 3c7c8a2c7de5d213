"""Numeric Eulerian L-values, interpolation at negative integers, Mellin terms."""
import operator
from fractions import Fraction
from functools import reduce
from math import comb

import pytest
from mpmath import mp
from mpmath.libmp import from_man_exp

from qeuler.characters import enumerate_characters, principal_character
from qeuler.chi_eulerian import chi_eulerian, chi_eulerian_series_check, kernel_series_check
from qeuler.cyclotomic import cyc_embed
from qeuler.errors import ConvergenceDomain, DomainError
from qeuler.lfunction import (_accelerated, _chebyshev_weights, _partial_sum, _working_prec, l_eulerian,
                              mellin_term_check, verify_interpolation)
from qeuler.numerics import choose_truncation, to_mpc, to_mpf
from qeuler.numtheory import phi

QUAD3 = enumerate_characters(3)[1]
MOD1 = principal_character(1)


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
        # 1/|Gamma(1/2 + 10^4 i)| ~ e^{5000 pi} would need more than 4096 terms per class
        with pytest.raises(ConvergenceDomain, match="4096 terms"):
            l_eulerian(complex(0.5, 1e4), QUAD3, 1, 128)

    def test_q_too_close_to_one_for_a_partial_sum(self):
        # 64 doublings of M cannot certify the partial sum's tail at q - 1 = 10^-21; Re s > 0
        # takes the q = 1 term limit instead, and Re s <= 0 is refused with a domain error
        q = Fraction(10**21 + 1, 10**21)
        lv = l_eulerian(complex(0.5, 1), QUAD3, q, 128)
        assert lv.method == "accelerated"
        at_one = l_eulerian(complex(0.5, 1), QUAD3, 1, 128)
        with mp.workprec(192):
            assert lv.tail_bound < mp.mpf(2) ** -124
            assert 0 < mp.fabs(lv.value - at_one.value) < mp.mpf(10) ** -19
        with pytest.raises(ConvergenceDomain, match="too close to 1"):
            l_eulerian(complex(-0.5, 1), QUAD3, q, 128)


class TestInterpolation:
    @pytest.mark.parametrize("n", range(9))
    def test_quadratic_mod3(self, n):
        assert verify_interpolation(n, QUAD3, 2, 128).passed

    def test_spot_values(self):
        r0 = verify_interpolation(0, QUAD3, 2, 128)
        r1 = verify_interpolation(1, QUAD3, 2, 128)
        assert_close(r0.l_value, -4)
        assert_close(r1.l_value, -12)
        assert_close(r1.reference, -12)

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
            assert_close(report.l_value, expected)

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


def term_by_term(chi, q, bits, M, term, start=1):
    """The alternating character series as a plain mpc loop: chi embedded at
    bits + 32 and every term (-1)^m * chi(m) * term(m) * q^{-m} evaluated with
    mpmath's number types.  ``alternating_character_sum`` must agree with it
    bit for bit."""
    d = max(chi.modulus, 1)
    table = [cyc_embed(chi(a), bits + 32) for a in range(d)]
    qinv = to_mpf(1 / Fraction(q))
    weight = mp.mpf(1)
    acc = mp.mpc(0)
    for m in range(M + 1):
        cval = table[m % d]
        if m >= start and cval:
            acc += (-1) ** m * cval * term(m) * weight
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
    one mpc multiplication."""
    cache = {}

    def prime_power(p):
        if p not in cache:
            cache[p] = mp.mpc(p) ** -s_val
        return cache[p]

    return lambda m: reduce(operator.mul, map(prime_power, prime_factors(m)), mp.mpc(1))


def largest_order_character(d):
    return max(enumerate_characters(d), key=lambda c: c.order)


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
                kernel = term_by_term(chi, q, bits, M, lambda m: (-(mp.mpf(m)) * opq) ** n, start=0)
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
        # kernel's (-m(1+q))^9 takes mpf_pow_int's rounding on the way.
        chi = largest_order_character(d)
        self.assert_real_terms_bit_identical(chi, Fraction(11, 10), 128, (0, 3, 9))

    @pytest.mark.parametrize("d,q,bits", ORACLE_GRID)
    def test_complex_s_within_relative_rounding(self, d, q, bits):
        # Re s <= 0, where the partial sum is the engine
        chi = largest_order_character(d)
        s = complex(-0.5, 3) if (d + bits) % 2 else complex(-2, 5)
        lv = l_eulerian(s, chi, q, bits)
        assert lv.method == "partial-sum"
        value = lv.value
        reference = oracle_l_value(s, chi, q, bits)
        with mp.workprec(bits + 96):
            assert mp.fabs(value - reference) <= mp.mpf(2) ** -(bits + 32) * mp.fabs(reference)


    @pytest.mark.parametrize("d,q,bits", ORACLE_GRID)
    def test_complex_s_is_bit_identical(self, d, q, bits):
        # the partial sum at Re s <= 0 and the Chebyshev-damped class sums at Re s > 0
        chi = largest_order_character(d)
        s = complex(-0.5, 3) if (d + bits) % 2 else complex(-2, 5)
        reference = oracle_l_value(s, chi, q, bits, multiplicative_powers)
        assert _partial_sum(s, chi, q, bits).value._mpc_ == reference._mpc_
        s = complex(2, -3) if (d + bits) % 2 else complex(0.5, 14)
        with mp.workprec(bits + 64):
            s_val = to_mpc(s)
            lv = _accelerated(s_val, chi, q, bits)
            classes = sum(1 for a in range(1, d + 1) if chi(a % d))
            n = lv.terms // classes
            weights = [mp.make_mpf(from_man_exp(*w)) for w in _chebyshev_weights(n, q, d)]
            power = multiplicative_powers(s_val)
            acc = term_by_term(chi, q, bits, d * n, lambda m: power(m) * weights[(m - 1) // d])
            reference = +(to_mpf(q) * mp.power(to_mpf(1 + q), 1 - s_val) * acc)
        assert lv.value._mpc_ == reference._mpc_


def chebyshev_route(s, chi, q, bits):
    """(method, terms) that the documented rule picks, with T_n(z) = cosh(n arccosh z)."""
    d = max(chi.modulus, 1)
    classes = [a for a in range(1, d + 1) if chi(a % d)]
    with mp.workprec(bits + 64):
        s_val = to_mpc(s)
        scale = mp.fabs(to_mpf(q) * mp.power(to_mpf(1 + q), 1 - s_val))
    with mp.workprec(128):
        sigma = s_val.real
        mass = 2 * scale * sum(to_mpf(q) ** -a * mp.mpf(a) ** -sigma for a in classes)
        ratio = mp.gamma(sigma) / mp.fabs(mp.gamma(s_val))
        growth = mp.acosh(1 + 2 * to_mpf(q) ** d)
        n = 1
        while mass * (ratio / mp.cosh(n * growth) + n * mp.mpf(2) ** -(bits + 30)) >= mp.mpf(2) ** (4 - bits):
            n += 1
    M = choose_truncation(0, q, bits - 4)[0] if q > 1 else None
    if M is None or len(classes) * n < M:
        return "accelerated", len(classes) * n
    return "partial-sum", M


class TestAcceleratedRoute:
    """Re s > 0: the Chebyshev-weighted class sums against the partial sum 64 bits finer."""

    @pytest.mark.parametrize("s", [complex(0.5, 14), complex(2, -3)], ids=["s=1/2+14i", "s=2-3i"])
    @pytest.mark.parametrize("d,q,bits", ORACLE_GRID)
    def test_bound_covers_the_error(self, d, q, bits, s):
        chi = largest_order_character(d)
        lv = l_eulerian(s, chi, q, bits)
        assert (lv.method, lv.terms) == chebyshev_route(s, chi, q, bits)
        reference = _partial_sum(s, chi, q, bits + 64).value
        with mp.workprec(bits + 128):
            assert lv.tail_bound < mp.mpf(2) ** (4 - bits)
            rounding = mp.mpf(2) ** -(bits + 32) * mp.fabs(reference)
            assert mp.fabs(lv.value - reference) <= lv.tail_bound + rounding

    def test_the_accelerated_route_is_the_one_taken_on_the_grid(self):
        # one corner, mod 7 at q = 2 and 64 bits, needs 6 * 11 Chebyshev terms
        # at s = 1/2+14i against the partial sum's 64
        routes = [chebyshev_route(s, largest_order_character(d), q, bits)[0]
                  for d, q, bits in (p.values for p in ORACLE_GRID)
                  for s in (complex(0.5, 14), complex(2, -3))]
        assert routes.count("partial-sum") == 1

    @pytest.mark.parametrize("s", [Fraction(1, 2), complex(0.5, 14), complex(2, 3), complex(1.5, -5),
                                   complex(0.25, 1)])
    @pytest.mark.parametrize("d", [1, 3, 7])
    @pytest.mark.parametrize("bits", [128, 256])
    def test_q_one_is_a_dirichlet_l_value(self, d, s, bits):
        # sum (-1)^m chi(m) m^-s = (2^{1-s} chi(2) - 1) L(s, chi), and the prefactor is 2^{1-s}
        chi = largest_order_character(d)
        lv = l_eulerian(s, chi, 1, bits)
        assert lv.method == "accelerated"
        with mp.workprec(bits + 64):
            s_val = to_mpc(s)
            values = [cyc_embed(chi(a), bits + 64) for a in range(d)]
            two = mp.power(2, 1 - s_val)
            reference = two * (two * cyc_embed(chi(2 % d), bits + 64) - 1) * mp.dirichlet(s_val, values)
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
                got = [mp.make_mpf(from_man_exp(*w)) for w in _chebyshev_weights(n, q, d)]
            with mp.workprec(400):
                for k, w in enumerate(got):
                    exact = to_mpf(sum(magnitudes[k + 1:]) / sum(magnitudes))
                    assert mp.fabs(w - exact) <= mp.mpf(2) ** -200 * exact  # rounded once


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
