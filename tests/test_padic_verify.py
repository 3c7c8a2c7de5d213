"""Truncated fermionic integrals: spot values, integral equations, Witt checks."""
import tracemalloc
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from qeuler import padic_verify
from qeuler.characters import enumerate_characters, principal_character
from qeuler.errors import BadCongruence, ParityMismatch
from qeuler.padic import PadicResidue, embed_cyclotomic, valuation
from qeuler.padic_verify import (
    IntegralEquationReport,
    IntegrandSpec,
    _chi_residues,
    _weighted_sums,
    admissible_modulus,
    chi_monomial,
    corollary4_min_precision,
    corollary4_probe,
    monomial,
    shifted_monomial,
    truncated_integral,
    truncated_integrals,
    verify_integral_equation,
    verify_witt,
    verify_witt_chi,
)

QUAD3 = enumerate_characters(3)[1]
MOD1 = principal_character(1)


class TestTruncatedIntegral:
    def test_constant_integrand_telescopes(self):
        # the eta-sum of the weights is exactly the normalizer at every level
        for N in (1, 2, 3, 4):
            value = truncated_integral(monomial(0), 5, 6, "-q^-1", N, 3)
            assert value.residue == 1

    def test_linear_spot_value(self):
        # limit is -1/(1+q) = -1/7, already reached mod 125 at N = 6
        value = truncated_integral(monomial(1), 5, 6, "-q^-1", 6, 3)
        assert value.residue == 107

    def test_chi_integrand_matches_corrected_closed_form(self):
        value = truncated_integral(chi_monomial(principal_character(5), 0), 5, 6, "-q^-1", 6, 3)
        reference = verify_witt_chi(0, principal_character(5), 5, 6, 3, 6, "corrected")
        assert reference.passed
        assert value.residue == reference.reference.residue

    def test_determinism(self):
        a = truncated_integral(monomial(2), 7, 8, "-q", 4, 2)
        b = truncated_integral(monomial(2), 7, 8, "-q", 4, 2)
        assert a == b

    def test_bad_congruence(self):
        with pytest.raises(BadCongruence):
            truncated_integral(monomial(1), 5, 3, "-q^-1", 2, 2)

    def test_bosonic_normalizer_rejected(self):
        # Q = q = 1 mod p never has a unit normalizer, so "q" is not a measure
        with pytest.raises(ValueError, match="unknown measure"):
            truncated_integral(monomial(1), 5, 6, "q", 2, 2)

    def test_short_sum_reads_only_its_terms(self):
        # the period of x^2 mod 5^9 is 1,953,125 but the sum at N = 2 has 25 terms
        tracemalloc.start()
        try:
            value = truncated_integral(monomial(2), 5, 6, "-q^-1", N=2, k=9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        w = Fraction(-1, 6)
        total = sum(w**eta * eta**2 for eta in range(25))
        assert value.residue == _mod(total / sum(w**j for j in range(25)), 5**9)

    @pytest.mark.parametrize("spec,p,q,levels,residue", [
        (monomial(1), 5, 6, (3, 6, 20), 107),
        (monomial(2), 3, 4, (3, 12, 20, 40), 15),
    ])
    def test_residue_is_constant_once_the_period_divides_p_to_the_N(self, spec, p, q, levels, residue):
        # the period is 5^3 (resp. 3^3), which p^N first divides at N = 3
        assert [truncated_integral(spec, p, q, "-q^-1", N, 3).residue for N in levels] == \
            [residue] * len(levels)

    def test_shifted_monomial(self):
        x0 = Fraction(2, 3)
        a, b = truncated_integrals(
            [shifted_monomial(x0, 2), shifted_monomial(x0, 2).shifted(1)], 5, 6, "-q^-1", 4, 2)
        assert isinstance(a, PadicResidue) and isinstance(b, PadicResidue)
        assert a != b


class TestIntegralEquations:
    LEVELS = [1, 2, 3, 4, 5, 6]

    def test_eq8_linear(self):
        report = verify_integral_equation(8, monomial(1), 1, 5, 6, 3, self.LEVELS)
        assert report.passed
        assert report.valuations[-1] >= 3

    def test_eq7_constant_exact_everywhere(self):
        report = verify_integral_equation(7, monomial(0), 1, 5, 6, 3, self.LEVELS)
        assert report.passed
        assert all(v == 3 for v in report.valuations)

    def test_eq4_eq6_same_even_case(self):
        r4 = verify_integral_equation(4, monomial(1), 2, 5, 6, 3, self.LEVELS)
        r6 = verify_integral_equation(6, monomial(1), 2, 5, 6, 3, self.LEVELS)
        assert r4.valuations == r6.valuations
        assert r4.passed and r6.passed

    def test_eq5_odd(self):
        report = verify_integral_equation(5, monomial(2), 3, 3, 4, 3, self.LEVELS)
        assert report.passed

    def test_chi_integrand(self):
        report = verify_integral_equation(5, chi_monomial(QUAD3, 1), 3, 3, 4, 2, [1, 2, 3, 4, 5])
        assert report.passed

    def test_chi_is_embedded_once_for_f_and_its_shift(self, monkeypatch):
        # chi's 7 values, shared by f and f.shifted(n), then the weight, the right side and q^n
        chi, calls, embed = enumerate_characters(7)[3], [], padic_verify.embed_cyclotomic
        monkeypatch.setattr(padic_verify, "embed_cyclotomic", lambda *a: calls.append(a) or embed(*a))
        f = chi_monomial(chi, 2)
        report = verify_integral_equation(4, f, 2, 7, 8, 3, [2, 3])
        assert len(calls) == 7 + 3
        assert report == IntegralEquationReport((2, 3), (2, 3), 72, 72, True)
        assert truncated_integrals([f, f.shifted(2)], 7, 8, "-q", 3, 3) == \
            [truncated_integral(g, 7, 8, "-q", 3, 3) for g in (f, f.shifted(2))]

    @pytest.mark.parametrize("eq,f,n,p,q,k", [
        (4, monomial(2), 2, 5, 6, 4),
        (8, monomial(3), 1, 3, 4, 3),
        (5, chi_monomial(QUAD3, 1), 3, 3, 4, 2),
    ])
    def test_levels_in_one_call_match_levels_one_at_a_time(self, eq, f, n, p, q, k):
        # one table at the deepest level serves every level, below and above
        # the period lcm(p^k, d); a single-level call builds its own table
        levels = range(1, k + 4)
        report = verify_integral_equation(eq, f, n, p, q, k, levels)
        singles = [verify_integral_equation(eq, f, n, p, q, k, [N]) for N in levels]
        assert report.valuations == tuple(s.valuations[0] for s in singles)
        assert report.lhs_last == singles[-1].lhs_last

    def test_parity_mismatch(self):
        with pytest.raises(ParityMismatch):
            verify_integral_equation(5, monomial(1), 2, 5, 6, 2, [3])
        with pytest.raises(ParityMismatch):
            verify_integral_equation(6, monomial(1), 3, 5, 6, 2, [3])
        with pytest.raises(ParityMismatch):
            verify_integral_equation(7, monomial(1), 2, 5, 6, 2, [3])

    @pytest.mark.parametrize("p,k", [(3, 7), (5, 6), (7, 4)])
    def test_cauchy_property(self, p, k):
        # successive truncations agree to valuation >= N - c with c <= 2; the
        # working precision k caps the measured valuation, so it is chosen
        # just above the largest bound each prime must certify
        q = 1 + p
        for n_deg in (1, 3):
            spec = monomial(n_deg)
            previous = None
            for N in range(1, 8):
                value = truncated_integral(spec, p, q, "-q^-1", N, k)
                if previous is not None:
                    assert valuation(value.residue - previous.residue, p, k) >= min(N - 1 - 2, k)
                previous = value



# Each entry point refuses the same setups: p must be an odd prime, k and every
# level N at least 1, and q = 1 (mod p).
_SETUP_CALLS = {
    "truncated_integral": lambda p, q, k, levels: [
        truncated_integral(monomial(1), p, q, "-q^-1", N, k) for N in levels],
    "verify_integral_equation": lambda p, q, k, levels: verify_integral_equation(
        8, monomial(1), 1, p, q, k, levels),
    "verify_integral_equation, no level": lambda p, q, k, levels: verify_integral_equation(
        8, monomial(1), 1, p, q, k, []),
    "corollary4_probe": lambda p, q, k, levels: corollary4_probe(1, MOD1, p, q, k, levels),
}
_BAD_SETUPS = [
    # (p, q, k, levels, error, message)
    (2, 3, 3, [2], ValueError, "p must be an odd prime"),
    (9, 10, 3, [2], ValueError, "p must be an odd prime"),
    (5, 6, 0, [2], ValueError, "N and k must be >= 1"),
    (5, 6, 3, [0], ValueError, "N and k must be >= 1"),
    (5, 7, 3, [2], BadCongruence, "not congruent to 1 mod 5"),
]


@pytest.mark.parametrize("call,p,q,k,levels,error,message", [
    (call, *setup) for call in sorted(_SETUP_CALLS) for setup in _BAD_SETUPS
    if not (call.endswith("no level") and setup[3] == [0])])  # no level, so no N = 0
def test_bad_setup_is_refused_by_every_entry_point(call, p, q, k, levels, error, message):
    with pytest.raises(error, match=message):
        _SETUP_CALLS[call](p, q, k, levels)

class TestWeightZeroIntegralRepresentation:
    @pytest.mark.parametrize("p,q,x", [(5, 6, Fraction(1, 3)), (3, 4, Fraction(2, 7)),
                                       (7, 8, Fraction(0))])
    def test_euler_recurrence_matches_defining_integral(self, p, q, x):
        # the weight-zero family is the fermionic integral of (x+y)^n under
        # the -q measure, so the truncated sums must land on the recurrence
        from qeuler.chi_eulerian import weight_zero_euler, weight_zero_genocchi

        for n in range(5):
            trunc = truncated_integral(shifted_monomial(x, n), p, q, "-q", 6, 3)
            euler_ref = PadicResidue.from_rational(weight_zero_euler(n, q, x), p, 3)
            genocchi_ref = PadicResidue.from_rational(
                weight_zero_genocchi(n + 1, q, x) / (n + 1), p, 3)
            assert trunc.residue == euler_ref.residue
            assert trunc.residue == genocchi_ref.residue


class TestWitt:
    def test_n0(self):
        report = verify_witt(0, 5, 6, 3, 6)
        assert report.passed
        assert report.integral.residue == 1

    def test_n1_spot(self):
        report = verify_witt(1, 5, 6, 3, 6)
        assert report.passed
        assert report.reference.residue == 107

    def test_n3_p7(self):
        report = verify_witt(3, 7, 8, 2, 5)
        assert report.passed
        assert report.reference.residue == 30  # -33/9^3 mod 49

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_grid(self, p, k):
        for q in (1 + p, 1 + 2 * p):
            for n in range(7):
                assert verify_witt(n, p, q, k, k + 3).passed

    @pytest.mark.parametrize("n", range(9))
    def test_deep_precision(self, n):
        # the period 3^13 = 1,594,323 is taken in blocks of 3^7 values: 3^7 + 3^6
        # steps, far under MAX_WALK
        assert verify_witt(n, 3, 4, 13, 14).passed


class TestWittChi:
    def test_modulus_one_reduces_to_witt(self):
        report = verify_witt_chi(2, MOD1, 5, 6, 3, 6, "corrected")
        plain = verify_witt(2, 5, 6, 3, 6)
        assert report.passed
        assert report.integral.residue == plain.integral.residue

    def test_quadratic_corrected_vs_printed(self):
        corrected = verify_witt_chi(0, QUAD3, 3, 4, 2, 5, "corrected")
        printed = verify_witt_chi(0, QUAD3, 3, 4, 2, 5, "printed")
        assert corrected.passed
        assert not printed.passed
        assert corrected.ratio == pow(4, 2, 9)  # off by exactly q^2

    def test_quadratic_n1(self):
        report = verify_witt_chi(1, QUAD3, 3, 4, 2, 5, "corrected")
        assert report.passed

    def test_order_four_character_at_p5(self):
        chi = enumerate_characters(5)[1]  # order 4 divides p-1
        report = verify_witt_chi(1, chi, 5, 6, 2, 5, "corrected")
        assert report.passed

    def test_modulus_must_match_prime(self):
        with pytest.raises(ValueError):
            verify_witt_chi(0, QUAD3, 5, 6, 2, 4, "corrected")

    def test_modulus_must_be_a_power_of_p(self):
        assert [admissible_modulus(d, 5) for d in (1, 5, 25, 15, 3)] == [True, True, True, False, False]
        principal15 = principal_character(15)
        with pytest.raises(ValueError):
            verify_witt_chi(0, principal15, 5, 6, 2, 4, "corrected")
        with pytest.raises(ValueError):
            corollary4_probe(1, principal15, 5, 6, 2, [1, 2])

    def test_unembeddable_character_order_refused(self):
        # an order-3 character mod 9 cannot embed mod 3^k (3 does not divide p-1)
        from qeuler.errors import CharacterOrderUnsupported
        chi = next(c for c in enumerate_characters(9) if c.order == 3)
        with pytest.raises(CharacterOrderUnsupported):
            verify_witt_chi(0, chi, 3, 4, 2, 5, "corrected")

    @pytest.mark.parametrize("d,p", [(3, 3), (5, 5), (9, 3)])
    def test_grid_corrected_passes_printed_off_by_q_squared(self, d, p):
        from qeuler.chi_eulerian import chi_eulerian
        from qeuler.padic import embed_cyclotomic

        k = 2
        pk = p**k
        for chi in (c for c in enumerate_characters(d) if c.order <= 2):
            for q in (1 + p, 1 + 2 * p):
                for n in range(3):
                    corrected = verify_witt_chi(n, chi, p, q, k, k + 3, "corrected")
                    printed = verify_witt_chi(n, chi, p, q, k, k + 3, "printed")
                    assert corrected.passed
                    # q = 1 (mod p) makes q^2 = 1 (mod p), so the printed form
                    # is only distinguishable when (q^2-1)*ref is nonzero mod p^k
                    qf = Fraction(q)
                    ref = (Fraction(-1) ** n / (1 + qf) ** n / qf**2) * chi_eulerian(n, chi, qf)
                    gap = embed_cyclotomic((qf**2 - 1) * ref, p, k) % pk
                    if gap:
                        assert not printed.passed
                    if corrected.ratio is not None:
                        # measured printed-side/integral ratio is exactly q^2
                        assert corrected.ratio == pow(q, 2, pk)


class TestCorollary4Probe:
    def test_quadratic_converges_to_plain_candidate(self):
        report = corollary4_probe(0, QUAD3, 3, 4, 2, [1, 2, 3, 4, 5])
        assert report.converged_to == "2*S_A"
        assert report.val_plain[-1] >= 2
        assert report.val_scaled[-1] < 2

    def test_modulus_one_positive_degree(self):
        report = corollary4_probe(1, MOD1, 5, 6, 3, [1, 2, 3, 4, 5, 6])
        assert report.converged_to == "2*S_A"

    def test_modulus_one_degree_zero_measured_gap(self):
        # here the x = 0 term survives: the sum converges to 2*S_A - 1
        # = (q-1)/(1+q), which is 90 mod 125 at q = 6 -- neither candidate
        report = corollary4_probe(0, MOD1, 5, 6, 3, [1, 2, 3, 4, 5, 6])
        assert report.converged_to is None
        assert report.sums[-1] == 90
        gap = Fraction(5, 7)  # (q-1)/(1+q)
        assert PadicResidue.from_rational(gap, 5, 3).residue == 90

    @pytest.mark.parametrize("d,index,n", [(1, 0, 1), (1, 0, 3), (5, 0, 1), (5, 1, 2),
                                            (5, 2, 3), (5, 3, 2)])
    def test_precision_nine(self, d, index, n):
        # at q = 1 + 5^8 the two candidates first differ mod 5^9; the period
        # of the sum at k = 9 is 1,953,125 values
        chi, q = enumerate_characters(d)[index], 1 + 5**8
        assert corollary4_min_precision(n, chi, 5, q) == 9
        assert corollary4_probe(n, chi, 5, q, 9, [12]).converged_to == "2*S_A"

    def test_insufficient_levels_inconclusive(self):
        report = corollary4_probe(0, QUAD3, 3, 4, 1, [1])
        assert report.converged_to is None


def _mod(fr: Fraction, pk: int) -> int:
    return fr.numerator * pow(fr.denominator, -1, pk) % pk


def _legendre(p: int):
    """The quadratic character mod p from Euler's criterion, with its value at 0."""
    return lambda x: 0 if x % p == 0 else (1 if pow(x, (p - 1) // 2, p) == 1 else -1)


def _weight(measure: str, q: Fraction, d: int) -> Fraction:
    return {"-q": -q, "-q^-1": -1 / q, "-q^-d": -(q ** -d)}[measure]


class TestDefinitionOracle:
    """T_N and U_N summed from their definitions in Fractions, reduced mod p^k once.

    T_N(f; Q) = (1 / [p^N]_Q) sum_{eta < p^N} Q^eta f(eta) with
    [p^N]_Q = sum_{j < p^N} Q^j; nothing here reuses the engine's period
    tables, weight residues or normalizer formula.  Kept as the oracle for
    any faster engine of the truncated sums.
    """

    CASES = [(3, Fraction(4), 2), (3, Fraction(7, 4), 5), (5, Fraction(6), 1), (5, Fraction(11, 6), 3)]

    @staticmethod
    def _integrands(p: int):
        quad = next(c for c in enumerate_characters(p) if c.order == 2)
        one = lambda x: 1
        # (spec, chi as an integer function, offset, shift, degree)
        return [
            (monomial(3), None, 0, 0, 3),
            (chi_monomial(MOD1, 2), one, 0, 0, 2),
            (chi_monomial(quad, 2), _legendre(p), 0, 0, 2),
            (chi_monomial(quad, 1).shifted(2), _legendre(p), 0, 2, 1),
            (shifted_monomial(Fraction(1, 2), 2).shifted(3), None, Fraction(1, 2), 3, 2),
        ]

    @pytest.mark.parametrize("measure", ["-q", "-q^-1", "-q^-d"])
    @pytest.mark.parametrize("p,q,N", CASES)
    def test_truncated_integral_matches_definition(self, p, q, N, measure):
        k = 3
        for spec, chi, offset, shift, degree in self._integrands(p):
            d = spec.character.modulus if spec.character is not None else 1
            w = _weight(measure, q, d)
            normalizer = sum(w**j for j in range(p**N))
            total = Fraction(0)
            for eta in range(p**N):
                t = eta + shift
                total += w**eta * (chi(t) if chi else 1) * (offset + t) ** degree
            expected = _mod(total / normalizer, p**k)
            assert truncated_integral(spec, p, q, measure, N, k).residue == expected, spec.describe()

    @pytest.mark.parametrize("p,q,N", CASES)
    @pytest.mark.parametrize("n", [0, 1, 2])  # at n = 0 the x = 0 term chi(0) 0^n is 1 for modulus 1
    def test_corollary4_sum_matches_definition(self, p, q, N, n):
        k = 3
        quad = next(c for c in enumerate_characters(p) if c.order == 2)
        for chi, chi_int in ((MOD1, lambda x: 1), (quad, _legendre(p))):
            report = corollary4_probe(n, chi, p, q, k, range(1, N + 1))
            expected = [_mod(sum(Fraction((-1) ** x * chi_int(x) * x**n) / q**x
                                 for x in range(1, p**M)), p**k)
                        for M in range(1, N + 1)]
            assert list(report.sums) == expected, chi.label


def _loop_weighted_sum(table: list[int], w: int, count: int, pk: int) -> int:
    """sum_{eta < count} w^eta table[eta mod len(table)] (mod pk), one term at a time."""
    total = 0
    power = 1
    for eta in range(count):
        total = (total + power * table[eta % len(table)]) % pk
        power = power * w % pk
    return total


# moduli prime to p, or with a factor prime to p, that carry characters embeddable mod p^k
_OTHER_MODULI = {3: (5, 7, 15, 21), 5: (3, 13, 15), 7: (3, 9, 21)}
_SUM_SETUPS = [(p, k, d) for p in (3, 5, 7) for k in range(1, 7)
               for d in (1, p, p * p, *_OTHER_MODULI[p]) if lcm(p**k, d) <= 1500]


@st.composite
def _weighted_sum_cases(draw):
    p, k, d = draw(st.sampled_from(_SUM_SETUPS))
    pk, period = p**k, lcm(p**k, d)
    chi = None
    if d > 1 or draw(st.booleans()):
        chi = draw(st.sampled_from([c for c in enumerate_characters(d) if (p - 1) % c.order == 0]))
    # an offset whose denominator p does not divide
    offset = draw(st.just(Fraction(0)) | st.builds(
        Fraction, st.integers(-30, 30), st.sampled_from([m for m in (1, 2, 4, 11, 13) if m % p])))
    spec = IntegrandSpec(draw(st.integers(0, 9)), chi, offset, draw(st.integers(0, 40)))
    # w = 0 and w = 1 (mod p) make 1 - w^P a non-unit
    w = draw(st.one_of(st.integers(0, pk - 1), st.builds(lambda j: p * j % pk, st.integers(0, pk)),
                       st.builds(lambda j: (1 + p * j) % pk, st.integers(0, pk))))
    whole = st.integers(1, 3).map(lambda a: a * period)
    count = st.one_of(st.just(0), st.integers(0, period - 1), whole,
                      st.integers(1, 3 * period).filter(lambda c: c % period))
    counts = draw(st.lists(count, min_size=1, max_size=3))
    return spec, p, k, w, counts


class TestClosedFormSum:
    @settings(max_examples=400, deadline=None)
    @given(_weighted_sum_cases())
    def test_matches_term_by_term_loop(self, case):
        # at every k from 1 to 6, odd and even, blocks of lcm(p^ceil(k/2), d)
        # values against f(eta) from the spec's exact values, embedded one by one
        spec, p, k, w, counts = case
        pk = p**k
        d = 1 if spec.character is None else spec.character.modulus
        table = [embed_cyclotomic(spec.exact_value(eta), p, k) for eta in range(lcm(pk, d))]
        assert (_weighted_sums(spec, _chi_residues(spec, p, k), w, counts, p, k)
                == [_loop_weighted_sum(table, w, count, pk) for count in counts])
