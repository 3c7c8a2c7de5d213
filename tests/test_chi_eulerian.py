"""Character-attached Eulerian values, weight-zero families, distribution identity."""
import importlib
from fractions import Fraction
from math import comb, factorial, lcm
from typing import Sequence

import pytest
from mpmath import mp

from qeuler.characters import enumerate_characters, principal_character
from qeuler.chi_eulerian import (
    DistributionSample,
    chi_eulerian,
    chi_eulerian_columns,
    chi_eulerian_series_check,
    chi_eulerian_values,
    kernel_series_check,
    series_reference,
    verify_distribution,
    weight_zero_euler,
    weight_zero_euler_values,
    weight_zero_genocchi,
)
from qeuler.cyclotomic import CycElem
from qeuler.errors import ConvergenceDomain, DegenerateSample, PoleAtMinusOne, PoleQ
from qeuler.eulerian import witt_value
from qeuler.qnumbers import q_number, q_samples
from qeuler.serialize import render_rational, render_value
from qeuler.tables import TableOptions, build_table

chi_eulerian_module = importlib.import_module("qeuler.chi_eulerian")  # the package re-exports a function of that name

QUAD3 = enumerate_characters(3)[1]
MOD1 = principal_character(1)
ORACLE_Q = (Fraction(2), Fraction(11, 10), Fraction(9, 4), Fraction(7, 3), Fraction(-3))


def kernel_recurrence(kernel: Sequence[CycElem], q: Fraction, max_n: int, order: int) -> list[CycElem]:
    """Solve (1 + q^d) A_n = R_n - sum_{k<n} C(n,k) A_k (-d(1+q))^{n-k}.

    The exact oracle for the closed form: clearing the denominator of the
    generating function and matching t^n/n! coefficients gives this linear
    recurrence, R_n = sum_{l<d} kernel[l] (-l(1+q))^n.  ``kernel`` holds the
    l-th numerator coefficient (any character-like weights), so linearity in
    the kernel can be checked too.
    """
    d = len(kernel)
    lead = 1 + q**d
    step = -d * (1 + q)
    values: list[CycElem] = []
    for n in range(max_n + 1):
        acc = CycElem.zero(order)
        for l in range(d):
            if kernel[l]:
                acc = acc + kernel[l] * (Fraction(-l) * (1 + q)) ** n
        for k in range(n):
            acc = acc - (comb(n, k) * step ** (n - k)) * values[k]
        values.append(acc / lead)
    return values


def character_kernel(chi, q: Fraction) -> list[CycElem]:
    """Kernel coefficients (1+q) (-1)^l q^{d-l+1} chi(l) for l < d."""
    d = chi.modulus
    return [((-1) ** l * (1 + q) * q ** (d - l + 1)) * chi(l) for l in range(d)]


# q = (9/4)^-7 gives the recurrences large coprime numerators and denominators
WEIGHT_ZERO_Q = (Fraction(0), Fraction(1), Fraction(2), Fraction(-3), Fraction(1, 5),
                 Fraction(-7, 3), Fraction(-1, 2), Fraction(9, 4) ** -7)
WEIGHT_ZERO_X = (Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 2), Fraction(5, 7), Fraction(-1, 2))
WEIGHT_ZERO_GRID = [pytest.param(q, x, id=f"q={q},x={x}") for q in WEIGHT_ZERO_Q for x in WEIGHT_ZERO_X]


def series_quotient(num: Sequence[Fraction], den: Sequence[Fraction]) -> list[Fraction]:
    """Power-series coefficients of num/den, as many as ``num`` has, by long division."""
    out: list[Fraction] = []
    for n, c in enumerate(num):
        out.append((c - sum(out[k] * den[n - k] for k in range(n))) / den[0])
    return out


def weight_zero_series(q: Fraction, x: Fraction, count: int, genocchi: bool) -> list[Fraction]:
    """The first ``count`` coefficients of t^n/n! in (1+q) t^s e^{xt} / (q e^t + 1),
    s = 1 for the Genocchi family and 0 for the Euler one, from the expanded
    exponentials (ordinary coefficients x^n/n! and q/n!)."""
    shift = int(genocchi)
    num = [Fraction(0)] * shift + [(1 + q) * x**n / factorial(n) for n in range(count - shift)]
    den = [1 + q] + [q / factorial(n) for n in range(1, count)]
    return [factorial(n) * c for n, c in enumerate(series_quotient(num, den))]


class TestChiEulerian:
    def test_spot_n0(self):
        assert chi_eulerian(0, QUAD3, 2) == -4

    def test_spot_n1(self):
        assert chi_eulerian(1, QUAD3, 2) == 12

    @pytest.mark.parametrize("q", [Fraction(2), Fraction(4), Fraction(7, 2)])
    def test_closed_form_n0(self, q):
        # geometric summation of the quadratic mod-3 kernel gives
        # -q^2 (1+q)^2 / (1+q^3) at n = 0
        expected = -(q**2) * (1 + q) ** 2 / (1 + q**3)
        assert chi_eulerian(0, QUAD3, q) == expected

    @pytest.mark.parametrize("q", [Fraction(2), Fraction(3), Fraction(5), Fraction(7, 3)])
    @pytest.mark.parametrize("n", range(13))
    def test_modulus_one_reduction_measures_q_squared(self, n, q):
        # the kernel exponent d-l+1 contributes q^2 at d=1, l=0, so the
        # modulus-1 values are q^2 * A_n(-q) (not q * A_n(-q))
        assert chi_eulerian(n, MOD1, q) == q**2 * witt_value(n, q)

    def test_pole_rejection(self):
        with pytest.raises(PoleQ):
            chi_eulerian(1, QUAD3, 0)
        with pytest.raises(PoleQ):
            chi_eulerian(1, QUAD3, -1)

    def test_negative_index(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            chi_eulerian(-1, QUAD3, 2)

    @pytest.mark.parametrize("ns", [[-1, 2], [3, -2], [-5]])
    def test_values_refuse_a_negative_index(self, ns):
        with pytest.raises(ValueError, match="n must be >= 0"):
            chi_eulerian_values(ns, QUAD3, 2)

    def test_character_linearity(self):
        # summing the recurrence over all chi mod 5 equals running it once
        # with the summed kernel, which collapses to phi(d) * [l == 1]
        d, q, max_n = 5, Fraction(2), 4
        chars = enumerate_characters(d)
        target = lcm(*(c.order for c in chars))
        indicator = [
            CycElem.from_rational(4 * (-1) ** l * (1 + q) * q ** (d - l + 1)) if l == 1
            else CycElem.zero(1)
            for l in range(d)
        ]
        for n in range(max_n + 1):
            total = CycElem.zero(target)
            for chi in chars:
                total = total + chi_eulerian(n, chi, q)
            summed_kernel = [CycElem.zero(target)] * d
            for chi in chars:
                summed_kernel = [a + b for a, b in zip(summed_kernel, character_kernel(chi, q))]
            assert total == kernel_recurrence(summed_kernel, q, n, target)[n]
            assert total == kernel_recurrence(indicator, q, n, 1)[n]


class TestClosedFormAgainstRecurrence:
    """The closed form equals the kernel recurrence, coefficient for coefficient."""

    @staticmethod
    def assert_matches_recurrence(chi, q, max_n):
        table = kernel_recurrence(character_kernel(chi, q), q, max_n, chi.order)
        column = chi_eulerian_values(range(max_n + 1), chi, q)
        assert len(column) == len(table)
        for n, (expected, from_column) in enumerate(zip(table, column)):
            for value in (chi_eulerian(n, chi, q), from_column):
                assert (value.order, value.coeffs) == (expected.order, expected.coeffs), (chi.label, n)

    @pytest.mark.parametrize("d", [1, 7, 13])
    def test_values_follow_the_given_order_of_n(self, d):
        # one triangle pass serves unsorted and repeated n, each value in the place it was asked for
        chi, q, ns = max(enumerate_characters(d), key=lambda c: c.order), Fraction(9, 4), [17, 0, 5, 17, 3, 0]
        table = kernel_recurrence(character_kernel(chi, q), q, max(ns), chi.order)
        values = chi_eulerian_values(ns, chi, q)
        assert [(v.order, v.coeffs) for v in values] == [(table[n].order, table[n].coeffs) for n in ns]

    @pytest.mark.parametrize("q", ORACLE_Q, ids=str)
    @pytest.mark.parametrize("d", [1, 7, 9, 13, 15, 21])
    def test_every_character_small_n(self, d, q):
        for chi in enumerate_characters(d):
            self.assert_matches_recurrence(chi, q, 12)

    @pytest.mark.parametrize("q", ORACLE_Q, ids=str)
    @pytest.mark.parametrize("d", [1, 7, 9, 13, 15, 21, 43])
    def test_largest_order_character_to_n_80(self, d, q):
        self.assert_matches_recurrence(max(enumerate_characters(d), key=lambda c: c.order), q, 80)


class TestClassEngine:
    """One class pass per (d, q) serves every character of modulus d."""

    @pytest.mark.parametrize("q", [Fraction(2), Fraction(11, 10), Fraction(-3, 2), Fraction(1, 3)], ids=str)
    @pytest.mark.parametrize("d", [1, 3, 5, 7, 9, 15, 21])
    def test_every_character_matches_the_recurrence(self, d, q):
        chars = enumerate_characters(d)
        for chi, column in zip(chars, chi_eulerian_columns(range(31), chars, q), strict=True):
            table = kernel_recurrence(character_kernel(chi, q), q, 30, chi.order)
            assert [(v.order, v.coeffs) for v in column] == [(v.order, v.coeffs) for v in table], chi.label

    @pytest.mark.parametrize("d", [1, 7, 15])
    def test_unsorted_and_repeated_n(self, d):
        chars, q, ns = enumerate_characters(d), Fraction(-3, 2), [9, 0, 4, 9, 2, 0, 11]
        columns = chi_eulerian_columns(ns, chars, q)
        for chi, column in zip(chars, columns, strict=True):
            table = kernel_recurrence(character_kernel(chi, q), q, max(ns), chi.order)
            expected = [(table[n].order, table[n].coeffs) for n in ns]
            assert [(v.order, v.coeffs) for v in column] == expected, chi.label
            assert [(v.order, v.coeffs) for v in chi_eulerian_values(ns, chi, q)] == expected, chi.label

    @pytest.mark.parametrize("d", [1, 5, 7, 15])
    def test_one_frobenius_euler_pass_per_q_in_a_table(self, d, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return frobenius_euler(*args)

        frobenius_euler = chi_eulerian_module._frobenius_euler
        monkeypatch.setattr(chi_eulerian_module, "_frobenius_euler", counted)
        qs, max_n = [Fraction(2), Fraction(-1, 3), Fraction(11, 10)], 9
        _, rows = build_table(TableOptions("chi-eulerian", max_n=max_n, modulus=d, q_list=qs))
        assert len(calls) == len(qs)
        columns = [(chi, q, chi_eulerian_values(range(max_n + 1), chi, q))
                   for chi in enumerate_characters(d) for q in qs]
        assert rows == [{"n": n, "modulus": d, "char": chi.index, "q": render_rational(q),
                         "value": render_value(values[n])}
                        for n in range(max_n + 1) for chi, q, values in columns]


class TestSeriesChecks:
    def test_spot_reference_values(self):
        assert series_reference(0, QUAD3, 2) == Fraction(-2, 3)
        assert series_reference(1, QUAD3, 2) == Fraction(-2, 3)
        assert series_reference(2, QUAD3, 2) == Fraction(-2, 9)

    @pytest.mark.parametrize("n", range(5))
    def test_alternating_series_matches(self, n):
        report = chi_eulerian_series_check(n, QUAD3, 2, 128)
        assert report.passed

    def test_kernel_series_agrees_everywhere(self):
        # the m >= 0 expansion includes the boundary term, so it matches the
        # recurrence for every modulus, including d = 1 at n = 0
        for n in (0, 1, 3):
            assert kernel_series_check(n, MOD1, 2, 128).passed
            assert kernel_series_check(n, QUAD3, Fraction(7, 2), 128).passed

    def test_modulus_one_constant_term_gap(self):
        # dropping m = 0 loses exactly chi(0) * 0^0 = 1 when d = 1, n = 0
        for q in (Fraction(2), Fraction(3), Fraction(7, 2)):
            report = chi_eulerian_series_check(0, MOD1, q, 128)
            assert not report.passed
            with mp.workprec(160):
                assert mp.fabs((report.lhs - report.rhs) - 1) < mp.mpf(2) ** -100

    def test_modulus_one_positive_n_matches(self):
        for n in (1, 2, 5):
            assert chi_eulerian_series_check(n, MOD1, 2, 128).passed

    def test_kernel_oracle_agreement_grid(self):
        # the recurrence against the m >= 0 geometric expansion, everywhere
        for d in (1, 3, 5, 9):
            for chi in enumerate_characters(d):
                for n in range(9):
                    for q in (Fraction(2), Fraction(3), Fraction(7, 2)):
                        assert kernel_series_check(n, chi, q, 128).passed, (n, d, chi.label, q)

    def test_convergence_domain(self):
        with pytest.raises(ConvergenceDomain):
            chi_eulerian_series_check(1, QUAD3, 1, 128)

    def test_series_check_negative_index(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            chi_eulerian_series_check(-1, QUAD3, 2)

    def test_kernel_series_check_negative_index(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            kernel_series_check(-1, QUAD3, 2)


class TestWeightZeroFamilies:
    def test_e0_is_one(self):
        assert weight_zero_euler(0, Fraction(9, 4), Fraction(3, 7)) == 1

    def test_e1(self):
        assert weight_zero_euler(1, 2, 0) == Fraction(-2, 3)
        assert weight_zero_euler(1, 2, Fraction(2, 3)) == 0

    def test_e1_formula(self):
        for q in (Fraction(2), Fraction(1), Fraction(5, 3)):
            for x in (Fraction(0), Fraction(1, 2)):
                assert weight_zero_euler(1, q, x) == x - q / (1 + q)

    def test_genocchi_factor(self):
        assert weight_zero_genocchi(1, 5, 0) == 1
        assert weight_zero_genocchi(2, 2, 0) == Fraction(-4, 3)
        assert weight_zero_genocchi(3, 1, 0) == 0

    @pytest.mark.parametrize("q,x", WEIGHT_ZERO_GRID)
    def test_genocchi_euler_relation(self, q, x):
        # two independent recurrences: G~_{n+1} = (n+1) E~_n
        euler = weight_zero_euler_values(19, q, x)
        for n1 in range(1, 21):
            assert weight_zero_genocchi(n1, q, x) == n1 * euler[n1 - 1]

    @pytest.mark.parametrize("q,x", WEIGHT_ZERO_GRID)
    def test_euler_matches_generating_function(self, q, x):
        values = weight_zero_euler_values(24, q, x)
        assert all(type(v) is Fraction for v in values)
        assert values == weight_zero_series(q, x, 25, genocchi=False)

    @pytest.mark.parametrize("q,x", WEIGHT_ZERO_GRID)
    def test_genocchi_matches_generating_function(self, q, x):
        expected = weight_zero_series(q, x, 26, genocchi=True)
        assert expected[0] == 0
        for n1 in range(1, 26):
            value = weight_zero_genocchi(n1, q, x)
            assert type(value) is Fraction
            assert value == expected[n1]

    def test_empty_euler_range(self):
        assert weight_zero_euler_values(-1, 2, 0) == []
        assert weight_zero_euler_values(-1, Fraction(9, 4) ** -7, Fraction(5, 7)) == []

    def test_q_one_allowed(self):
        assert weight_zero_euler(2, 1, 0) == 0

    def test_pole(self):
        with pytest.raises(PoleAtMinusOne):
            weight_zero_euler(2, -1, 0)

    def test_negative_index(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            weight_zero_euler(-1, 2, 0)


def distribution_by_fractions(n: int, chi, q_samples, variant: str) -> list[DistributionSample]:
    """The distribution samples with the right-hand side summed residue by residue in reduced Fractions,
    one weight-zero value per residue: the oracle for the integer buckets of ``verify_distribution``."""
    d, m = chi.modulus, chi.order
    samples = []
    for qf in map(Fraction, q_samples):
        lhs_printed = (Fraction((-1) ** n) / (1 + qf) ** n) * chi_eulerian(n, chi, qf)
        lhs_corrected = lhs_printed / qf**2
        qd, coeff = qf ** (-d), Fraction(d) ** n / q_number(d, -1 / qf)
        euler, genocchi = [0] * m, [0] * m
        for a, j in enumerate(chi.zeta_exponents()):
            if j is not None:
                w, x = Fraction((-1) ** a) / qf**a, Fraction(a, d)
                euler[j] += w * weight_zero_euler(n, qd, x)
                genocchi[j] += w * weight_zero_genocchi(n + 1, qd, x)
        rhs_euler = coeff * CycElem(m, euler)
        rhs_genocchi = coeff / (n + 1) * CycElem(m, genocchi)
        ratio = lhs_printed.rational_ratio(rhs_euler) if rhs_euler else None
        lhs = lhs_corrected if variant == "corrected" else lhs_printed
        samples.append(DistributionSample(qf, lhs_printed, lhs_corrected, rhs_euler, rhs_genocchi, ratio,
                                          lhs == rhs_euler, rhs_euler == rhs_genocchi))
    return samples


def sample_fields(sample: DistributionSample) -> tuple:
    """Every field of a sample, with each CycElem as its order and its typed coordinates."""
    return tuple((v.order, tuple((type(c), c) for c in v.coeffs)) if isinstance(v, CycElem) else (type(v), v)
                 for v in vars(sample).values())


class TestDistribution:
    @pytest.mark.parametrize("variant", ["corrected", "printed"])
    @pytest.mark.parametrize("d", [1, 3, 5, 7, 9, 15])
    def test_integer_buckets_match_the_fraction_oracle(self, d, variant):
        qs = [Fraction(-2), Fraction(-1, 2), Fraction(1, 3), Fraction(5, 2)]
        for chi in enumerate_characters(d):
            for n in range(9):
                result = verify_distribution(n, chi, qs, variant)
                expected = distribution_by_fractions(n, chi, qs, variant)
                assert [sample_fields(s) for s in result.samples] == [sample_fields(s) for s in expected]
                assert result.passed == all(s.ok and s.genocchi_ok for s in expected)
                assert result.ratio_is_q_squared == all(s.ratio == s.q**2 for s in expected if s.rhs_euler)

    @pytest.mark.parametrize("bad", [Fraction(0), Fraction(-1)])
    def test_degenerate_sample_after_a_good_one(self, bad):
        with pytest.raises(DegenerateSample, match=f"q = {bad} is excluded for modulus 5"):
            verify_distribution(2, enumerate_characters(5)[1], [Fraction(2), bad], "corrected")

    def test_spot_case(self):
        result = verify_distribution(0, QUAD3, [2], "corrected")
        sample = result.samples[0]
        assert sample.rhs_euler == -1
        assert sample.lhs_corrected == -1
        assert sample.lhs_printed == -4
        assert sample.ratio == 4
        assert result.passed and result.ratio_is_q_squared

    def test_printed_fails_by_q_squared(self):
        result = verify_distribution(0, QUAD3, [2, 3, Fraction(7, 2)], "printed")
        assert not result.passed
        assert result.ratio_is_q_squared

    def test_modulus_one_reduces_to_witt(self):
        # with A_n = q^2 A_n(-q) at d = 1, the corrected side equals the
        # classical fermionic-integral value, so the identity holds exactly
        result = verify_distribution(3, MOD1, q_samples(10), "corrected")
        assert result.passed

    @pytest.mark.parametrize("d", [1, 3, 5])
    @pytest.mark.parametrize("n", range(3))
    def test_corrected_at_proof_scale(self, n, d):
        count = 4 * (n + 1) * (d + 1)
        for chi in enumerate_characters(d):
            result = verify_distribution(n, chi, q_samples(count), "corrected")
            assert result.passed
            assert result.ratio_is_q_squared

    def test_genocchi_form_trivial_case(self):
        chi = principal_character(3)
        result = verify_distribution(0, chi, [3], "corrected")
        assert result.samples[0].rhs_euler == result.samples[0].rhs_genocchi

    def test_degenerate_sample(self):
        with pytest.raises(DegenerateSample):
            verify_distribution(0, QUAD3, [Fraction(-1)], "corrected")

    @pytest.mark.parametrize("variant", ["corrected", "printed"])
    def test_no_samples_is_refused(self, variant):
        # zero samples prove nothing, so they must not read as a pass
        with pytest.raises(ValueError, match="at least one q sample"):
            verify_distribution(0, QUAD3, [], variant)
        with pytest.raises(ValueError, match="at least one q sample"):
            verify_distribution(2, MOD1, iter(()), variant)
