"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every criterion runs at its stated tolerance on its stated grid and asserts
the identity that the package's definitions imply, including at the corners
where a shortened form of an identity is off by a known exact amount:

  * criteria 3 and 9 compare against series that start at m = 1, because
    the m = 0 term q(1+q) chi(0) e^{0} of the geometric expansion has no
    Mellin transform.  The series identity therefore misses chi(0) * 0^n and
    the interpolation identity misses q (1+q)^{n+1} chi(0) 0^n.  Both are
    zero except at (n = 0, modulus 1), where the series gap is exactly 1 and
    L(0 | chi_1) = q^2 - q(1+q) = -q.  The criteria assert these values on
    every case and that the verifiers still report the corner as failing;
  * criterion 4 asserts the modulus-1 reduction with the factor the defining
    kernel exponent d - l + 1 gives at d = 1, l = 0, namely q^2, and that
    the corrected kernel (exponent d - l - 1, i.e. times q^-2) reduces to
    A_n(-q) itself.
"""
import random
import time
from fractions import Fraction
from math import comb, factorial, gcd, lcm

from mpmath import mp

from qeuler.characters import enumerate_characters, principal_character
from qeuler.chi_eulerian import (
    chi_eulerian,
    chi_eulerian_series_check,
    verify_distribution,
    weight_zero_euler,
    weight_zero_genocchi,
)
from qeuler.cyclotomic import CycElem, cyc_embed, cyclotomic_polynomial
from qeuler.eulerian import eulerian_poly, eulerian_series_coeff, witt_value
from qeuler.lfunction import mellin_term_check, verify_interpolation
from qeuler.numtheory import divisors, phi
from qeuler.padic import PadicResidue
from qeuler.padic_verify import (
    corollary4_min_precision,
    corollary4_probe,
    monomial,
    truncated_integrals,
    verify_integral_equation,
    verify_witt_chi,
)
from qeuler.qnumbers import q_samples

Q_THREE = [Fraction(2), Fraction(3), Fraction(7, 2)]


def _summarize(number, name, failures, total, started):
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {number:2}] {status} {name}: "
          f"{total - len(failures)}/{total} cases, {elapsed:.2f}s")
    assert not failures, f"criterion {number}: {len(failures)} failing cases; first: {failures[0]}"


def _poly_mul(a, b):
    """Product of two dense coefficient sequences (index = degree)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_criterion_01_classical_engine_consistency():
    started = time.perf_counter()
    failures, total = [], 0
    t_minus_1_powers = [[1]]
    for _ in range(26):
        t_minus_1_powers.append(_poly_mul(t_minus_1_powers[-1], (-1, 1)))
    for n in range(26):
        total += 1
        poly = eulerian_poly(n)
        residual = [0] * (n + 2)  # sum_k C(n,k) A_k(t) (t-1)^{n-k} - t A_n(t)
        for k in range(n + 1):
            for i, c in enumerate(_poly_mul(eulerian_poly(k).coeffs, t_minus_1_powers[n - k])):
                residual[i] += comb(n, k) * c
        for i, c in enumerate(poly.coeffs):
            residual[i + 1] -= c
        expected = [1, -1] if n == 0 else [0] * (n + 2)
        coeffs = poly.coeffs
        ok = (residual == expected
              and poly.evaluate(1) == factorial(n)
              and len(coeffs) == max(n, 1)
              and all(type(c) is int and c > 0 for c in coeffs)
              and list(coeffs) == list(reversed(coeffs)))
        if not ok:
            failures.append(f"n={n}")
    _summarize(1, "classical engine consistency", failures, total, started)


def test_criterion_02_sign_reconciliation():
    started = time.perf_counter()
    failures, total = [], 0
    points = [Fraction(0), Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(5, 3)]
    k = 2
    while len(points) < 27:
        for cand in (Fraction(k), Fraction(-k)):
            if cand != 1 and cand not in points:
                points.append(cand)
        k += 1
    for n in range(26):
        poly = eulerian_poly(n)
        for x0 in points[: n + 1]:
            total += 1
            if eulerian_series_coeff(n, x0) != Fraction(-1) ** n * poly.evaluate(x0):
                failures.append(f"n={n} x0={x0}")
    _summarize(2, "sign reconciliation (series vs recurrence)", failures, total, started)


def test_criterion_03_series_oracle():
    started = time.perf_counter()
    failures, total = [], 0
    quad3 = enumerate_characters(3)[1]
    spot_ok = (chi_eulerian(0, quad3, 2) == -4 and chi_eulerian(1, quad3, 2) == 12)
    if not spot_ok:
        failures.append("spot values A_0, A_1 for the quadratic character mod 3 at q=2")
    total += 1
    for d in (1, 3, 5, 9):
        for chi in enumerate_characters(d):
            for n in range(9):
                # the m = 0 term that the m >= 1 series leaves out
                gap = chi(0) * 0**n
                for q in Q_THREE:
                    total += 1
                    report = chi_eulerian_series_check(n, chi, q, 128)
                    with mp.workprec(128 + 64):
                        measured = report.lhs - report.rhs
                        off = mp.fabs(measured - cyc_embed(gap, 128 + 32))
                        ok = off <= report.bound
                    if not (ok and report.passed == (not gap)):
                        failures.append(
                            f"n={n} d={d} char={chi.label} q={q}: "
                            f"lhs-rhs={mp.nstr(measured, 15)}, expected gap "
                            f"chi(0)*0^n={gap.to_rational()}, verifier passed={report.passed}")
    _summarize(3, "alternating series oracle at 128 bits", failures, total, started)


def test_criterion_04_degenerate_reduction():
    started = time.perf_counter()
    failures, total = [], 0
    chi0 = principal_character(1)
    d, l = 1, 0  # the only kernel term at modulus 1
    for n in range(13):
        for q in (Fraction(2), Fraction(3), Fraction(5), Fraction(7, 3)):
            total += 1
            value = chi_eulerian(n, chi0, q)
            witt = witt_value(n, q)
            factor = q ** (d - l + 1)
            # the corrected kernel (exponent d - l - 1) is the printed one times q^-2
            if not (value == factor * witt and value / q**2 == witt):
                failures.append(f"n={n} q={q}: value={value.to_rational()}, "
                                f"A_n(-q)={witt}, measured factor={value.to_rational() / witt}, "
                                f"expected q^(d-l+1)={factor}")
    _summarize(4, "modulus-1 reduction A_n = q^2*A_n(-q)", failures, total, started)


def test_criterion_05_distribution_identity():
    started = time.perf_counter()
    failures, total = [], 0
    for d in (1, 3, 5):
        for chi in enumerate_characters(d):
            for n in range(6):
                total += 1
                samples = q_samples(4 * (n + 1) * (d + 1))
                corrected = verify_distribution(n, chi, samples, "corrected")
                if not (corrected.passed and corrected.ratio_is_q_squared):
                    failures.append(f"n={n} d={d} char={chi.label}")
    quad3 = enumerate_characters(3)[1]
    total += 1
    if verify_distribution(0, quad3, [Fraction(2)], "corrected").samples[0].ratio != 4:
        failures.append("spot ratio at q=2 is not 4")
    _summarize(5, "distribution identity (corrected) with q^2 printed ratio", failures, total, started)


WITT_GRID = [(p, q, k) for p in (3, 5, 7) for q in (1 + p, 1 + 2 * p) for k in (1, 2, 3)]


def test_criterion_06_witt_formula():
    started = time.perf_counter()
    failures, total = [], 0
    for p, q, k in WITT_GRID:
        qf = Fraction(q)
        integrals = truncated_integrals([monomial(n) for n in range(7)],
                                        p, qf, "-q^-1", k + 3, k)
        for n, integral in enumerate(integrals):
            total += 1
            reference = PadicResidue.from_rational(
                Fraction(-1) ** n / (1 + qf) ** n * witt_value(n, qf), p, k)
            if integral.residue != reference.residue:
                failures.append(f"n={n} p={p} q={q} k={k}")
    total += 1
    spot = truncated_integrals([monomial(1)], 5, Fraction(6), "-q^-1", 6, 3)[0]
    if spot.residue != 107:
        failures.append(f"spot I(x) mod 125 = {spot.residue} != 107")
    _summarize(6, "fermionic Witt formula mod p^k", failures, total, started)


def test_criterion_07_integral_equations():
    started = time.perf_counter()
    failures, total = [], 0
    cases = [(4, monomial(1), 2), (5, monomial(1), 3), (6, monomial(1), 2),
             (7, monomial(2), 1), (8, monomial(2), 1)]
    for p, q, k in WITT_GRID:
        levels = list(range(1, k + 4))
        for eq, f, n in cases:
            total += 1
            report = verify_integral_equation(eq, f, n, p, q, k, levels)
            if not report.passed:
                failures.append(f"eq={eq} p={p} q={q} k={k} valuations={report.valuations}")
        total += 1
        constant = verify_integral_equation(7, monomial(0), 1, p, q, k, levels)
        if not all(v == k for v in constant.valuations):
            failures.append(f"eq=7 constant case not exact at p={p} q={q} k={k}")
    _summarize(7, "integral equations: valuation >= k, non-decreasing", failures, total, started)


def test_criterion_08_witt_chi_and_corollary4():
    started = time.perf_counter()
    failures, total = [], 0
    pairs = [(3, 3), (5, 5), (9, 3)]
    for d, p in pairs:
        chars = [c for c in enumerate_characters(d) if c.order <= 2]
        for chi in chars:
            for q in (1 + p, 1 + 2 * p):
                for n in range(3):
                    total += 1
                    witt = verify_witt_chi(n, chi, p, q, 2, 5, "corrected")
                    # the candidates differ by 2 S_A (q^2 - 1), so the probe
                    # precision must exceed that gap's valuation
                    k = corollary4_min_precision(n, chi, p, q)
                    probe = corollary4_probe(n, chi, p, q, k, list(range(1, k + 4)))
                    states_both = (probe.candidate_plain is not None
                                   and probe.candidate_scaled is not None)
                    if not (witt.passed and probe.converged_to == "2*S_A" and states_both):
                        failures.append(
                            f"n={n} d={d} char={chi.label} p={p} q={q}: "
                            f"witt={witt.passed} probe={probe.converged_to}")
    _summarize(8, "character Witt formula (corrected) and unnormalized-sum probe",
               failures, total, started)


def test_criterion_09_interpolation():
    started = time.perf_counter()
    failures, total = [], 0
    quad3 = enumerate_characters(3)[1]
    with mp.workprec(192):
        spot0 = verify_interpolation(0, quad3, 2, 128)
        spot1 = verify_interpolation(1, quad3, 2, 128)
        total += 1
        if not (mp.fabs(spot0.lhs + 4) < mp.mpf(2) ** -100
                and mp.fabs(spot1.lhs + 12) < mp.mpf(2) ** -100):
            failures.append("spot values L(0) = -4, L(-1) = -12")
    for d in (1, 3, 5):
        for chi in enumerate_characters(d):
            for n in range(9):
                gap = chi(0) * 0**n
                for q in Q_THREE:
                    total += 1
                    # the L-series starts at m = 1 and so misses q(1+q)^{n+1} chi(0) 0^n
                    boundary = q * (1 + q) ** (n + 1) * gap
                    expected = (-1) ** n * chi_eulerian(n, chi, q) - boundary
                    report = verify_interpolation(n, chi, q, 128)
                    with mp.workprec(128 + 64):
                        measured = report.lhs - report.rhs
                        off = mp.fabs(report.lhs - cyc_embed(expected, 128 + 32))
                        ok = off <= report.bound
                    corner_ok = not gap or expected == -q
                    if not (ok and corner_ok and report.passed == (not gap)):
                        failures.append(
                            f"n={n} d={d} char={chi.label} q={q}: "
                            f"L-(-1)^n*A_n={mp.nstr(measured, 15)}, expected "
                            f"-q(1+q)^(n+1)*chi(0)*0^n={(-boundary).to_rational()}, "
                            f"verifier passed={report.passed}")
    _summarize(9, "L-function interpolation at negative integers", failures, total, started)


def test_criterion_10_mellin_term():
    started = time.perf_counter()
    failures, total = [], 0
    for s, m, q in ((Fraction(2), 1, Fraction(2)), (Fraction(1), 2, Fraction(1)),
                    (Fraction(3, 2), 1, Fraction(2))):
        total += 1
        report = mellin_term_check(s, m, q, 128)
        with mp.workprec(192):
            ok = report.passed and mp.fabs(report.lhs - report.rhs) < mp.mpf(2) ** -64
        if not ok:
            failures.append(f"s={s} m={m} q={q}")
    total += 1
    with mp.workprec(192):
        exact = mellin_term_check(Fraction(2), 1, Fraction(2), 128)
        if not mp.fabs(exact.lhs - mp.mpf(1) / 9) < mp.mpf(2) ** -64:
            failures.append("exact value 1/9 at (2, 1, 2)")
    _summarize(10, "Mellin term-wise Gamma identity to 2^-64", failures, total, started)


def _random_fraction(rng, span=40):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def test_criterion_11_kernel_law_suites():
    started = time.perf_counter()
    failures, total = [], 0
    rng = random.Random(20260811)

    for _ in range(500):  # rational ring laws
        total += 1
        a, b, c = (_random_fraction(rng) for _ in range(3))
        if not (a * (b + c) == a * b + a * c and (a * b) * c == a * (b * c)):
            failures.append(f"rational laws {a} {b} {c}")

    orders = [1, 2, 3, 4, 5, 6, 8, 9, 12]
    for _ in range(500):  # cyclotomic field laws
        total += 1
        m = rng.choice(orders)
        make = lambda: CycElem(m, [_random_fraction(rng, 8) for _ in range(phi(m))])
        a, b, c = make(), make(), make()
        if not ((a * b) * c == a * (b * c) and a * (b + c) == a * b + a * c):
            failures.append(f"cyclotomic laws at order {m}")

    for _ in range(500):  # reduction is multiplicative
        total += 1
        m = rng.choice(orders)
        a = [rng.randint(-9, 9) for _ in range(rng.randint(0, 9))]
        b = [rng.randint(-9, 9) for _ in range(rng.randint(0, 9))]
        if CycElem(m, _poly_mul(a, b)) != CycElem(m, a) * CycElem(m, b):
            failures.append(f"reduction multiplicativity at order {m}")

    for m in range(1, 61):  # cyclotomic factorization of x^m - 1
        total += 1
        product = [1]
        for d in divisors(m):
            product = _poly_mul(product, cyclotomic_polynomial(d))
        if product != [-1] + [0] * (m - 1) + [1]:
            failures.append(f"divisor product at m={m}")

    for _ in range(500):  # residue embedding is a ring homomorphism
        total += 1
        p = rng.choice([3, 5, 7])
        k = rng.randint(1, 8)
        def frac():
            num = rng.randint(-300, 300)
            den = rng.randint(1, 300)
            while den % p == 0:
                den = rng.randint(1, 300)
            return Fraction(num, den)
        a, b = frac(), frac()
        emb = lambda x: PadicResidue.from_rational(x, p, k).residue
        if not (emb(a + b) == (emb(a) + emb(b)) % p**k and emb(a * b) == emb(a) * emb(b) % p**k):
            failures.append(f"padic homomorphism p={p} k={k}")

    for _ in range(500):  # series division against the triangle at random rational points
        total += 1
        n = rng.randint(0, 12)
        x0 = _random_fraction(rng)
        while x0 == 1:
            x0 = _random_fraction(rng)
        if eulerian_series_coeff(n, x0) != (-1) ** n * eulerian_poly(n).evaluate(x0):
            failures.append(f"series coefficient n={n} x0={x0}")

    pair_count = 0  # orthogonality, exhaustive per modulus
    for d in (3, 5, 9, 15, 21, 27):
        chars = enumerate_characters(d)
        conjugates = [c.conjugate() for c in chars]
        tables = [c.values() for c in chars]
        conj_tables = [c.values() for c in conjugates]
        units = [a for a in range(d) if gcd(a, d) == 1]
        for i, chi in enumerate(chars):
            for j, psi in enumerate(chars):
                total += 1
                pair_count += 1
                target = lcm(chi.order, conjugates[j].order)
                acc = CycElem.zero(target)
                for a in units:
                    acc = acc + tables[i][a] * conj_tables[j][a]
                expected = phi(d) if i == j else 0
                if acc != expected:
                    failures.append(f"orthogonality d={d} pair=({i},{j})")
    assert pair_count >= 500
    _summarize(11, "kernel law suites (>= 500 instances each)", failures, total, started)
