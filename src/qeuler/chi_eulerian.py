"""Eulerian polynomial values attached to a Dirichlet character, exactly.

The defining generating function (d = modulus of chi, kernel exponent
d - l + 1 kept exactly as in the classical display) is

    sum_n A_n(chi, -q) t^n/n!
        = (1+q) sum_{l<d} (-1)^l q^{d-l+1} chi(l) e^{-l(1+q)t} / (e^{-d(1+q)t} + q^d).

Under T = -d(1+q)t each term is a Frobenius-Euler function
(1-u) e^{xT}/(e^T - u) at x = l/d, u = -q^d, whose coefficients are
H_n(x; u) = sum_k C(n,k) H_k(u) x^{n-k} with H_k(u) = A_k(u)/(u-1)^k
(Carlitz, "Eulerian numbers and polynomials", Math. Mag. 32, 1959).  With
q = a/b and D = a^d + b^d the engine works in integers from the Eulerian
triangle:

    h_0 = 1,  h_k = (-1)^k b^d sum_i <k,i> (-a^d)^i (b^d)^{k-1-i},
    I_l = sum_k C(n,k) h_k d^k (D l)^{n-k},
    A_n(chi, -q) = (-1)^n (a+b)^{n+1} / (b^{n+2} D^{n+1}) sum_l (-1)^l a^{d-l+1} b^l chi(l) I_l,

summing by the zeta_m exponent of chi(l), with one reduction modulo Phi_m and
no memo.  The linear recurrence from clearing the denominator is the exact
test oracle (tests/test_chi_eulerian.py).  Since E~_{n,q}(x) = H_n(x; -1/q),
the weight-zero families keep their own recurrences: the distribution check
would otherwise compare one sum with itself.

Expanding geometrically yields q (1+q) sum_{m>=0} (-1)^m chi(m) q^{-m} e^{-m(1+q)t},
the oracle ``kernel_series_check`` verifies numerically.  Dropping the m = 0
term (it vanishes unless n = 0 and chi has modulus 1) and scaling gives the
form checked by ``chi_eulerian_series_check``:

    (-1)^n A_n(chi, -q) / (q (1+q)^{n+1}) = sum_{m>=1} (-1)^m chi(m) m^n q^{-m}.

A second, re-derived kernel exponent d - l - 1 differs from the one above by
exactly q^2; the distribution and integral checks therefore carry a variant
switch ("printed" = kernel d - l + 1 taken at face value, "corrected" =
multiply the polynomial side by q^{-2}) and measure the ratio instead of
trusting either form.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence, Union

from mpmath import mp

from .characters import DirichletCharacter
from .cyclotomic import CycElem, cyc_embed
from .errors import ConvergenceDomain, DegenerateSample, PoleAtMinusOne, PoleQ
from .eulerian import eulerian_poly
from .numerics import _pair, _power, _round, alternating_character_sum, choose_truncation, to_mpf
from .qnumbers import q_number

Scalar = Union[int, Fraction]


def chi_eulerian(n: int, chi: DirichletCharacter, q: Scalar) -> CycElem:
    """A_n(chi, -q) in closed form from the Eulerian triangle (see the module docstring)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    qf = Fraction(q)
    d, m = chi.modulus, chi.order
    if qf == 0 or qf == -1 or qf**d == -1:
        raise PoleQ(f"q = {qf} is an excluded value for modulus {d}")
    a, b = qf.numerator, qf.denominator
    ad, bd = a**d, b**d
    D = ad + bd
    ad_pow, bd_pow = [(-ad) ** i for i in range(n + 1)], [bd**i for i in range(n + 1)]
    # g_k = C(n,k) h_k d^k, so that I_l is the polynomial sum_k g_k x^{n-k} at x = D l
    g = [1]
    for k in range(1, n + 1):
        row = eulerian_poly(k).coeffs
        h = sum(c * ad_pow[i] * bd_pow[k - 1 - i] for i, c in enumerate(row))
        g.append(comb(n, k) * (-1) ** k * bd * h * d**k)
    buckets = [0] * m
    for l, j in enumerate(chi.zeta_exponents()):
        if j is None:
            continue
        x, acc = D * l, 0
        for gk in g:
            acc = acc * x + gk
        buckets[j] += (-1) ** l * a ** (d - l + 1) * b**l * acc
    return CycElem(m, buckets) * Fraction((-1) ** n * (a + b) ** (n + 1), b ** (n + 2) * D ** (n + 1))


def series_reference(n: int, chi: DirichletCharacter, q: Scalar) -> CycElem:
    """(-1)^n A_n(chi, -q) / (q (1+q)^{n+1}), the exact series-side value."""
    qf = Fraction(q)
    return (Fraction((-1) ** n) / (qf * (1 + qf) ** (n + 1))) * chi_eulerian(n, chi, qf)


@dataclass(frozen=True)
class SeriesCheck:
    n: int
    character: DirichletCharacter
    q: Fraction
    bits: int
    lhs: object
    rhs: object
    tail_bound: object
    slack: object
    terms: int
    passed: bool
    form: str


def chi_eulerian_series_check(n: int, chi: DirichletCharacter, q: Scalar, bits: int = 128) -> SeriesCheck:
    """Compare the exact value of (-1)^n A_n / (q(1+q)^{n+1}) with the partial
    sum of sum_{m>=1} (-1)^m chi(m) m^n q^{-m}, under a certified tail bound.

    The exact gap between the two sides is the dropped m = 0 term
    chi(0) * 0^n: zero except at n = 0 for modulus 1, where it is 1 and the
    check fails.
    """
    qf = Fraction(q)
    if qf <= 1:
        raise ConvergenceDomain("the alternating character series needs q > 1")
    with mp.workprec(bits + 64):
        M, tail = choose_truncation(n, qf, bits - 4)
        prec = mp.prec
        acc = alternating_character_sum(chi, qf, bits, M, lambda m: _power(m, 0, n, prec))
        lhs = cyc_embed(series_reference(n, chi, qf), bits + 32)
        slack = mp.mpf(2) ** (-bits + 8)
        passed = mp.fabs(lhs - acc) <= tail + slack
        return SeriesCheck(n, chi, qf, bits, +lhs, +acc, +tail, +slack, M, bool(passed), "m>=1")


def kernel_series_check(n: int, chi: DirichletCharacter, q: Scalar, bits: int = 128) -> SeriesCheck:
    """Compare A_n (closed form) with the partial sum of the full geometric
    expansion q(1+q) sum_{m>=0} (-1)^m chi(m) q^{-m} (-m(1+q))^n."""
    qf = Fraction(q)
    if qf <= 1:
        raise ConvergenceDomain("the geometric kernel expansion needs q > 1")
    with mp.workprec(bits + 64):
        M, tail_raw = choose_truncation(n, qf, bits - 4)
        scale = to_mpf(qf * (1 + qf) ** (n + 1))
        prec = mp.prec
        om, oe = _pair(to_mpf(1 + qf)._mpf_, prec)

        def term(m):  # (-m (1+q))^n
            return _power(*_round(-m * om, oe, prec), n, prec)

        acc = alternating_character_sum(chi, qf, bits, M, term, start=0)
        acc *= to_mpf(qf * (1 + qf))
        lhs = cyc_embed(chi_eulerian(n, chi, qf), bits + 32)
        tail = mp.fabs(scale) * tail_raw
        slack = mp.mpf(2) ** (-bits + 8)
        passed = mp.fabs(lhs - acc) <= tail + slack
        return SeriesCheck(n, chi, qf, bits, +lhs, +acc, +tail, +slack, M, bool(passed), "m>=0")


def weight_zero_euler_values(max_n: int, q: Scalar, x: Scalar) -> list[Fraction]:
    """E~_0..E~_max_n at (q, x) from q sum_k C(n,k) E~_k + E~_n = (1+q) x^n."""
    qf, xf = Fraction(q), Fraction(x)
    if qf == -1:
        raise PoleAtMinusOne("weight-zero polynomials have a pole at q = -1")
    out: list[Fraction] = []
    for n in range(max_n + 1):
        acc = (1 + qf) * xf**n
        for k in range(n):
            acc -= qf * comb(n, k) * out[k]
        out.append(acc / (1 + qf))
    return out


def weight_zero_euler(n: int, q: Scalar, x: Scalar) -> Fraction:
    if n < 0:
        raise ValueError("n must be >= 0")
    return weight_zero_euler_values(n, q, x)[n]


def weight_zero_genocchi(n_plus_1: int, q: Scalar, x: Scalar) -> Fraction:
    """G~_{n+1} at (q, x) from its own generating function (1+q) t e^{xt} / (q e^t + 1):

        (1+q) G~_n = (1+q) n x^{n-1} - q sum_{k<n} C(n,k) G~_k,   G~_0 = 0.

    Never computed from E~; G~_{n+1} = (n+1) E~_n is what the distribution
    check's Genocchi route tests.
    """
    if n_plus_1 < 1:
        raise ValueError("index must be >= 1")
    qf, xf = Fraction(q), Fraction(x)
    if qf == -1:
        raise PoleAtMinusOne("weight-zero polynomials have a pole at q = -1")
    out: list[Fraction] = [Fraction(0)]
    for n in range(1, n_plus_1 + 1):
        acc = (1 + qf) * n * xf ** (n - 1)
        for k in range(1, n):
            acc -= qf * comb(n, k) * out[k]
        out.append(acc / (1 + qf))
    return out[n_plus_1]


@dataclass(frozen=True)
class DistributionSample:
    q: Fraction
    lhs_printed: CycElem
    lhs_corrected: CycElem
    rhs_euler: CycElem
    rhs_genocchi: CycElem
    ratio: Fraction | None
    ok: bool
    genocchi_ok: bool


@dataclass(frozen=True)
class DistributionResult:
    n: int
    character: DirichletCharacter
    variant: str
    samples: tuple[DistributionSample, ...]
    passed: bool
    ratio_is_q_squared: bool


def verify_distribution(n: int, chi: DirichletCharacter, q_samples: Sequence[Scalar],
                        variant: str = "corrected") -> DistributionResult:
    """Check the distribution identity at each q sample.

    printed:    (-1)^n (1+q)^{-n} A_n(chi,-q) = RHS
    corrected:  q^{-2} (-1)^n (1+q)^{-n} A_n(chi,-q) = RHS
    RHS = d^n / [d]_{-1/q} * sum_{a<d} (-1)^a chi(a) q^{-a} E~_{n,q^{-d}}(a/d),
    with the Genocchi form (G~_{n+1}/(n+1) in place of E~_n) cross-checked.

    Agreement at more samples than the degree bound of both sides (as rational
    functions of q) proves the identity; sampling counts are the caller's job.
    """
    if variant not in ("printed", "corrected"):
        raise ValueError("variant must be 'printed' or 'corrected'")
    d, m = chi.modulus, chi.order
    samples: list[DistributionSample] = []
    all_ok = ratio_ok = True
    for q in q_samples:
        qf = Fraction(q)
        if qf == 0 or qf == -1 or qf**d == -1:
            raise DegenerateSample(f"q = {qf} is excluded for modulus {d}")
        lhs_printed = (Fraction((-1) ** n) / (1 + qf) ** n) * chi_eulerian(n, chi, qf)
        lhs_corrected = lhs_printed / qf**2
        qd = qf ** (-d)
        coeff = Fraction(d) ** n / q_number(d, -1 / qf)
        euler_sum = CycElem.zero(m)
        genocchi_sum = CycElem.zero(m)
        for a in range(d):
            ca = chi(a)
            if not ca:
                continue
            w = Fraction((-1) ** a) / qf**a
            x = Fraction(a, d)
            euler_sum = euler_sum + ca * (w * weight_zero_euler(n, qd, x))
            genocchi_sum = genocchi_sum + ca * (w * weight_zero_genocchi(n + 1, qd, x) / (n + 1))
        rhs_euler = coeff * euler_sum
        rhs_genocchi = coeff * genocchi_sum
        lhs = lhs_corrected if variant == "corrected" else lhs_printed
        ok = lhs == rhs_euler
        genocchi_ok = rhs_euler == rhs_genocchi
        ratio: Fraction | None = None
        if rhs_euler:
            ratio = lhs_printed.rational_ratio(rhs_euler)
            if ratio != qf**2:
                ratio_ok = False
        samples.append(DistributionSample(qf, lhs_printed, lhs_corrected, rhs_euler,
                                          rhs_genocchi, ratio, ok, genocchi_ok))
        all_ok = all_ok and ok and genocchi_ok
    return DistributionResult(n, chi, variant, tuple(samples), all_ok, ratio_ok)
