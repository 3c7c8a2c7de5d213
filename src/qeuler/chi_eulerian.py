"""Eulerian polynomial values attached to a Dirichlet character, exactly.

The defining generating function (d = modulus of chi, kernel exponent
d - l + 1 kept exactly as in the classical display) is

    sum_n A_n(chi, -q) t^n/n!
        = (1+q) sum_{l<d} (-1)^l q^{d-l+1} chi(l) e^{-l(1+q)t} / (e^{-d(1+q)t} + q^d).

Clearing the denominator and matching t^n/n! coefficients gives the linear
recurrence used here:

    (1 + q^d) A_n = R_n - sum_{k<n} C(n,k) A_k (-d(1+q))^{n-k},
    R_n = (1+q) sum_{l<d} (-1)^l q^{d-l+1} chi(l) (-l(1+q))^n.

Expanding the same function geometrically yields the equivalent series form

    q (1+q) sum_{m>=0} (-1)^m chi(m) q^{-m} e^{-m(1+q)t},

which is the oracle ``kernel_series_check`` verifies numerically.  Dropping
the m = 0 term (it vanishes unless n = 0 and chi has modulus 1) and scaling
gives the interpolation-ready form checked by ``chi_eulerian_series_check``:

    (-1)^n A_n(chi, -q) / (q (1+q)^{n+1}) = sum_{m>=1} (-1)^m chi(m) m^n q^{-m}.

A second, re-derived kernel exponent d - l - 1 differs from the one above by
exactly q^2; the distribution and integral checks therefore carry a variant
switch ("printed" = kernel d - l + 1 taken at face value, "corrected" =
multiply the polynomial side by q^{-2}) and measure the ratio instead of
trusting either form.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence, Union

from mpmath import mp

from .characters import DirichletCharacter
from .cyclotomic import CycElem, cyc_embed
from .errors import ConvergenceDomain, DegenerateSample, PoleAtMinusOne, PoleQ
from .numerics import alternating_character_sum, choose_truncation, to_mpf
from .qnumbers import q_number

Scalar = Union[int, Fraction]


def _check_q(q: Fraction, d: int) -> None:
    if q == 0 or q == -1 or q**d == -1:
        raise PoleQ(f"q = {q} is an excluded value for modulus {d}")


def kernel_recurrence(kernel: Sequence[CycElem], q: Fraction, max_n: int, order: int) -> list[CycElem]:
    """Solve (1 + q^d) A_n = R_n - sum_{k<n} C(n,k) A_k (-d(1+q))^{n-k}.

    ``kernel`` holds the l-th numerator coefficient (any character-like
    weights); linearity of the recurrence in the kernel is exposed for the
    character-linearity checks.
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


def character_kernel(chi: DirichletCharacter, q: Fraction) -> list[CycElem]:
    """Kernel coefficients (1+q) (-1)^l q^{d-l+1} chi(l) for l < d."""
    d = chi.modulus
    return [((-1) ** l * (1 + q) * q ** (d - l + 1)) * chi(l) for l in range(d)]


_table_cache: dict[tuple, list[CycElem]] = {}
_table_lock = threading.Lock()


def chi_eulerian_values(chi: DirichletCharacter, q: Scalar, max_n: int) -> list[CycElem]:
    """A_0..A_max_n attached to chi at -q, memoized per (character, q)."""
    qf = Fraction(q)
    _check_q(qf, chi.modulus)
    key = (chi.modulus, chi.exponents, qf)
    with _table_lock:
        table = _table_cache.get(key)
        if table is None or len(table) <= max_n:
            table = kernel_recurrence(character_kernel(chi, qf), qf, max_n, chi.order)
            _table_cache[key] = table
    return table[: max_n + 1]


def chi_eulerian(n: int, chi: DirichletCharacter, q: Scalar) -> CycElem:
    """A_n(chi, -q) by the kernel recurrence."""
    return chi_eulerian_values(chi, q, n)[n]


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
    if bits < 64:
        raise ValueError("bits must be >= 64")
    with mp.workprec(bits + 64):
        M, tail = choose_truncation(n, qf, bits - 4)
        acc = alternating_character_sum(chi, qf, bits, M, lambda m: mp.mpf(m) ** n)
        lhs = cyc_embed(series_reference(n, chi, qf), bits + 32)
        slack = mp.mpf(2) ** (-bits + 8)
        passed = mp.fabs(lhs - acc) <= tail + slack
        return SeriesCheck(n, chi, qf, bits, +lhs, +acc, +tail, +slack, M, bool(passed), "m>=1")


def kernel_series_check(n: int, chi: DirichletCharacter, q: Scalar, bits: int = 128) -> SeriesCheck:
    """Compare A_n (recurrence) with the partial sum of the full geometric
    expansion q(1+q) sum_{m>=0} (-1)^m chi(m) q^{-m} (-m(1+q))^n."""
    qf = Fraction(q)
    if qf <= 1:
        raise ConvergenceDomain("the geometric kernel expansion needs q > 1")
    with mp.workprec(bits + 64):
        M, tail_raw = choose_truncation(n, qf, bits - 4)
        scale = to_mpf(qf * (1 + qf) ** (n + 1))
        one_plus_q = to_mpf(1 + qf)
        acc = alternating_character_sum(chi, qf, bits, M, lambda m: (-(mp.mpf(m)) * one_plus_q) ** n,
                                        start=0)
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
    d = chi.modulus
    m = chi.order
    samples: list[DistributionSample] = []
    all_ok = True
    ratio_ok = True
    for q in q_samples:
        qf = Fraction(q)
        if qf == 0 or qf == -1 or qf**d == -1:
            raise DegenerateSample(f"q = {qf} is excluded for modulus {d}")
        value = chi_eulerian(n, chi, qf)
        lhs_printed = (Fraction((-1) ** n) / (1 + qf) ** n) * value
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
            r = lhs_printed / rhs_euler
            if r.is_rational:
                ratio = r.to_rational()
            if ratio != qf**2:
                ratio_ok = False
        samples.append(DistributionSample(qf, lhs_printed, lhs_corrected, rhs_euler,
                                          rhs_genocchi, ratio, ok, genocchi_ok))
        all_ok = all_ok and ok and genocchi_ok
    return DistributionResult(n, chi, variant, tuple(samples), all_ok, ratio_ok)
