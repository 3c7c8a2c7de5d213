"""Reference values computed without qeuler, used to check its outputs.

Every routine here is written from the defining formulas with Python integers,
Fractions and mpmath, so a defect in a qeuler engine cannot hide in its own
oracle.
"""
from __future__ import annotations

import cmath
import re
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

import mpmath

_CYC_RE = re.compile(r"^\[(.*)\]@zeta(\d+)$")


@lru_cache(maxsize=None)
def eulerian_numbers(n: int) -> tuple[int, ...]:
    """Coefficients of A_n(t) (ascending) by Worpitzky's explicit sum; A_0 = 1."""
    if n == 0:
        return (1,)
    return tuple(sum((-1) ** j * comb(n + 1, j) * (k + 1 - j) ** n for j in range(k + 1))
                 for k in range(n))


def poly_eval(coeffs, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def weight_zero_euler_row(max_n: int, q: Fraction, x: Fraction) -> list[Fraction]:
    """E~_0..E~_max_n at (q, x) from q sum_k C(n,k) E~_k + E~_n = (1+q) x^n."""
    out: list[Fraction] = []
    for n in range(max_n + 1):
        acc = (1 + q) * x**n - q * sum(comb(n, k) * out[k] for k in range(n))
        out.append(acc / (1 + q))
    return out


def totient(d: int) -> int:
    return sum(1 for a in range(1, d + 1) if gcd(a, d) == 1)


def residue(value: Fraction, p: int, k: int) -> int:
    """value mod p^k for a rational with denominator prime to p."""
    pk = p**k
    return value.numerator * pow(value.denominator, -1, pk) % pk


def parse_exact(text: str) -> tuple[int, list[Fraction]]:
    """(order, coefficients) of a rendered exact value: "a/b" or "[(a/b),...]@zetaM"."""
    match = _CYC_RE.match(text.strip())
    if not match:
        return 1, [Fraction(text)]
    return int(match.group(2)), [Fraction(c) for c in re.findall(r"\(([^()]*)\)", match.group(1))]


def embed_float(order: int, coeffs) -> complex:
    """Complex value of sum_j c_j zeta_order^j in double precision."""
    root = cmath.exp(2j * cmath.pi / order)
    return sum(float(c) * root**j for j, c in enumerate(coeffs))


def embed_mp(order: int, coeffs):
    """mpmath value of sum_j c_j zeta_order^j at the current working precision."""
    root = mpmath.expjpi(mpmath.mpf(2) / order)
    acc = mpmath.mpc(0)
    for c in reversed(coeffs):
        acc = acc * root + mpmath.mpf(c.numerator) / c.denominator
    return acc


def alternating_character_sum(n: int, chi_values: list, q: Fraction, bits: int):
    """(sum, sum of |terms|) of sum_{m>=1} (-1)^m chi(m) m^n q^{-m}.

    ``chi_values`` holds chi(0..d-1) as mpmath numbers.  Summation stops once
    the terms decrease and fall below 2^-bits of the largest one; the tail is
    then smaller than that term times 1/(1 - 1/q) up to a factor near 1.
    """
    d = len(chi_values)
    qinv = mpmath.mpf(q.denominator) / q.numerator
    peak = n / mpmath.log(mpmath.mpf(q.numerator) / q.denominator)
    eps = mpmath.mpf(2) ** (-bits)
    acc, mass, top = mpmath.mpc(0), mpmath.mpf(0), mpmath.mpf(0)
    weight = mpmath.mpf(1)
    m = 0
    while True:
        m += 1
        weight *= qinv
        term = mpmath.mpf(m) ** n * weight
        top = max(top, term)
        c = chi_values[m % d]
        if c:
            acc += (-1) ** m * c * term
            mass += term
        if m > peak and term < eps * top:
            return acc, mass
