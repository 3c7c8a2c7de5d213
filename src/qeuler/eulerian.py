"""Classical Eulerian polynomials: integer triangle engine and generating-function oracle.

Two independent engines are kept deliberately.  The engine builds the
coefficients <n,k> of A_n(t) = sum_k <n,k> t^k row by row from the integer
triangle

    <0,0> = 1,   <n,k> = (k+1) <n-1,k> + (n-k) <n-1,k-1>   (n >= 1),

(Graham-Knuth-Patashnik, Concrete Mathematics 6.2; DLMF 26.14), whose values
satisfy A_n(1) = n! with positive palindromic coefficients.
The exponential generating function (1-x)/(e^{t(1-x)} - x) expands to
(-1)^n A_n(x), i.e. the two printed conventions differ by the substitution
t -> -t; ``eulerian_series_coeff`` exposes the series side as an oracle so the
sign reconciliation is checked, never assumed.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Union

from .errors import PoleAtMinusOne, PoleAtOne

Scalar = Union[int, Fraction]


@dataclass(frozen=True)
class EulerianPoly:
    """A_n(t) = sum_k coeffs[k] t^k with the Eulerian numbers <n,k> as coefficients."""
    n: int
    coeffs: tuple[int, ...]

    @property
    def poly(self) -> EulerianPoly:
        """The polynomial itself, so that code written as ``eulerian_poly(n).poly.coeffs``
        (bench/exact.py) still reads the coefficients."""
        return self

    def evaluate(self, x: Scalar) -> Scalar:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


_polys: list[tuple[int, ...]] = [(1,)]
_polys_lock = threading.Lock()


def eulerian_poly(n: int) -> EulerianPoly:
    """A_n(t) from the integer triangle engine."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n >= len(_polys):
        with _polys_lock:
            while len(_polys) <= n:
                m = len(_polys)
                ext = _polys[-1] + (0,)  # ext[-1] = 0 stands for <m-1,-1> and <m-1,m-1>
                # tuple of a list, not of a generator: growing a tuple by resizing fragments the heap
                _polys.append(tuple([(k + 1) * ext[k] + (m - k) * ext[k - 1] for k in range(m)]))
    return EulerianPoly(n, _polys[n])


def eulerian_series_coeff(n: int, x0: Scalar) -> Fraction:
    """Coefficient Q_n of t^n/n! in (1-x0)/(e^{t(1-x0)} - x0), by series division.

    With y = 1 - x0, the denominator has coefficients y, y, y^2, y^3, ..., so
    Q_0 = 1 and Q_m = -sum_{k<m} C(m,k) Q_k y^{m-k-1}.  For x0 = a/b the
    R_m = Q_m b^m are integers: R_m = -b sum_{k<m} C(m,k) R_k (b-a)^{m-k-1}.
    Equals (-1)^n A_n(x0); kept independent of the triangle engine.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    x = Fraction(x0)
    a, b = x.numerator, x.denominator
    if a == b:
        raise PoleAtOne("the generating function has a vanishing denominator at x = 1")
    powers = [(b - a) ** j for j in range(n)]
    r = [1]
    for m in range(1, n + 1):
        r.append(-b * sum(comb(m, k) * r[k] * powers[m - k - 1] for k in range(m)))
    return Fraction(r[n], b**n)


def witt_value(n: int, q: Scalar) -> Fraction:
    """A_n(-q) from the triangle engine.

    This is the polynomial value for which the fermionic integral of x^n
    under the -q^{-1} measure equals (-1)^n (1+q)^{-n} A_n(-q).
    """
    qf = Fraction(q)
    if qf == -1:
        raise PoleAtMinusOne("q = -1 makes -q the excluded evaluation point")
    return eulerian_poly(n).evaluate(-qf)
