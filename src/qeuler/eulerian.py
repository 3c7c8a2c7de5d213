"""Classical Eulerian polynomials: integer triangle engine and generating-function oracle.

Two independent engines are kept deliberately.  The engine builds the coefficients <n,k> of A_n(t) = sum_k <n,k> t^k
row by row from the integer triangle

    <0,0> = 1,   <n,k> = (k+1) <n-1,k> + (n-k) <n-1,k-1>   (n >= 1),

(Graham-Knuth-Patashnik, Concrete Mathematics 6.2; DLMF 26.14), whose values satisfy A_n(1) = n! with positive
palindromic coefficients.  The exponential generating function (1-x)/(e^{t(1-x)} - x) expands to (-1)^n A_n(x), i.e.
the two printed conventions differ by the substitution t -> -t; ``eulerian_series_coeff`` exposes the series side as
an oracle so the sign reconciliation is checked, never assumed.

The numerators h_k of Carlitz's Frobenius-Euler numbers (``_frobenius_euler``) come from an Euler-Seidel array
(D. Dumont, Sem. Lothar. Combin. B05c, 1981), not the triangle, whose formula is their test oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, count, islice
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


def _rows():
    """A_0, A_1, ... as coefficient tuples, each built from the row before; none is kept."""
    row = (1,)
    for m in count(1):
        yield row
        ext = row + (0,)  # ext[-1] = 0 stands for <m-1,-1> and <m-1,m-1>
        # tuple of a list, not of a generator: growing a tuple by resizing fragments the heap
        row = tuple([(k + 1) * ext[k] + (m - k) * ext[k - 1] for k in range(m)])


def _frobenius_euler(A: int, B: int, top: int) -> list[int]:
    """h_0..h_top with H_k(u) = A_k(u)/(u-1)^k = h_k / D^k at u = -A/B (B > 0, D = A + B): Carlitz's Frobenius-Euler
    numbers.  (e^t - u) H(t) = 1 - u gives h_k = -B sum_{j<k} C(k,j) h_j D^{k-1-j}, the sum of anti-diagonal k - 1 of
    the Euler-Seidel array a^(n)_j = D a^(n-1)_j + a^(n-1)_{j+1}, a^(0)_j = h_j (by the hockey stick), and
    anti-diagonal k is h_k and the running sums of D times the one before: row k takes k + 1 products by D and about
    2(k + 1) additions, with no binomial and no product of two large integers.  The plain recurrence multiplies a
    k-bit C(k,j) into a large h_j at each step: 2-5x slower to k = 53-200, 19x at A = B = 1 and k to 1,153."""
    D, h, diag = A + B, [1], [1]
    for _ in range(top):
        h.append(-B * sum(diag))
        diag = list(accumulate([h[-1], *[D * v for v in diag]]))  # a list: a tuple of a generator fragments the heap
    return h


def eulerian_poly(n: int) -> EulerianPoly:
    """A_n(t) from the integer triangle engine."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return EulerianPoly(n, next(islice(_rows(), n, None)))


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
