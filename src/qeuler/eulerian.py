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
from typing import Union

from .errors import PoleAtMinusOne, PoleAtOne
from .polyq import PolyQ
from .series import TruncSeries, series_div

Scalar = Union[int, Fraction]


@dataclass(frozen=True)
class EulerianPoly:
    n: int
    poly: PolyQ


_polys: list[PolyQ] = [PolyQ.one()]
_polys_lock = threading.Lock()


def eulerian_poly(n: int) -> EulerianPoly:
    """A_n(t) from the integer triangle engine."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n >= len(_polys):
        with _polys_lock:
            row = [int(c) for c in _polys[-1].coeffs]
            while len(_polys) <= n:
                m = len(_polys)
                ext = row + [0]  # ext[-1] = 0 stands for <m-1,-1> and <m-1,m-1>
                row = [(k + 1) * ext[k] + (m - k) * ext[k - 1] for k in range(m)]
                _polys.append(PolyQ(row))
    return EulerianPoly(n, _polys[n])


def eulerian_series_coeff(n: int, x0: Scalar) -> Fraction:
    """Coefficient of t^n/n! in (1-x0)/(e^{t(1-x0)} - x0), via series division.

    Equals (-1)^n A_n(x0); kept independent of the triangle engine.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    x = Fraction(x0)
    if x == 1:
        raise PoleAtOne("the generating function has a vanishing denominator at x = 1")
    num = TruncSeries.constant(1 - x, n)
    den_coeffs = [(1 - x) ** j for j in range(n + 1)]
    den_coeffs[0] = 1 - x  # e^{t(1-x)} contributes 1 at t^0, then subtract x
    den = TruncSeries(n, den_coeffs)
    return series_div(num, den).coeffs[n]


def witt_value(n: int, q: Scalar) -> Fraction:
    """A_n(-q) from the triangle engine.

    This is the polynomial value for which the fermionic integral of x^n
    under the -q^{-1} measure equals (-1)^n (1+q)^{-n} A_n(-q).
    """
    qf = Fraction(q)
    if qf == -1:
        raise PoleAtMinusOne("q = -1 makes -q the excluded evaluation point")
    return eulerian_poly(n).poly.evaluate(-qf)
