"""Truncated exponential generating series with exact rational coefficients.

A ``TruncSeries`` of order N stores c_0..c_N and represents
sum_n c_n t^n / n!.  Products and quotients therefore use the binomial
convolution sum_k C(n,k) a_k b_{n-k}.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, Union

from .errors import ZeroConstantTerm

Scalar = Union[int, Fraction]


class TruncSeries:
    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[Scalar]):
        cs = tuple(Fraction(c) for c in coeffs)
        if order < 0:
            raise ValueError("series order must be >= 0")
        if len(cs) != order + 1:
            raise ValueError(f"expected {order + 1} coefficients, got {len(cs)}")
        self.order = order
        self.coeffs = cs

    @classmethod
    def constant(cls, value: Scalar, order: int) -> TruncSeries:
        return cls(order, (value,) + (0,) * order)

    @classmethod
    def exponential(cls, rate: Scalar, order: int) -> TruncSeries:
        """Series of e^{rate*t}: c_n = rate^n."""
        r = Fraction(rate)
        return cls(order, tuple(r**n for n in range(order + 1)))

    def _check(self, other: TruncSeries) -> None:
        if self.order != other.order:
            raise ValueError("series orders differ")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TruncSeries):
            return self.order == other.order and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __mul__(self, other: Union[TruncSeries, Scalar]) -> TruncSeries:
        if isinstance(other, (int, Fraction)):
            return TruncSeries(self.order, tuple(c * other for c in self.coeffs))
        self._check(other)
        out = []
        for n in range(self.order + 1):
            out.append(sum(comb(n, k) * self.coeffs[k] * other.coeffs[n - k] for k in range(n + 1)))
        return TruncSeries(self.order, out)

    def __repr__(self) -> str:
        return f"TruncSeries(order={self.order}, coeffs={self.coeffs})"


def series_div(num: TruncSeries, den: TruncSeries) -> TruncSeries:
    """Quotient Q with Q*den = num through the common truncation order.

    Coefficients solve the binomial convolution
    sum_k C(n,k) Q_k den_{n-k} = num_n, which requires den_0 != 0.
    """
    num._check(den)
    if den.coeffs[0] == 0:
        raise ZeroConstantTerm("series division needs a nonzero constant term")
    out: list[Fraction] = []
    for n in range(num.order + 1):
        acc = num.coeffs[n]
        for k in range(n):
            acc -= comb(n, k) * out[k] * den.coeffs[n - k]
        out.append(acc / den.coeffs[0])
    return TruncSeries(num.order, out)
