"""Dense univariate polynomials over Q with exact Fraction coefficients."""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, Fraction]


class PolyQ:
    """Polynomial with rational coefficients, index = degree.

    Canonical form: the trailing (highest-index) coefficient is nonzero; the
    zero polynomial is the empty tuple and has degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> PolyQ:
        return cls()

    @classmethod
    def one(cls) -> PolyQ:
        return cls((1,))

    @classmethod
    def monomial(cls, degree: int, coeff: Scalar = 1) -> PolyQ:
        return cls((0,) * degree + (coeff,))

    @classmethod
    def x_power_minus_one(cls, m: int) -> PolyQ:
        return cls((-1,) + (0,) * (m - 1) + (1,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PolyQ):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == PolyQ((other,))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: PolyQ) -> PolyQ:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return PolyQ(out)

    def __neg__(self) -> PolyQ:
        return PolyQ(tuple(-c for c in self.coeffs))

    def __sub__(self, other: PolyQ) -> PolyQ:
        return self + (-other)

    def __mul__(self, other: Union[PolyQ, Scalar]) -> PolyQ:
        if isinstance(other, (int, Fraction)):
            return PolyQ(tuple(c * other for c in self.coeffs))
        if self.is_zero() or other.is_zero():
            return PolyQ()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return PolyQ(out)

    def __rmul__(self, other: Scalar) -> PolyQ:
        return self * other

    def __pow__(self, e: int) -> PolyQ:
        if e < 0:
            raise ValueError("negative polynomial power")
        out = PolyQ.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __divmod__(self, other: PolyQ) -> tuple[PolyQ, PolyQ]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn, dd = len(rem) - 1, other.degree
        lead = other.coeffs[-1]
        quot = [Fraction(0)] * max(dn - dd + 1, 0)
        for i in range(dn - dd, -1, -1):
            factor = rem[i + dd] / lead
            if factor:
                quot[i] = factor
                for j, c in enumerate(other.coeffs):
                    rem[i + j] -= factor * c
        return PolyQ(quot), PolyQ(rem[:dd])

    def exact_div(self, other: PolyQ) -> PolyQ:
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def evaluate(self, x: Scalar) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self) -> str:
        if self.is_zero():
            return "PolyQ(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*x^{i}" if i else f"{c}")
        return "PolyQ(" + " + ".join(terms) + ")"
