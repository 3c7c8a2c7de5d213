"""Exact arithmetic in cyclotomic fields Q(zeta_m).

A ``CycElem`` is a residue modulo the m-th cyclotomic polynomial, stored as a
coefficient vector of length deg(Phi_m) = phi(m) whose entries are ints or
Fractions, each kept as it is (any other input becomes a Fraction).  Working
modulo Phi_m (not x^m - 1) makes equality testing sound *and* complete field
equality, which is what the character-linear identities in this package need.
Elements of different orders compare and combine through the canonical
embeddings zeta_m = zeta_M^(M/m) for m | M.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Union

from mpmath import mp

from .numtheory import divisors

Scalar = Union[int, Fraction]


@lru_cache(maxsize=256)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial Phi_m, index = degree.

    x^m - 1 divided by Phi_d for every proper divisor d of m; each Phi_d is
    monic, so the long division stays in integers and leaves no remainder.
    """
    if m < 1:
        raise ValueError("cyclotomic polynomial needs m >= 1")
    poly = [-1] + [0] * (m - 1) + [1]
    for d in divisors(m)[:-1]:
        div = cyclotomic_polynomial(d)
        deg = len(div) - 1
        quot = [0] * (len(poly) - deg)
        for i in range(len(quot) - 1, -1, -1):
            c = quot[i] = poly[i + deg]
            for j, e in enumerate(div):
                poly[i + j] -= c * e
        poly = quot
    return tuple(poly)


class CycElem:
    """Element of Q(zeta_m), reduced modulo Phi_m."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Union[tuple, list]):
        mod = cyclotomic_polynomial(order)
        deg = len(mod) - 1
        rem = [c if type(c) in (int, Fraction) else Fraction(c) for c in coeffs]
        for i in range(len(rem) - 1 - deg, -1, -1):  # the remainder modulo the monic Phi_m
            factor = rem[i + deg]
            if factor:
                for j in range(deg):
                    rem[i + j] -= factor * mod[j]
        self.order = order
        self.coeffs = tuple(rem[:deg]) + (0,) * (deg - len(rem))

    @classmethod
    def zero(cls, order: int = 1) -> CycElem:
        return cls(order, ())

    @classmethod
    def one(cls, order: int = 1) -> CycElem:
        return cls(order, (1,))

    @classmethod
    def from_rational(cls, value: Scalar, order: int = 1) -> CycElem:
        return cls(order, (value,))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    @property
    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def to_rational(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"element of Q(zeta_{self.order}) is not rational")
        return Fraction(self.coeffs[0])

    def raised(self, target: int) -> CycElem:
        """Image under the canonical embedding Q(zeta_m) -> Q(zeta_target)."""
        if target == self.order:
            return self
        if target % self.order:
            raise ValueError(f"{self.order} does not divide {target}")
        stride = target // self.order
        spread = [0] * ((len(self.coeffs) - 1) * stride + 1) if self.coeffs else []
        spread[::stride] = self.coeffs
        return CycElem(target, spread)

    def _pair(self, other: Union[CycElem, Scalar]) -> tuple[CycElem, CycElem]:
        if isinstance(other, (int, Fraction)):
            return self, CycElem.from_rational(other, self.order)
        if not isinstance(other, CycElem):
            raise TypeError(f"cannot combine CycElem with {type(other).__name__}")
        if other.order == self.order:
            return self, other
        target = lcm(self.order, other.order)
        return self.raised(target), other.raised(target)

    def __add__(self, other: Union[CycElem, Scalar]) -> CycElem:
        a, b = self._pair(other)
        return CycElem(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __sub__(self, other: Union[CycElem, Scalar]) -> CycElem:
        a, b = self._pair(other)
        return CycElem(a.order, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __mul__(self, other: Union[CycElem, Scalar]) -> CycElem:
        if isinstance(other, (int, Fraction)):
            return CycElem(self.order, tuple(c * other for c in self.coeffs))
        a, b = self._pair(other)
        deg = len(a.coeffs)
        out = [0] * (2 * deg - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        out[i + j] += x * y
        return CycElem(a.order, out)

    __rmul__ = __mul__

    def rational_ratio(self, other: CycElem) -> Fraction | None:
        """The rational r with self == r * other, or None when there is none.

        Coordinates modulo Phi_m are unique, so r can only be the ratio at the
        first nonzero coordinate of other; it is kept if every coordinate agrees.
        """
        a, b = self._pair(other)
        i = next((i for i, c in enumerate(b.coeffs) if c), None)
        if i is None:
            raise ZeroDivisionError("ratio to zero in Q(zeta_m)")
        r = Fraction(a.coeffs[i], b.coeffs[i])
        return r if all(x == r * y for x, y in zip(a.coeffs, b.coeffs)) else None

    def __truediv__(self, other: Scalar) -> CycElem:
        return self * (1 / Fraction(other))

    def __pow__(self, e: int) -> CycElem:
        if e < 0:
            raise ValueError("negative power of a cyclotomic element")
        out = CycElem.one(self.order)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational and self.coeffs[0] == other
        if isinstance(other, CycElem):
            a, b = self._pair(other)
            return a.coeffs == b.coeffs
        return NotImplemented



def cyc_embed(elem: CycElem, bits: int = 128):
    """Numeric value of a cyclotomic element at zeta_m = e^(2 pi i / m).

    Returns an mpmath complex number whose real and imaginary parts carry
    error below 2^(1-bits).  Working precision is padded by the coefficient
    magnitudes so large exact coordinates do not eat into the contract.
    """
    if bits < 16:
        raise ValueError("cyc_embed needs bits >= 16")
    pad = 48 + elem.order.bit_length()
    for c in elem.coeffs:
        size = c.numerator.bit_length() - c.denominator.bit_length()
        pad = max(pad, size + 48)
    with mp.workprec(bits + pad):
        root = mp.expjpi(mp.mpf(2) / elem.order)
        acc = mp.mpc(0)
        for c in reversed(elem.coeffs):
            acc = acc * root + mp.mpf(c.numerator) / mp.mpf(c.denominator)
        return +acc
