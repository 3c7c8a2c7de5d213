"""Fixed-precision p-adic residues: integers mod p^k with tracked precision.

These are truncations of p-adic integers.  Rationals embed only when their
denominator is coprime to p (negative valuation is deliberately unsupported:
every quantity the verifiers embed is a p-adic integer by construction, so a
rejected denominator signals a setup bug, not a value to approximate).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import CharacterOrderUnsupported, NonCoprimeDenominator
from .numtheory import is_prime, primitive_root

Scalar = Union[int, Fraction]


@dataclass(frozen=True)
class PadicResidue:
    prime: int
    precision: int
    residue: int

    def __post_init__(self):
        if self.prime < 3 or not is_prime(self.prime):
            raise ValueError("prime must be an odd prime")
        if self.precision < 1:
            raise ValueError("precision must be >= 1")
        object.__setattr__(self, "residue", self.residue % self.prime**self.precision)

    @property
    def modulus(self) -> int:
        return self.prime**self.precision

    @classmethod
    def from_rational(cls, value: Scalar, prime: int, precision: int) -> PadicResidue:
        fr = Fraction(value)
        if fr.denominator % prime == 0:
            raise NonCoprimeDenominator(f"denominator of {fr} is divisible by {prime}")
        pk = prime**precision
        return cls(prime, precision, fr.numerator * pow(fr.denominator, -1, pk) % pk)

    def _check(self, other: PadicResidue) -> None:
        if (self.prime, self.precision) != (other.prime, other.precision):
            raise ValueError("mismatched p-adic contexts")

    def _coerce(self, other: Union[PadicResidue, Scalar]) -> PadicResidue:
        if isinstance(other, PadicResidue):
            self._check(other)
            return other
        return PadicResidue.from_rational(other, self.prime, self.precision)

    def __add__(self, other: Union[PadicResidue, Scalar]) -> PadicResidue:
        o = self._coerce(other)
        return PadicResidue(self.prime, self.precision, self.residue + o.residue)

    __radd__ = __add__

    def __sub__(self, other: Union[PadicResidue, Scalar]) -> PadicResidue:
        o = self._coerce(other)
        return PadicResidue(self.prime, self.precision, self.residue - o.residue)

    def __mul__(self, other: Union[PadicResidue, Scalar]) -> PadicResidue:
        o = self._coerce(other)
        return PadicResidue(self.prime, self.precision, self.residue * o.residue)

    __rmul__ = __mul__

    def is_unit(self) -> bool:
        return self.residue % self.prime != 0

    def inverse(self) -> PadicResidue:
        if not self.is_unit():
            raise ZeroDivisionError(f"{self.residue} is not a unit mod {self.prime}")
        return PadicResidue(self.prime, self.precision, pow(self.residue, -1, self.modulus))

    def valuation(self) -> int:
        """p-adic valuation of the residue, capped at the precision."""
        if self.residue == 0:
            return self.precision
        v, r = 0, self.residue
        while r % self.prime == 0:
            r //= self.prime
            v += 1
        return v

    def __repr__(self) -> str:
        return f"{self.residue} (mod {self.prime}^{self.precision})"


def padic_unit_root(prime: int, precision: int, order: int) -> int:
    """Canonical residue of multiplicative order ``order`` mod p^precision.

    Requires order | p-1.  With g the smallest primitive root mod p and
    r = g^((p-1)/order), the Teichmueller lift r^(p^(precision-1)) is the unique
    root of x^order - 1 congruent to r (Washington, Cyclotomic Fields, ch. 5).
    """
    if (prime - 1) % order:
        raise CharacterOrderUnsupported(
            f"cannot embed Q(zeta_{order}) into residues mod {prime}^{precision}")
    r = pow(primitive_root(prime), (prime - 1) // order, prime)
    return pow(r, prime ** (precision - 1), prime**precision)


def embed_cyclotomic(elem, prime: int, precision: int) -> int:
    """Residue of a cyclotomic element mod p^precision.

    Evaluates the coefficient vector at the canonical unit root of matching
    order.  Supported exactly when the order divides p-1 (orders 1 and 2
    always do); anything else is refused rather than approximated.
    """
    pk = prime**precision
    root = padic_unit_root(prime, precision, elem.order)
    acc = 0
    for c in reversed(elem.coeffs):
        if c.denominator % prime == 0:
            raise NonCoprimeDenominator(f"denominator of {c} is divisible by {prime}")
        value = c.numerator * pow(c.denominator, -1, pk) % pk
        acc = (acc * root + value) % pk
    return acc
