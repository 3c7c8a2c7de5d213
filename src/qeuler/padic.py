"""Fixed-precision p-adic residues: exact values mod p^k.

``embed_cyclotomic`` maps an int, Fraction or cyclotomic element to Z/p^k,
``valuation`` reads a residue's valuation, and ``PadicResidue`` is a plain
value.  Rationals embed only when their denominator is coprime to p (negative
valuation is deliberately unsupported: every quantity the verifiers embed is a
p-adic integer by construction, so a rejected denominator signals a setup bug).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .cyclotomic import CycElem
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
        return cls(prime, precision, embed_cyclotomic(value, prime, precision))

    def is_unit(self) -> bool:
        return self.residue % self.prime != 0

    def valuation(self) -> int:
        """p-adic valuation of the residue, capped at the precision."""
        return valuation(self.residue, self.prime, self.precision)

    def __repr__(self) -> str:
        return f"{self.residue} (mod {self.prime}^{self.precision})"


def valuation(x: int, prime: int, precision: int) -> int:
    """p-adic valuation of x mod p^precision, capped at the precision."""
    r = x % prime**precision
    if r == 0:
        return precision
    v = 0
    while r % prime == 0:
        r //= prime
        v += 1
    return v


@lru_cache(maxsize=256)
def padic_unit_root(prime: int, precision: int, order: int) -> int:
    """Canonical residue of multiplicative order ``order`` mod p^precision (memoized).

    Requires order | p-1.  With g the smallest primitive root mod p and
    r = g^((p-1)/order), the Teichmueller lift r^(p^(precision-1)) is the unique
    root of x^order - 1 congruent to r (Washington, Cyclotomic Fields, ch. 5).
    """
    if (prime - 1) % order:
        raise CharacterOrderUnsupported(
            f"cannot embed Q(zeta_{order}) into residues mod {prime}^{precision}")
    r = pow(primitive_root(prime), (prime - 1) // order, prime)
    return pow(r, prime ** (precision - 1), prime**precision)


def embed_cyclotomic(value: Union[Scalar, CycElem], prime: int, precision: int) -> int:
    """Residue of an int, Fraction or cyclotomic element mod p^precision.

    A rational is one coefficient; a cyclotomic element is evaluated at the
    canonical unit root of its order, which must divide p-1 (orders 1 and 2
    always do): anything else is refused rather than approximated.
    """
    pk = prime**precision
    if isinstance(value, CycElem):
        coeffs, root = value.coeffs, padic_unit_root(prime, precision, value.order)
    else:
        coeffs, root = (Fraction(value),), 0
    acc = 0
    for c in reversed(coeffs):
        if c.denominator % prime == 0:
            raise NonCoprimeDenominator(f"denominator of {c} is divisible by {prime}")
        acc = (acc * root + c.numerator * pow(c.denominator, -1, pk)) % pk
    return acc
