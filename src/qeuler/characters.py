"""Dirichlet characters of odd modulus with exact cyclotomic values.

The unit group mod d (d odd) is the direct product of the cyclic unit groups
of the odd prime powers dividing d, each generated by its smallest primitive
root.  A character is an exponent tuple against those generators; values live
in Q(zeta_m) where m is the character's order, so equality and linear algebra
over characters are exact.  Every character of order m reads its values from
one shared table of the powers of zeta_m, and the numeric series read them
from one shared table of their embeddings.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import gcd, lcm

from .cyclotomic import CycElem, cyc_embed, cyclotomic_polynomial
from .errors import EvenModulus
from .numtheory import crt_pair, factorize, phi, primitive_root


class UnitGroupStructure:
    """Cyclic decomposition of (Z/d)^* for odd d: one generator and its order per prime-power component."""

    __slots__ = ("modulus", "generators", "orders")

    def __init__(self, modulus: int, generators: tuple[int, ...], orders: tuple[int, ...]):
        self.modulus = modulus
        self.generators = generators
        self.orders = orders


@lru_cache(maxsize=64)
def unit_group(d: int) -> UnitGroupStructure:
    """Unit group structure mod odd d >= 1 (memoized)."""
    if d < 1:
        raise ValueError("modulus must be >= 1")
    if d % 2 == 0:
        raise EvenModulus(f"modulus {d} is even")
    factors = sorted(factorize(d).items())
    generators: list[int] = []
    orders: list[int] = []
    for p, e in factors:
        pk = p**e
        g = primitive_root(pk)
        # lift to a generator of the p^e component: g mod p^e, 1 mod the rest
        rest = d // pk
        lifted = g if rest == 1 else crt_pair(g, pk, 1, rest)
        generators.append(lifted)
        orders.append(phi(pk))
    return UnitGroupStructure(d, tuple(generators), tuple(orders))


@lru_cache(maxsize=64)
def _zeta_powers(m: int) -> tuple[CycElem, ...]:
    """zeta_m^j for j < m: x^j below deg Phi_m, then each x times the one before, one shift and one reduction step."""
    mod = cyclotomic_polynomial(m)
    powers = [CycElem(m, (0,) * j + (1,)) for j in range(len(mod) - 1)]
    for _ in range(len(mod) - 1, m):
        *low, top = powers[-1].coeffs
        powers.append(CycElem(m, [-top * mod[0], *(c - top * e for c, e in zip(low, mod[1:]))]))
    return tuple(powers)


@lru_cache(maxsize=64)
def _zeta_embedded(m: int, bits: int) -> tuple:
    """cyc_embed(zeta_m^j, bits) for j < m, shared by every character of order m."""
    return tuple(cyc_embed(z, bits) for z in _zeta_powers(m))


class DirichletCharacter:
    """Character mod odd d, identified by its exponent tuple.

    Values are CycElem of order ``order`` (the multiplicative order of the
    character, which is the least m with all values in Q(zeta_m)).
    The modulus-1 character is identically 1, including at 0, so the d = 1
    degenerate cases of the attached polynomial identities reduce to the
    classical generating function.
    """

    __slots__ = ("modulus", "exponents", "order", "_zeta_exponents", "_values")

    def __init__(self, modulus: int, exponents: tuple[int, ...]):
        group = unit_group(modulus)
        exps = tuple(int(e) for e in exponents)
        if len(exps) != len(group.orders):
            raise ValueError("exponent tuple length does not match the unit group")
        if any(not 0 <= e < o for e, o in zip(exps, group.orders)):
            raise ValueError("exponents out of range")
        self.modulus = modulus
        self.exponents = exps
        self.order = lcm(1, *(o // gcd(o, e) for e, o in zip(exps, group.orders)))
        self._zeta_exponents: tuple[int | None, ...] | None = None
        self._values: tuple[CycElem, ...] | None = None

    @property
    def group(self) -> UnitGroupStructure:
        return unit_group(self.modulus)

    @property
    def index(self) -> int:
        """Position in the lexicographic enumeration of characters mod d."""
        rank = 0
        for e, o in zip(self.exponents, self.group.orders):
            rank = rank * o + e
        return rank

    @property
    def label(self) -> str:
        return f"{self.modulus}.{self.index}"

    @property
    def is_principal(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def zeta_exponents(self) -> tuple[int | None, ...]:
        """For each a < d, the j < m with chi(a) = zeta_m^j, or None where chi(a) = 0."""
        if self._zeta_exponents is None:
            m, d, group = self.order, self.modulus, self.group
            # (g^x, x * step) over each generator's powers, multiplied out; o divides e*m by choice of m
            pairs = [(1 % d, 0)]
            for g, e, o in zip(group.generators, self.exponents, group.orders):
                powers = [(pow(g, x, d), x * e * m // o % m) for x in range(o)]
                pairs = [(a * b % d, (j + k) % m) for a, j in pairs for b, k in powers]
            self._zeta_exponents = tuple(map(dict(pairs).get, range(d)))
        return self._zeta_exponents

    def values(self) -> tuple[CycElem, ...]:
        if self._values is None:
            powers, zero = _zeta_powers(self.order), CycElem.zero(self.order)
            self._values = tuple([zero if j is None else powers[j] for j in self.zeta_exponents()])
        return self._values

    def __call__(self, a: int) -> CycElem:
        return self.values()[a % self.modulus]

    def conductor(self) -> int:
        """Smallest f | d such that the character factors through the units mod f.

        On the component mod p^k, the exponent e != 0 makes the character
        trivial exactly on the units = 1 mod p^j for j >= max(1, k - v_p(e)),
        i.e. for the j >= 1 with p^(k-j) | e.
        """
        f = 1
        for (p, k), e in zip(sorted(factorize(self.modulus).items()), self.exponents):
            if e:
                f *= p ** next(j for j in range(1, k + 1) if e % p ** (k - j) == 0)
        return f

    def conjugate(self) -> DirichletCharacter:
        orders = self.group.orders
        return DirichletCharacter(self.modulus, tuple((-e) % o for e, o in zip(self.exponents, orders)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DirichletCharacter):
            return (self.modulus, self.exponents) == (other.modulus, other.exponents)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.modulus, self.exponents))

    def __repr__(self) -> str:
        return f"DirichletCharacter(modulus={self.modulus}, exponents={self.exponents})"


def enumerate_characters(d: int) -> list[DirichletCharacter]:
    """All phi(d) characters mod odd d, lexicographic by exponent tuple.

    Index 0 is the principal character.
    """
    group = unit_group(d)
    return [DirichletCharacter(d, exps) for exps in product(*(range(o) for o in group.orders))]


def character_by_index(d: int, index: int) -> DirichletCharacter:
    group = unit_group(d)
    total = phi(d)
    if not 0 <= index < total:
        raise ValueError(f"character index {index} out of range for modulus {d}")
    exps = []
    for o in reversed(group.orders):
        exps.append(index % o)
        index //= o
    return DirichletCharacter(d, tuple(reversed(exps)))


def principal_character(d: int) -> DirichletCharacter:
    return DirichletCharacter(d, tuple(0 for _ in unit_group(d).orders))

