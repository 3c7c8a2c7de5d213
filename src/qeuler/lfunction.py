"""High-precision evaluation of the Eulerian L-function and its checks.

For q > 1 the defining series

    L_E(s | chi) = q (1+q)^{1-s} sum_{m>=1} (-1)^m chi(m) q^{-m} m^{-s}

converges geometrically for every complex s, so no continuation machinery is
needed.  Every evaluation carries a rigorous truncation bound.

At negative integers it interpolates the character-attached Eulerian values
up to sign and one boundary term.  The geometric expansion of their
generating function, q(1+q) sum_{m>=0} (-1)^m chi(m) q^{-m} e^{-m(1+q)t},
has an m = 0 term without a Mellin transform, so the series starts at m = 1
and

    L_E(-n | chi) = (-1)^n A_n(chi, -q) - q (1+q)^{n+1} chi(0) 0^n.

The boundary term is zero except at n = 0 for modulus 1, where
L_E(0 | chi_1) = q^2 - q(1+q) = -q.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from mpmath import mp
from mpmath.libmp import from_int, fzero, mpc_mul, mpc_neg, mpc_pow, round_nearest

from .characters import DirichletCharacter
from .chi_eulerian import chi_eulerian
from .cyclotomic import cyc_embed
from .errors import ConvergenceDomain, DomainError
from .numerics import alternating_character_sum, choose_truncation, to_mpc, to_mpf
from .numtheory import smallest_prime_factors

Scalar = Union[int, Fraction]


@dataclass(frozen=True)
class LValue:
    s: object
    character: DirichletCharacter
    q: Fraction
    bits: int
    value: object
    tail_bound: object
    terms: int


def l_eulerian(s, chi: DirichletCharacter, q: Scalar, bits: int = 128) -> LValue:
    """Partial-sum evaluation of L_E(s | chi) with a certified tail bound.

    The truncation point doubles until the term ratio test certifies monotone
    geometric decay and the remaining tail (scaled by the prefactor) is below
    2^(4-bits).

    m^{-s} is completely multiplicative, so the sum computes one power p^{-s}
    per prime p <= M (``mpc_pow``, as ``mp.power`` would) and each composite m
    as the product of its prime factors' powers, found from a smallest prime
    factor table.  Only the powers of primes p <= M/2 are kept, since a larger
    prime divides no other m <= M; no table of all m <= M is built.  A
    composite's power carries at most Omega(m) - 1 <= log2(M) more roundings
    at the working precision bits + 64 than ``mp.power(m, -s)``, far inside
    the 2^(8-bits) slack of the interpolation check.  At s = -n the products
    are exact integers whenever m^n fits the working precision, so there the
    value is bit for bit that of one ``mp.power`` per term.
    """
    qf = Fraction(q)
    if qf <= 1:
        raise ConvergenceDomain("the L-series needs q > 1")
    with mp.workprec(bits + 64):
        s_val = to_mpc(s)
        growth = max(mp.mpf(0), -s_val.real)
        M, tail = choose_truncation(growth, qf, bits - 4)
        acc = alternating_character_sum(chi, qf, bits, M, _inverse_powers(s_val, M))
        prefactor = to_mpf(qf) * mp.power(to_mpf(1 + qf), 1 - s_val)
        value = prefactor * acc
        bound = mp.fabs(prefactor) * tail
        return LValue(+s_val, chi, qf, bits, +value, +bound, M)


def _inverse_powers(s, M: int):
    """m -> m^{-s} as a raw mpc at the current precision, for 1 <= m <= M."""
    prec, rnd = mp.prec, round_nearest
    w = mpc_neg(s._mpc_)
    spf = smallest_prime_factors(M)
    powers = {}

    def power(p):
        v = powers.get(p)
        if v is None:
            v = mpc_pow((from_int(p), fzero), w, prec, rnd)
            if 2 * p <= M:  # a larger prime divides no other m <= M
                powers[p] = v
        return v

    def term(m):
        p = spf[m]
        v = power(p)
        m //= p
        while m > 1:
            p = spf[m]
            v = mpc_mul(v, power(p), prec, rnd)
            m //= p
        return v

    return term


@dataclass(frozen=True)
class InterpolationReport:
    n: int
    character: DirichletCharacter
    q: Fraction
    bits: int
    l_value: object
    reference: object
    difference: object
    bound: object
    passed: bool


def verify_interpolation(n: int, chi: DirichletCharacter, q: Scalar, bits: int = 128) -> InterpolationReport:
    """Compare L_E(-n | chi) against (-1)^n A_n(chi, -q).

    The comparison leaves out the boundary term q (1+q)^{n+1} chi(0) 0^n
    (see the module docstring), so it fails at n = 0 for modulus 1, where
    L_E(0 | chi_1) = -q while A_0(chi_1, -q) = q^2.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    qf = Fraction(q)
    lv = l_eulerian(-n, chi, qf, bits)
    with mp.workprec(bits + 64):
        reference = (-1) ** n * cyc_embed(chi_eulerian(n, chi, qf), bits + 32)
        diff = mp.fabs(lv.value - reference)
        bound = lv.tail_bound + mp.mpf(2) ** (-bits + 8)
        return InterpolationReport(n, chi, qf, bits, lv.value, +reference, +diff, +bound,
                                   bool(diff <= bound))


@dataclass(frozen=True)
class MellinTermReport:
    s: object
    m_index: int
    q: Fraction
    bits: int
    lhs: object
    rhs: object
    difference: object
    tolerance: object
    passed: bool


def mellin_term_check(s, m_index: int, q: Scalar, bits: int = 64) -> MellinTermReport:
    """Verify (1/Gamma(s)) int_0^inf t^{s-1} e^{-m(1+q)t} dt = (m(1+q))^{-s}.

    The integral is evaluated by adaptive quadrature on [0, T] with T chosen
    so the integrand's exponential factor is below 2^-bits; agreement is
    required within 2^(-bits/2).
    """
    qf = Fraction(q)
    if m_index < 1:
        raise ValueError("m_index must be >= 1")
    if qf <= -1:
        raise DomainError("need q > -1 so the exponential kernel decays")
    with mp.workprec(bits + 48):
        s_val = to_mpc(s)
        if s_val.real <= 0:
            raise DomainError("the term-wise identity needs Re(s) > 0")
        rate = m_index * to_mpf(1 + qf)
        T = (bits + 64) * mp.ln(2) / rate

        def integrand(t):
            return mp.power(t, s_val - 1) * mp.exp(-rate * t)

        integral = mp.quad(integrand, [0, T], maxdegree=12)
        lhs = integral / mp.gamma(s_val)
        rhs = mp.power(rate, -s_val)
        diff = mp.fabs(lhs - rhs)
        tol = mp.mpf(2) ** (-(bits // 2))
        return MellinTermReport(+s_val, m_index, qf, bits, +lhs, +rhs, +diff, +tol,
                                bool(diff <= tol))
