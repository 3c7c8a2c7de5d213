"""High-precision evaluation of the Eulerian L-function and its checks.

For q > 1 the defining series

    L_E(s | chi) = q (1+q)^{1-s} sum_{m>=1} (-1)^m chi(m) q^{-m} m^{-s}

converges geometrically for every complex s, so no continuation machinery is
needed.  For Re s > 0 and odd modulus d it also converges at q = 1.  Every
evaluation carries a rigorous bound on its error.

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
from itertools import accumulate
from typing import Union

from mpmath import mp
from mpmath.libmp import from_int, fzero, mpc_neg, mpc_pow, mpf_div, round_nearest

from .characters import DirichletCharacter
from .chi_eulerian import chi_eulerian
from .cyclotomic import cyc_embed
from .errors import ConvergenceDomain, DomainError
from .numerics import _cmul, _pair, _round, alternating_character_sum, choose_truncation, to_mpc, to_mpf
from .numtheory import smallest_prime_factors

Scalar = Union[int, Fraction]

MAX_CLASS_TERMS = 4096  # q = 1 is refused past this: the weights of n terms take O(n^2) bits


@dataclass(frozen=True)
class LValue:
    s: object
    character: DirichletCharacter
    q: Fraction
    bits: int
    value: object
    tail_bound: object
    terms: int
    method: str  # "partial-sum" or "accelerated"


def l_eulerian(s, chi: DirichletCharacter, q: Scalar, bits: int = 128) -> LValue:
    """L_E(s | chi) within ``tail_bound`` < 2^(4-bits): by ``_accelerated`` when Re s > 0 and
    d is odd, if that takes fewer terms than ``_partial_sum`` (at q = 1 always)."""
    qf = Fraction(q)
    with mp.workprec(bits + 64):
        s_val = to_mpc(s)
        if s_val.real > 0 and chi.modulus % 2 and qf >= 1 and (lv := _accelerated(s, chi, qf, bits)):
            return lv
        if qf <= 1:
            raise ConvergenceDomain(f"the L-series needs q > 1, or q = 1 with Re s > 0, an odd modulus "
                                    f"and at most {MAX_CLASS_TERMS} terms per residue class")
        return _partial_sum(s, chi, qf, bits)


def _working_prec(s, M: int, q: Fraction, bits: int) -> int:
    """Working precision for a route that sums m^{-s} for m <= M times (1+q)^{1-s}.

    The phases Im s log m and Im s log(1+q) come out with an absolute error of about
    |Im s| log max(M, 1+q) 2^-prec.  Below 2^32 that takes at most 32 of the 64 guard
    bits, and the precision stays bits + 64; past it, each further bit adds one.
    """
    with mp.workprec(64):
        loss = mp.fabs(to_mpc(s).imag) * mp.log(to_mpf(max(M, 1 + q)))
    _, man, exp, bc = loss._mpf_  # man * 2^exp < 2^(exp+bc)
    return bits + 64 + (max(0, exp + bc - 32) if man else 0)


def _partial_sum(s, chi: DirichletCharacter, q: Fraction, bits: int) -> LValue:
    """The series to M terms, M and the tail bound from ``choose_truncation`` (q > 1)."""
    with mp.workprec(bits + 64):
        growth = max(mp.mpf(0), -to_mpc(s).real)
        M, tail = choose_truncation(growth, q, bits - 4)
    with mp.workprec(_working_prec(s, M, q, bits)):
        s_val = to_mpc(s)
        acc = alternating_character_sum(chi, q, bits, M, _inverse_powers(s_val, M))
        prefactor = to_mpf(q) * mp.power(to_mpf(1 + q), 1 - s_val)
        return LValue(+s_val, chi, q, bits, +(prefactor * acc), +(mp.fabs(prefactor) * tail), M,
                      "partial-sum")


def _accelerated(s, chi: DirichletCharacter, q: Fraction, bits: int) -> LValue | None:
    """The series by residue classes with Chebyshev weights; None past the term limit.

    For odd d, (-1)^{a+dj} = (-1)^a (-1)^j, and by the Mellin transform the
    class terms r^j (a+dj)^{-s}, r = q^{-d}, are the moments on [0, r] of a
    measure of total variation Gamma(sigma) a^{-sigma} / |Gamma(s)|, sigma = Re s > 0.
    Algorithm 1 of Cohen, Rodriguez Villegas and Zagier with P_n(x) = T_n(1 - 2x/r)
    then leaves at most that over P_n(-1) = T_n(1 + 2 q^d) per class.  n is the
    smallest count with bound = |prefactor| sum_a q^{-a} a^{-sigma} (Gamma(sigma)
    / (|Gamma(s)| T_n(1 + 2 q^d)) + n 2^-(bits+30)) < 2^(4-bits), over a with
    chi(a) != 0, evaluated at 64 bits and doubled.  Its last term covers
    rounding: chi is rounded at bits + 32, and a class adds n terms of modulus
    <= q^{-a} a^{-sigma} with under d n + 64 roundings at bits + 64.  The limit
    is phi(d) n < M, the partial sum's count, and MAX_CLASS_TERMS at q = 1 or
    where no M certifies the partial sum's tail.  The sum runs at ``_working_prec``.
    """
    s_val = to_mpc(s)
    d = max(chi.modulus, 1)
    classes = [a for a in range(1, d + 1) if chi(a % d)]
    limit = MAX_CLASS_TERMS
    if q > 1:
        try:
            limit = (choose_truncation(0, q, bits - 4)[0] - 1) // len(classes)
        except ConvergenceDomain:  # no partial sum certifies its tail this close to q = 1
            pass
    prefactor = to_mpf(q) * mp.power(to_mpf(1 + q), 1 - s_val)
    with mp.workprec(64):
        mass = 2 * mp.fabs(prefactor) * mp.fsum(to_mpf(q) ** -a * mp.mpf(a) ** -s_val.real for a in classes)
        ratio = mp.gamma(s_val.real) / mp.fabs(mp.gamma(s_val))
        z = 1 + 2 * to_mpf(q) ** d
        eps, unit = mp.mpf(2) ** (4 - bits), mp.mpf(2) ** -(bits + 30)
        t_prev, t = mp.mpf(1), z  # T_{n-1}(z), T_n(z)
        for n in range(1, limit + 1):
            bound = mass * (ratio / t + n * unit)
            if bound < eps:
                break
            t_prev, t = t, 2 * z * t - t_prev
        else:
            return None
    with mp.workprec(_working_prec(s, d * n, q, bits)):
        if mp.prec > bits + 64:  # s_val and prefactor were formed at bits + 64
            s_val = to_mpc(s)
            prefactor = to_mpf(q) * mp.power(to_mpf(1 + q), 1 - s_val)
        prec = mp.prec
        weights = _chebyshev_weights(n, q, d)
        power = _inverse_powers(s_val, d * n)

        def damped(m):
            wm, we = weights[(m - 1) // d]
            t = power(m)
            if len(t) == 2:
                return _round(t[0] * wm, t[1] + we, prec)
            return (*_round(t[0] * wm, t[1] + we, prec), *_round(t[2] * wm, t[3] + we, prec))

        acc = alternating_character_sum(chi, q, bits, d * n, damped)
        return LValue(+s_val, chi, q, bits, +(prefactor * acc), +bound, len(classes) * n, "accelerated")


def _chebyshev_weights(n: int, q: Fraction, d: int) -> list:
    """lambda_k = sum_{i>k} |C_i| / sum_i |C_i| (k < n) as (man, exp) pairs, T_n(1 - 2 q^d x) = sum C_i x^i.

    sum_j (-1)^j b_j = sum_{k<n} (-1)^k lambda_k b_k + remainder for moments on [0, q^{-d}].
    The c_i of T_n(1 - 2y) alternate in sign, with c_0 = 1 and |c_{i+1}/c_i| =
    2 (n+i)(n-i) / ((2i+1)(i+1)); for q = u/v each |C_i| v^{dn} is an integer.
    """
    ud, vd = q.numerator ** d, q.denominator ** d
    c, g = 1, vd**n  # |c_i| and u^{di} v^{d(n-i)}
    scaled = []
    for i in range(n + 1):
        scaled.append(c * g)
        c = c * 2 * (n + i) * (n - i) // ((2 * i + 1) * (i + 1))
        g = g * ud // vd
    total, tails = from_int(sum(scaled)), reversed(list(accumulate(reversed(scaled[1:]))))
    return [_pair(mpf_div(from_int(tail), total, mp.prec, round_nearest), mp.prec) for tail in tails]


def _inverse_powers(s, M: int):
    """m -> m^{-s} at the current precision for 1 <= m <= M, as the pairs of
    ``alternating_character_sum``: (man, exp) at real s, (re_man, re_exp,
    im_man, im_exp) otherwise.

    One ``mpc_pow`` per prime p <= M, kept for p <= M/2; a composite is the
    product of its prime factors' powers, each product exact and rounded once
    as ``mpc_mul`` rounds it, at most log2(M) more roundings than
    ``mp.power``, and exact at s = -n while m^n fits.  At real s every power
    is real (imaginary part fzero), so only the real parts are multiplied:
    the same roundings in fewer operations.
    """
    prec = mp.prec
    w = mpc_neg(s._mpc_)
    real = w[1] == fzero
    spf = smallest_prime_factors(M)
    powers = {}

    def power(p):
        v = powers.get(p)
        if v is None:
            re, im = mpc_pow((from_int(p), fzero), w, prec, round_nearest)
            v = _pair(re, prec) if real else (*_pair(re, prec), *_pair(im, prec))
            if 2 * p <= M:  # a larger prime divides no other m <= M
                powers[p] = v
        return v

    def term(m):
        p = spf[m]
        v = power(p)
        m //= p
        while m > 1:
            p = spf[m]
            u = power(p)
            v = _round(v[0] * u[0], v[1] + u[1], prec) if real else _cmul(v, u, prec)
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
