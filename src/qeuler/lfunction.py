"""High-precision evaluation of the Eulerian L-function and its checks.

For q > 1 the defining series

    L_E(s | chi) = q (1+q)^{1-s} sum_{m>=1} (-1)^m chi(m) q^{-m} m^{-s}

converges geometrically for every complex s, so no continuation machinery is
needed.  For Re s > 0 it also converges at q = 1.  Every modulus d is odd,
since ``unit_group`` refuses even ones.  Every evaluation carries a rigorous
bound on its error.

At negative integers it interpolates the character-attached Eulerian values
up to sign and one boundary term.  The geometric expansion of their
generating function, q(1+q) sum_{m>=0} (-1)^m chi(m) q^{-m} e^{-m(1+q)t},
has an m = 0 term without a Mellin transform, so the series starts at m = 1
and

    L_E(-n | chi) = (-1)^n A_n(chi, -q) - q (1+q)^{n+1} chi(0) 0^n.

The boundary term is zero except at n = 0 for modulus 1, where
L_E(0 | chi_1) = q^2 - q(1+q) = -q.

Three routes sum the series: ``_partial_sum`` to the M that
``choose_truncation`` certifies; for Re s > 0, ``_accelerated``,
Chebyshev-weighted residue classes (also at q = 1); and for Re s <= 0 off the
negative integers, ``_boole``, a head to m = dJ plus a Boole summation tail per
residue class whose coefficients are Carlitz's Frobenius-Euler numbers
H_k(-q^d) from the Eulerian triangle, under a Hankel integral bound.  Either
of the last two runs where it takes fewer terms than the partial sum, which
near q = 1 needs about bits / log2 q; the Boole route needs O(bits + |s|) per
class.  At s = -n the partial sum always runs, so the closed form
A_n(chi, -q), which the Boole tail becomes at J = 0, is checked against an
independent sum.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, count
from math import ceil, floor, lgamma, log, log2
from typing import Union

from mpmath import mp
from mpmath.libmp import from_int, from_man_exp, fzero, mpc_neg, mpc_pow, mpf_div, round_nearest

from .characters import DirichletCharacter
from .chi_eulerian import chi_eulerian
from .cyclotomic import cyc_embed
from .errors import ConvergenceDomain, DomainError
from .eulerian import _frobenius_euler
from .numerics import (NumericCheck, _cmul, _pair, _round, alternating_character_sum, choose_truncation,
                       decay_index, integer_powers, numeric_check, to_mpc, to_mpf)
from .numtheory import smallest_prime_factors

Scalar = Union[int, Fraction]

MAX_CLASS_TERMS = 4096  # q = 1 is refused past this: the weights of n terms take O(n^2) bits
_R, _R_OUTER = 3, Fraction(31, 10)  # radii r < r' < pi of the Boole remainder bound


@dataclass(frozen=True)
class LValue:
    s: object
    character: DirichletCharacter
    q: Fraction
    bits: int
    value: object
    tail_bound: object
    terms: int
    method: str  # "partial-sum", "accelerated" or "boole"


def l_eulerian(s, chi: DirichletCharacter, q: Scalar, bits: int = 128) -> LValue:
    """L_E(s | chi) within ``tail_bound``: by ``_accelerated`` when Re s > 0, or by ``_boole``
    (q > 1) when Re s <= 0 and s is not an integer, if that takes fewer terms than
    ``_partial_sum`` or no partial sum certifies its tail (q = 1, or q - 1 = 10^-21);
    else by the partial sum.  The first two bound the error below 2^(4-bits).

    Re s must lie in [-2^11, 2^30]; outside it ConvergenceDomain is raised before any sum.
    Up to 2^30 the sum is tested to stay small in memory: the series loop does not align
    a product 2^-Re s below it.  Below -2^11 the partial sum takes more than 2 |Re s|
    terms, each the exact m^|Re s|, so its time grows as (Re s)^2.
    """
    qf = Fraction(q)
    with mp.workprec(bits + 64):
        s_val = to_mpc(s)
        if not -2**11 <= s_val.real <= 2**30:
            raise ConvergenceDomain(f"s = {mp.nstr(s_val, 8)}: the L-series is summed only at "
                                    "-2^11 <= Re s <= 2^30")
        if s_val.real > 0 and qf >= 1 and (lv := _accelerated(s, chi, qf, bits)):
            return lv
        if qf <= 1:
            raise ConvergenceDomain(f"the L-series needs q > 1, or q = 1 with Re s > 0 and at most "
                                    f"{MAX_CLASS_TERMS} terms per residue class")
        if s_val.real <= 0 and not mp.isint(s_val) and (lv := _boole(s, chi, qf, bits)):
            return lv
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
        acc = alternating_character_sum(chi, q, bits, M, _inverse_powers(s_val, M), decay=decay_index(growth, q))
        prefactor = to_mpf(q) * mp.power(to_mpf(1 + q), 1 - s_val)
        return LValue(+s_val, chi, q, bits, +(prefactor * acc), +(mp.fabs(prefactor) * tail), M,
                      "partial-sum")


def _accelerated(s, chi: DirichletCharacter, q: Fraction, bits: int) -> LValue | None:
    """The series by residue classes with Chebyshev weights; None past the term limit.

    As d is odd, (-1)^{a+dj} = (-1)^a (-1)^j, and by the Mellin transform the
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


def _boole(s, chi: DirichletCharacter, q: Fraction, bits: int) -> LValue | None:
    """The series as a head to m = dJ and a Frobenius-Euler tail per residue class (q > 1,
    Re s <= 0, s not an integer); None unless it takes fewer terms than ``_partial_sum``.

    With d odd, z = -q^{-d}, u = 1/z and w = a + dJ, class a's terms from j = J on are
    (-1)^w chi(w) q^{-w} sum_{i>=0} z^i (w + di)^{-s}.  Since 1/(1 - z e^t) =
    u/(u-1) sum_k H_k(u) t^k/k!, with Carlitz's Frobenius-Euler numbers H_k(u) =
    A_k(u)/(u-1)^k = h_k/D^k from the triangle (``eulerian._frobenius_euler``, q = a/b,
    D = a^d + b^d), Boole's summation formula (DLMF 24.17(i), E_k replaced by H_k(u)) gives

        sum_{i>=0} z^i (w + di)^{-s} = u/(u-1) w^{-s} sum_{k<K} H_k(u) C(-s,k) (d/w)^k + R_K(w).

    So the value is one ``alternating_character_sum`` to m = d(J+1), each term past dJ
    times that polynomial in 1/w.  Bound: by Hankel's integral (w + dx)^{-s} =
    Gamma(1-s)/(2 pi i) int_H e^{(w+dx)t} t^{s-1} dt, R_K(w) is the same integral of
    e^{wt} t^{s-1} g_K(dt), g_K(tau) = 1/(1 - z e^tau) less its Taylor polynomial of degree
    < K.  For Re s + K > 0 the contour folds onto both sides of t < 0, where |t^{s-1}| <=
    |t|^{sigma-1} e^{pi |Im s|}, sigma = Re s.  On |tau| = r' in [pi/2, pi),
    |1 + q^{-d} e^tau| >= sin r', so the Taylor coefficients are at most r'^{-k} / sin r'.
    By Cauchy's formula on |tau| = r' for |tau| <= r, and beyond it by |1/(1 - z e^tau)| <= 1
    plus the polynomial's sum_{k<K} (|tau|/r')^k / sin r' <= (|tau|/r)^K / (sin r' (1 - r/r')),
    |g_K(tau)| <= G (|tau|/r)^K on tau <= 0, G = 1 + 1/(sin r' (1 - r/r')), r = 3,
    r' = 31/10.  Hence

        |R_K(w)| <= G |Gamma(1-s)| e^{pi |Im s|} Gamma(sigma + K) (d/(r w))^K w^{-sigma} / pi,

    and ``tail_bound`` is |prefactor| sum_a q^{-w} times that, over a with chi(a) != 0,
    evaluated at 64 bits and doubled.  J and K come from a float search on the bound with
    every class taken at the smallest w in (d/(rw))^K and the largest in w^{-sigma}: for
    each J the smallest K that puts it below 2^(3-bits), then the pair with the fewest
    terms dJ + phi K, phi the number of classes.  The route is taken when that count is
    below M, the partial sum's, or below phi MAX_CLASS_TERMS where no M certifies the
    partial sum's tail.  The coefficients are fixed point at 2^-prec, each polynomial is
    one integer Horner pass in w, and the sum runs at ``_working_prec``.
    """
    s_val = to_mpc(s)
    d = max(chi.modulus, 1)
    classes = [a for a in range(1, d + 1) if chi(a % d)]
    try:
        limit = choose_truncation(-s_val.real, q, bits - 4)[0]
    except ConvergenceDomain:  # no partial sum certifies its tail this close to q = 1
        limit = MAX_CLASS_TERMS * len(classes)
    with mp.workprec(64):
        sigma, qv, r_outer = s_val.real, to_mpf(q), to_mpf(_R_OUTER)
        G = 1 + 1 / (mp.sin(r_outer) * (1 - _R / r_outer))
        # twice |prefactor| G |Gamma(1-s)| e^{pi |Im s|} / pi
        scale = (2 * qv * mp.power(1 + qv, 1 - sigma) * G / mp.pi
                 * mp.exp(mp.loggamma(1 - s_val).real + mp.pi * mp.fabs(s_val.imag)))
        plan = _boole_plan(float(mp.log(scale * mp.fsum(qv**-a for a in classes), 2)), float(mp.log(qv, 2)),
                           float(sigma), d, classes, bits, limit)
        if plan is None:
            return None
        J, K = plan
        bound = scale * mp.gamma(sigma + K) * mp.fsum(
            qv ** -(a + d * J) * (mp.mpf(d) / (_R * (a + d * J))) ** K * mp.mpf(a + d * J) ** -sigma for a in classes)
    head = d * J
    with mp.workprec(_working_prec(s, head + d, q, bits)):
        s_val = to_mpc(s)
        prec = mp.prec
        power = _inverse_powers(s_val, head + d)
        coefficients = _boole_coefficients(s_val, q, d, K, prec)

        def term(m):
            t = power(m)
            if m <= head:
                return t
            re = im = 0
            for br, bi in coefficients:
                re, im = re * m + br, im * m + bi
            mk = from_int(m ** (K - 1))
            f = _pair(mpf_div(from_man_exp(re, -prec), mk, prec, round_nearest), prec)
            if len(t) == 2:  # real s, real coefficients
                return _round(t[0] * f[0], t[1] + f[1], prec)
            return _cmul(t, (*f, *_pair(mpf_div(from_man_exp(im, -prec), mk, prec, round_nearest), prec)), prec)

        acc = alternating_character_sum(chi, q, bits, head + d, term)
        prefactor = to_mpf(q) * mp.power(to_mpf(1 + q), 1 - s_val)
        return LValue(+s_val, chi, q, bits, +(prefactor * acc), +bound, head + len(classes) * K, "boole")


def _boole_plan(log2_scale: float, log2_q: float, sigma: float, d: int, classes: list, bits: int,
                limit: int) -> tuple[int, int] | None:
    """(J, K) with the fewest terms dJ + phi K below ``limit`` whose bound, with every class at the
    smallest w = dJ + a in (d/(rw))^K and the largest in w^-sigma, is below 2^(3-bits), for
    sigma + K > 0.

    For fixed J the bound falls with K while sigma + K < r w/d, so the smallest K is found
    by walking down from the previous J's, or from that turning point."""
    target, phi, best, K0 = 3 - bits, len(classes), None, floor(-sigma) + 1
    for J in count(1):
        if d * J >= (best[0] if best else limit):
            break
        lo, hi = d * J + classes[0], d * J + classes[-1]
        rest = log2_scale - d * J * log2_q - sigma * log2(hi)

        def f(K):
            return rest + lgamma(sigma + K) / log(2) + K * log2(d / (_R * lo))

        if best is None or f(K) >= target:
            K = max(K0, ceil(_R * lo / d - sigma))
            if f(K) >= target:
                continue
        while K > K0 and f(K - 1) < target:
            K -= 1
        if best is None or d * J + phi * K < best[0]:
            best = (d * J + phi * K, J, K)
    return best[1:] if best and best[0] < limit else None


def _boole_coefficients(s_val, q: Fraction, d: int, K: int, F: int) -> list[tuple[int, int]]:
    """2^F u/(u-1) H_k(u) C(-s,k) d^k for k < K, u = -q^d, as floored (re, im) integers.

    u/(u-1) H_k(u) = a^d h_k / D^{k+1}, exactly, and C(-s,k) d^k runs in fixed point at
    2^-F: c_{k+1} = c_k (-s-k) d / (k+1)."""
    A, B = q.numerator**d, q.denominator**d
    D = A + B
    x, y = (int(mp.ldexp(-part, F)) for part in (s_val.real, s_val.imag))
    cr, ci, Dk, out = 1 << F, 0, D, []
    for k, hk in enumerate(_frobenius_euler(A, B, K - 1)):
        g = A * hk
        out.append((cr * g // Dk, ci * g // Dk))
        xr, step = x - (k << F), (k + 1) << F
        cr, ci = (cr * xr - ci * y) * d // step, (cr * y + ci * xr) * d // step
        Dk *= D
    return out


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

    At s = -n every m^n is the exact integer rounded once (``integer_powers``).
    Otherwise one ``mpc_pow`` per prime p <= M, kept for p <= M/2; a composite is
    the product of its prime factors' powers, each product exact and rounded
    once, at most log2(M) more roundings than ``mp.power``.  At real s every
    power is real (imaginary part fzero), so only the real parts are multiplied.
    """
    prec = mp.prec
    w = mpc_neg(s._mpc_)
    real = w[1] == fzero
    if real and s.real <= 0 and mp.isint(s.real):
        return integer_powers(int(-s.real), M)
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


def verify_interpolation(n: int, chi: DirichletCharacter, q: Scalar, bits: int = 128) -> NumericCheck:
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
        return numeric_check(lv.value, reference, lv.tail_bound + mp.mpf(2) ** (8 - bits), lv.terms)


def mellin_term_check(s, m_index: int, q: Scalar, bits: int = 64) -> NumericCheck:
    """Verify (1/Gamma(s)) int_0^inf t^{s-1} e^{-m(1+q)t} dt = (m(1+q))^{-s}.

    The integral is evaluated by adaptive quadrature on [0, T] with T chosen
    so the integrand's exponential factor is below 2^-bits; agreement is
    required within 2^(-bits/2).  The exponent s - 1 is formed once, and at
    real s it is an mpf, so t^(s-1) stays real.  For Re s < 1, where t^{s-1}
    is unbounded at 0, the quadrature starts at eps = 2^-e, the first power of 2
    with rate eps <= 1, and [0, eps] is integrated term by term from the series of
    e^{-rate t}: sum_k (-rate)^k eps^{k+s} / (k! (k+s)), summed until a term
    falls below 2^-prec.
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
        exponent = s_val - 1 if s_val.imag else s_val.real - 1

        def integrand(t):
            return mp.power(t, exponent) * mp.exp(-rate * t)

        if s_val.real >= 1:
            integral = mp.quad(integrand, [0, T], maxdegree=12)
        else:
            eps = mp.ldexp(1, -max(0, int(mp.ceil(mp.log(rate, 2)))))
            head, term, k = 0, mp.mpf(1), 0  # term = (-rate eps)^k / k!
            while mp.fabs(term) >= mp.eps / 2:
                head += term / (k + 1 + exponent)
                k += 1
                term *= -rate * eps / k
            integral = mp.power(eps, exponent + 1) * head + mp.quad(integrand, [eps, T], maxdegree=12)
        lhs = integral / mp.gamma(s_val)
        return numeric_check(lhs, mp.power(rate, -s_val), mp.mpf(2) ** (-(bits // 2)))
