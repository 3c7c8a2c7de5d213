"""High-precision evaluation of the Eulerian L-function and its checks.

For q > 1 the defining series

    L_E(s | chi) = q (1+q)^{1-s} sum_{m>=1} (-1)^m chi(m) q^{-m} m^{-s}

converges geometrically for every complex s, so no continuation machinery is needed.  For
Re s > 0 it also converges at q = 1.  Every modulus d is odd, since ``unit_group`` refuses even
ones.  Every evaluation carries a rigorous bound on its error.

At negative integers it interpolates the character-attached Eulerian values up to sign and one
boundary term.  The geometric expansion of their generating function,
q(1+q) sum_{m>=0} (-1)^m chi(m) q^{-m} e^{-m(1+q)t}, has an m = 0 term without a Mellin
transform, so the series starts at m = 1 and

    L_E(-n | chi) = (-1)^n A_n(chi, -q) - q (1+q)^{n+1} chi(0) 0^n.

The boundary term is zero except at n = 0 for modulus 1, where L_E(0 | chi_1) = q^2 - q(1+q) = -q.

Two routes sum the series: ``_partial_sum`` to the M that ``choose_truncation`` certifies, and
``_boole``, a head to m = dJ plus a Boole tail per residue class with Carlitz's Frobenius-Euler
numbers H_k(-q^d) from an Euler-Seidel array, where its price in series terms is below the partial
sum's (about bits / log2 q terms near q = 1) or no partial sum certifies its tail (``l_eulerian``
says where).  At s = -n the partial sum always runs, so the closed form A_n(chi, -q), which the
Boole tail becomes at J = 0, is checked against an independent sum.  One work budget,
``MAX_TERMS`` series terms, caps both routes: where neither fits it, ConvergenceDomain comes first.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import count
from math import floor, lgamma, log, log2
from typing import Union

from mpmath import mp
from mpmath.libmp import (from_int, from_man_exp, fzero, mpc_neg, mpc_pow, mpf_div, mpf_exp, mpf_mul, mpf_neg, mpf_pow,
                          round_nearest)

from .characters import DirichletCharacter
from .chi_eulerian import chi_eulerian
from .cyclotomic import cyc_embed
from .errors import ConvergenceDomain, DomainError
from .eulerian import _frobenius_euler
from .numerics import (NumericCheck, _cmul, _pair, _round, alternating_character_sum, choose_truncation,
                       decay_index, integer_powers, numeric_check, to_mpc, to_mpf)
from .numtheory import smallest_prime_factors

Scalar = Union[int, Fraction]

MAX_TERMS = 2**19  # the work budget of every L-value, in _boole_plan's priced series terms
_R, _R_OUTER = 3, Fraction(31, 10)  # radii r < r' < pi of the Boole remainder bound
_TAIL_STEPS, _TAIL_BITS = 60, 4000  # c and g of _boole_plan's price


@dataclass(frozen=True)
class LValue:
    s: object
    character: DirichletCharacter
    q: Fraction
    bits: int
    value: object
    tail_bound: object
    terms: int
    method: str  # "partial-sum" or "boole"


def l_eulerian(s, chi: DirichletCharacter, q: Scalar, bits: int = 128) -> LValue:
    """L_E(s | chi) within ``tail_bound``: by ``_boole`` at Re s > 0 (q >= 1), or at Re s <= 0 off the
    integers (q > 1), where it costs fewer terms than ``_partial_sum`` or no partial sum certifies its
    tail (q = 1, or q - 1 = 10^-21); else by the partial sum.  Before any sum, ConvergenceDomain where
    no route fits ``MAX_TERMS`` terms, and below Re s = -2^11, which bounds each exact m^|Re s|'s size."""
    qf = Fraction(q)
    with mp.workprec(bits + 64):
        s_val = to_mpc(s)
        if s_val.real < -2**11:
            raise ConvergenceDomain(f"s = {mp.nstr(s_val, 8)}: the L-series is summed only at Re s >= -2^11")
        if qf < 1 or qf == 1 and s_val.real <= 0:
            raise ConvergenceDomain("the L-series needs q > 1, or q = 1 with Re s > 0")
        return ((s_val.real > 0 or not mp.isint(s_val)) and _boole(s, chi, qf, bits)) or _partial_sum(s, chi, qf, bits)


def _working_prec(s, M: int, q: Fraction, bits: int) -> int:
    """Working precision for a route that sums m^{-s} for m <= M times (1+q)^{1-s}.  The exponents
    s log m and s log(1+q) come out with an absolute error of about |s| log max(M, 1+q) 2^-prec,
    the relative error of m^-s and (1+q)^{1-s} (their phases at large |Im s|, moduli at large
    Re s).  Below 2^32 that takes at most 32 of the 64 guard bits of bits + 64; past it, each
    further bit adds one."""
    with mp.workprec(64):
        loss = mp.fabs(to_mpc(s)) * mp.log(to_mpf(max(M, 1 + q)))
    _, man, exp, bc = loss._mpf_  # man * 2^exp < 2^(exp+bc)
    return bits + 64 + (max(0, exp + bc - 32) if man else 0)


def _partial_sum(s, chi: DirichletCharacter, q: Fraction, bits: int) -> LValue:
    """The series to M terms, M and the tail bound from ``choose_truncation`` (q > 1); over
    budget, ConvergenceDomain before the sum, when its phi(d) M / d nonzero terms pass ``MAX_TERMS``."""
    with mp.workprec(bits + 64):
        growth = max(mp.mpf(0), -to_mpc(s).real)
        M, tail = choose_truncation(growth, q, bits - 4)
        if M * len(chi.group.dlog) > MAX_TERMS * chi.modulus:  # dlog holds the phi(d) units
            raise ConvergenceDomain(f"s = {mp.nstr(to_mpc(s), 8)}: no route fits the work budget of {MAX_TERMS} terms")
    with mp.workprec(_working_prec(s, M, q, bits)):
        s_val = to_mpc(s)
        acc = alternating_character_sum(chi, q, bits, M, _inverse_powers(s_val, M), decay=decay_index(growth, q))
        prefactor = to_mpf(q) * mp.power(to_mpf(1 + q), 1 - s_val)
        return LValue(+s_val, chi, q, bits, +(prefactor * acc), +(mp.fabs(prefactor) * tail), M,
                      "partial-sum")


def _boole(s, chi: DirichletCharacter, q: Fraction, bits: int) -> LValue | None:
    """The series as a head to m = dJ and a Frobenius-Euler tail per residue class, for Re s > 0 at
    q >= 1 and Re s <= 0 off the integers at q > 1; None unless ``_boole_plan`` prices it below
    ``_partial_sum``'s terms and ``MAX_TERMS``, or ConvergenceDomain if no partial sum certifies.

    With d odd, z = -q^{-d}, u = 1/z and w = a + dJ, class a's terms from j = J on are
    (-1)^w chi(w) q^{-w} sum_{i>=0} z^i (w + di)^{-s}.  Since 1/(1 - z e^t) =
    u/(u-1) sum_k H_k(u) t^k/k!, with Carlitz's Frobenius-Euler numbers H_k(u) =
    A_k(u)/(u-1)^k = h_k/D^k from an Euler-Seidel array (``eulerian._frobenius_euler``, q = a/b,
    D = a^d + b^d), Boole's summation formula (DLMF 24.17(i), E_k replaced by H_k(u)) gives

        sum_{i>=0} z^i (w + di)^{-s} = u/(u-1) w^{-s} sum_{k<K} H_k(u) C(-s,k) (d/w)^k + R_K(w).

    So the value is one ``alternating_character_sum`` to m = d(J+1), each term past dJ times
    that polynomial in 1/w, or at K = 0 the head alone.  By Hankel's integral for (w + dx)^{-s},
    R_K(w) = Gamma(1-s)/(2 pi i) int_H e^{wt} t^{s-1} g_K(dt) dt, g_K(tau) = 1/(1 - z e^tau) less
    its Taylor polynomial of degree < K.  For sigma + K > 0, sigma = Re s, the contour folds onto
    t < 0 and, as Gamma(1-s) sin(pi s)/pi = 1/Gamma(s), R_K(w) = int_0^inf e^{-wt} t^{s-1}
    g_K(-dt) dt / Gamma(s).  On |tau| = r' in [pi/2, pi), |1 + q^{-d} e^tau| >= sin r', so by
    Cauchy's formula for |tau| <= r, and beyond it by |1/(1 - z e^tau)| <= 1 plus the Taylor
    polynomial's sum_{k<K} (|tau|/r')^k / sin r' <= (|tau|/r)^K / (sin r' (1 - r/r')),
    |g_K(tau)| <= G (|tau|/r)^K on tau <= 0, G = 1 + 1/(sin r' (1 - r/r')), r = 3, r' = 31/10.
    Hence, for every s, the positive integers included,

        |R_K(w)| <= G Gamma(sigma + K) (d/(r w))^K w^{-sigma} / |Gamma(s)|.

    ``tail_bound`` is |prefactor| sum_a q^{-w} times that, over a with chi(a) != 0, plus the
    rounding term |prefactor| T (N + phi (p + K)) e 2^-P: N roundings of terms at most T, the
    largest of the moduli q^-m m^-sigma, m <= N (q^-x x^-sigma is log-concave), a tail
    polynomial at most p = sum_k |c_k| w^-k with K floors of 2^-P, and e = 3N + |s| log
    max(N, 1+q) + 64 units of 2^-P, P the working precision, for each term's relative error and
    the additions (N products for q^-m, s log m, log2 N prime-power products, chi, which is
    embedded at P too).  Both terms are formed at 64 + 2 log2 |s| bits, past the size of
    log Gamma(s), and doubled.
    """
    s_val, d = to_mpc(s), max(chi.modulus, 1)
    classes = [a for a in range(1, d + 1) if chi(a % d)]
    try:  # None where no partial sum certifies its tail (q = 1, or q this close to 1)
        partial = choose_truncation(max(mp.mpf(0), -s_val.real), q, bits - 4)[0] * len(classes) / d if q > 1 else None
    except ConvergenceDomain:
        partial = None
    bound_prec = 64 + 2 * max(0, mp.mag(s_val))
    with mp.workprec(bound_prec):
        s_val, qv, r_outer = to_mpc(s), to_mpf(q), to_mpf(_R_OUTER)
        sigma, abs_s = s_val.real, mp.fabs(s_val)
        sigma_f = min(float(sigma), 2.0**1000)  # the plan's sigma: past 2^1000, J = 1 and K = 0 certify
        K0 = max(0, floor(-sigma_f) + 1)
        modulus = 2 * qv * mp.power(1 + qv, 1 - sigma)  # twice |prefactor|
        scale = modulus * (1 + 1 / (mp.sin(r_outer) * (1 - _R / r_outer)))  # times G
        lg_s = mp.loggamma(s_val).real
        log2_scale = mp.log(scale * mp.fsum(qv**-a for a in classes), 2) + (mp.loggamma(sigma + K0) - lg_s) / mp.ln2
        plan = _boole_plan(float(log2_scale), sigma_f, q, d, classes, bits, min(partial or MAX_TERMS, MAX_TERMS))
    if plan is None:
        if partial is None:
            raise ConvergenceDomain(f"s = {mp.nstr(s_val, 8)}: no route fits the work budget of {MAX_TERMS} terms")
        return None
    (J, K), phi = plan, len(classes)
    head, top = d * J, d * J + (d if K else 0)
    with mp.workprec(_working_prec(s, top, q, bits)):
        s_val, prec = to_mpc(s), mp.prec
        power = _inverse_powers(s_val, top)
        coefficients = _boole_coefficients(s_val, q, d, K, prec) if K else []

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

        acc = alternating_character_sum(chi, q, prec - 32, top, term)  # chi at prec
        value = +(to_mpf(q) * mp.power(to_mpf(1 + q), 1 - s_val) * acc)
        s_val = +s_val
    horner = reduce(lambda h, c: h * (head + classes[0]) + abs(c[0]) + abs(c[1]), coefficients, 0)
    with mp.workprec(bound_prec):
        ws, log_q = [mp.mpf(a + head) for a in classes], mp.log(qv)
        truncation = mp.exp(mp.loggamma(sigma + K) - lg_s) * mp.fsum(qv**-w * (d / (_R * w))**K * w**-sigma for w in ws)
        x = 1 if sigma >= 0 else top if -sigma >= top * log_q else max(1, -sigma / log_q)
        largest = qv**-x * mp.power(x, -sigma)
        polynomial = mp.ldexp(mp.mpf(horner) / ws[0] ** (K - 1), -prec) if K else 0
        rounding = largest * (top + phi * (polynomial + K)) * (3 * top + abs_s * mp.log(max(top, 1 + qv)) + 64)
        bound = scale * truncation + modulus * rounding * mp.mpf(2) ** -prec
    return LValue(s_val, chi, q, bits, value, bound, head + phi * K, "boole")


def _boole_plan(log2_scale: float, sigma: float, q: Fraction, d: int, classes: list, bits: int,
                limit) -> tuple[int, int] | None:
    """(J, K) of the least price below ``limit`` whose bound, every class at the smallest w = dJ + a in
    (d/(rw))^K, and in w^-sigma at the smallest w when sigma > 0 and the largest otherwise, is below
    2^(3-bits), for sigma + K > 0, or None; log2_scale holds Gamma(sigma + K0) / |Gamma(s)|, K0 the smallest K.

    The price is in head-series terms: phi J at K = 0, else phi (J + 1) + K^2 (1 + K log2 D / g) / c,
    D = a^d + b^d for q = a/b.  The Euler-Seidel array of h_k and the K coefficients take about K^2/2
    big-integer steps, each dearer as h_k grows by about log2 D bits a row.  c = 60 and g = 4000 were
    measured by ``tests/boole_price_check.py`` on a shared 2-core Xeon (Python 3.11, mpmath's python
    backend): at each of its seven points the plan ran within 6 % of the fastest one with the K^2
    part scaled by 1/4 to 4.

    Each K >= K0 takes the least J that fits and prices below the cap (``limit``, then the best price),
    by steps doubling out from the previous K's J, then halving.  It is the cheapest at K, as the bound
    falls with J when sigma + K > 0 and q >= 1: its log2 is -dJ log2 q - sigma log2 w_s - K log2 w_1
    plus terms free of J, w_1 <= w_s the smallest w and that of w^-sigma, whose J-derivative is at most
    -d (sigma + K) / (w_s ln 2) < 0.  The price grows with K too, so the loop stops at J = 1, when no J
    is below the cap, or once sigma + K >= r w_1 / d at the cap's largest J, past which the bound grows
    with K at every J below the cap.  Of equal prices the smaller J wins.
    """
    target, phi, best, K0, J = 3 - bits, len(classes), None, max(0, floor(-sigma) + 1), None
    log2_q = log2(q.numerator) - log2(q.denominator)
    log2_D, base = log2(q.numerator**d + q.denominator**d), lgamma(sigma + K0)
    for K in count(K0):
        cap, tail = best[0] if best else limit, K * K * (1 + K * log2_D / _TAIL_BITS) / _TAIL_STEPS
        top, gamma = int((cap - tail) // phi), lgamma(sigma + K) / log(2)  # no J above top prices below cap

        def fits(J):
            lo, hi = d * J + classes[0], d * J + classes[-1]
            rest = log2_scale - d * J * log2_q - sigma * log2(lo if sigma > 0 else hi) - base / log(2)
            return rest + gamma + K * log2(d / (_R * lo)) < target

        if top >= 1 and fits(top):
            J = min(J or top, top)
            lo, hi, step = (0, J, -1) if fits(J) else (J, top, 1)  # fits(hi), not fits(lo); lo = 0 a sentinel
            while hi - lo > 1:
                mid = J + step if lo < J + step < hi else (lo + hi) // 2
                lo, hi, step = (lo, mid, 2 * step) if fits(mid) else (mid, hi, 2 * step)
            J, price = hi, phi * (hi + 1) + tail if K else phi * hi
            best = (price, J, K) if (price, J) < (best[:2] if best else (limit, 0)) else best
        if top < 1 or J == 1 or sigma + K >= _R * (d * top + classes[0]) / d:
            break
    return best and best[1:]


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
    real s it is an mpf, so t^(s-1) stays real; there the integrand is
    mpf_mul(mpf_pow(t, s-1), mpf_exp(-rate t)) on raw libmp values, each step
    rounded to nearest at the precision quad raises to, which gives the bits of
    mp.power(t, s-1) * mp.exp(-rate * t).  For Re s < 1, where t^{s-1}
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
        e, neg_rate = (None if s_val.imag else exponent._mpf_), mpf_neg(rate._mpf_)

        def integrand(t):
            if e is None:
                return mp.power(t, exponent) * mp.exp(-rate * t)
            prec, x = mp.prec, t._mpf_  # quad's raised precision
            return mp.make_mpf(mpf_mul(mpf_pow(x, e, prec, round_nearest),
                                       mpf_exp(mpf_mul(neg_rate, x, prec, round_nearest), prec, round_nearest),
                                       prec, round_nearest))

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
