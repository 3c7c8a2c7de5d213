"""mpmath helpers shared by the numeric checks: conversions, tail bounds, the
alternating character series and ``NumericCheck``, the one record that the four
checks (eq12, eq13, interpolation, Mellin term) return from ``numeric_check``.

The series runs on signed integer (mantissa, exponent) pairs, value
man * 2^exp, under one rule: every product, sum and power is formed exactly
in Python integers and rounded once, to nearest with ties to even.  ``_round``
states the rule and ``_add`` and ``_cmul`` apply it; the series loop does the
same inline, in one body for every term shape, and skips what cannot change its
rounded sum: exact zero parts, a product more than 2 prec + 2 bits below it and,
once the terms decay (``decay_index``), every term after one whose product is
under a sixteenth of its ulp, so it returns the sum to the certified M bit for
bit.  chi comes from the shared zeta_m table at bits + 32, one per zeta_m power.
``choose_truncation`` searches each plan once per (growth, q, target, mp.prec).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, log, log1p, log2

from mpmath import mp
from mpmath.libmp import from_man_exp

from .characters import _zeta_embedded
from .errors import ConvergenceDomain


def to_mpf(x):
    """Exact-as-possible mpf at the current working precision."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / mp.mpf(x.denominator)
    return mp.mpf(x)


def to_mpc(x):
    if isinstance(x, Fraction):
        return mp.mpc(to_mpf(x))
    if isinstance(x, tuple):
        return mp.mpc(to_mpf(x[0]), to_mpf(x[1]))
    return mp.mpc(x)


@dataclass(frozen=True)
class NumericCheck:
    """A closed form and a certified sum or integral, as lhs and rhs: the bound on
    |lhs - rhs|, the verdict and the series terms summed (None for a quadrature)."""
    lhs: object
    rhs: object
    bound: object
    passed: bool
    terms: int | None = None


def numeric_check(lhs, rhs, bound, terms: int | None = None) -> NumericCheck:
    """The record with passed = |lhs - rhs| <= bound, decided at the caller's working
    precision, with lhs, rhs and bound rounded to it."""
    return NumericCheck(+lhs, +rhs, +bound, bool(mp.fabs(lhs - rhs) <= bound), terms)


def tail_bound(M: int, growth: float, q: Fraction):
    """Upper bound for sum_{m > M} m^growth * q^{-m}, for q > 1.

    Terms beyond M are dominated by the geometric series with ratio
    r = (1 + 1/(M+1))^growth / q, so the bound is term(M+1) / (1 - r)
    whenever r < 1.  Returns None when the ratio test fails at M.
    """
    g = to_mpf(growth)
    qv = to_mpf(q)
    ratio = (1 + mp.mpf(1) / (M + 1)) ** g / qv
    if ratio >= 1:
        return None
    term = mp.mpf(M + 1) ** g * qv ** (-(M + 1))
    return term / (1 - ratio)


def choose_truncation(growth: float, q: Fraction, eps_exp: int) -> tuple[int, "mp.mpf"]:
    """Smallest power-of-two-ish M with a certified tail below 2^-eps_exp.

    Doubles M until the ratio test certifies monotone decay and the bound
    drops under the target, which happens since the ratio tends to 1/q < 1
    and the leading term decays geometrically.  Raises ConvergenceDomain when
    64 doublings do not reach it: q is then too close to 1.

    For growth >= 0 the bound is at least q^-(M+1), so a doubling with
    (M+1) log2 q <= eps_exp - 1 cannot certify, even after rounding, and skips
    ``tail_bound``.  log2 q is a float estimate padded above its rounding (by
    log1p below q = 2), so the screen changes no M and no bound.

    Each plan is searched once per (growth, q, eps_exp, mp.prec), since
    ``tail_bound`` rounds at mp.prec, and kept in a bounded cache; an int and
    an mpf growth of equal value share it.  ConvergenceDomain is not cached.
    """
    return _truncation_plan(growth, Fraction(q), eps_exp, mp.prec)


@lru_cache(maxsize=1024)
def _truncation_plan(growth, qf: Fraction, eps_exp: int, prec: int) -> tuple[int, "mp.mpf"]:
    """``choose_truncation``'s search at mp.prec, which the caller passes as ``prec``."""
    if qf <= 1:
        raise ValueError("tail bounds need q > 1")
    # below 2^-1000, q - 1 is taken as 2^-1000, since log(1 + x) <= x
    log2q = (log1p(max(float(qf - 1), 2.0**-1000)) / log(2) * (1 + 2**-40) if qf < 2
             else log2(qf.numerator) - log2(qf.denominator) + 2**-40 * qf.numerator.bit_length())
    eps = mp.mpf(2) ** (-eps_exp)
    M = max(16, 2 * int(growth) + 2)
    for _ in range(64):
        if growth < 0 or (M + 1) * log2q > eps_exp - 1:
            bound = tail_bound(M, growth, qf)
            if bound is not None and bound < eps:
                return M, bound
        M *= 2
    raise ConvergenceDomain(f"q = {qf} is too close to 1: {M // 2} terms do not certify "
                            f"the tail below 2^-{eps_exp}")


def _round(man: int, exp: int, prec: int) -> tuple[int, int]:
    """man * 2^exp rounded to prec bits, to nearest with ties to even, as (man, exp).

    ``>>`` floors for either sign, so with t = man >> (n - 1) the floor of
    man / 2^n is t >> 1 and t & 1 is the half bit.  The floor goes up by one
    when that bit is set and the bits below it are not all zero or the floor
    is odd (t & 2).  A carry can leave man = +-2^prec, which is still exact
    at prec bits.
    """
    n = man.bit_length() - prec
    if n <= 0:
        return man, exp
    t = man >> (n - 1)
    if t & 1 and (t & 2 or man != t << (n - 1)):
        return (t >> 1) + 1, exp + n
    return t >> 1, exp + n


def _add(am: int, ae: int, bm: int, be: int, prec: int) -> tuple[int, int]:
    """am * 2^ae + bm * 2^be, aligned exactly and rounded once."""
    if ae > be:
        return _round((am << (ae - be)) + bm, be, prec)
    return _round(am + (bm << (be - ae)), ae, prec)


def _cmul(a: tuple, b: tuple, prec: int) -> tuple:
    """The product of two complex (re_man, re_exp, im_man, im_exp) values, each
    part the exact sum of two exact products, rounded once by ``_add``."""
    am, ae, bm, be = a
    cm, ce, dm, de = b
    return (*_add(am * cm, ae + ce, -bm * dm, be + de, prec), *_add(am * dm, ae + de, bm * cm, be + ce, prec))


def _pair(x: tuple, prec: int) -> tuple[int, int]:
    """A raw mpf value as a (man, exp) pair rounded at prec."""
    sign, man, exp, _ = x
    return _round(-man if sign else man, exp, prec)


def alternating_character_sum(chi, q: Fraction, bits: int, M: int, term, start: int = 1, decay: int | None = None):
    """Partial sum sum_{m=start}^{M} (-1)^m chi(m) term(m) q^{-m} at the current precision.

    ``term(m)`` returns signed integer (mantissa, exponent) pairs, value =
    man * 2^exp: (man, exp) for a real term, (re_man, re_exp, im_man, im_exp)
    for a complex one; ``start`` is 0 or 1.  ``decay``, if given, is an m from
    which |term(m)| q^-m does not grow and, if chi is real, no complex term
    follows a real one (``decay_index``).

    Rounding contract.  chi comes from the shared zeta_m table at bits + 32
    (``characters._zeta_embedded``), each power of zeta_m rounded at mp.prec
    once per sum; (-1)^m chi(m) is set once per class of m mod 2d.  Each
    ((-1)^m chi(m) * term(m)) * q^{-m}, q^{-m} by repeated multiplication, is
    added to the accumulator.  Every product and sum, complex ones included, is
    formed exactly in integers and rounded once at mp.prec, inline, so the sum
    is bit for bit the term-by-term mpc oracle's (tests/test_lfunction.py).  A
    rounded sum depends only on the value, so exact zero parts of chi(m) and of
    products are skipped: a real chi(m) times a complex term takes two products.

    Adding x with |x| under a quarter ulp of A != 0 leaves A as it is (A + x is
    nearer A than half the gap to either neighbour), so two more skips change
    no bit.  A product more than 2 prec + 2 bits below a nonzero accumulator is
    not added, and no alignment shifts further.  From m = decay on, at every
    64th m, the loop stops once four times the current product's |re| + |im| is
    under a quarter ulp of each accumulator that a later product can reach (a
    zero one, the real one or the imaginary one unless chi and the term are
    real, blocks it).  By the decay a part of a later product is at most this
    m's |chi| |term| q^-m, up to relative errors (2^-(bits+31) for chi, 2^-prec
    for each of the under 2M roundings of q^-m and 2 log2 M + 2n + 4 of every
    caller's term) below a factor 2 for M < 2^(prec-8): the sum is the sum to M.
    """
    if bits < 64:
        raise ValueError("bits must be >= 64")
    prec = mp.prec
    far = 2 * prec + 2
    powers = [(*_pair(z.real._mpf_, prec), *_pair(z.imag._mpf_, prec))
              for z in _zeta_embedded(chi.order, bits + 32)]
    embedded = [None if j is None else powers[j] for j in chi.zeta_exponents()]
    signed = [(-c[0], c[1], -c[2], c[3]) if r % 2 and c else c
              for r, c in enumerate(embedded * 2)]  # by m mod 2d
    period = len(signed)
    real_chi = not any(c[2] for c in embedded if c)  # a real term then adds nothing to im
    qm, qe = _pair(to_mpf(1 / Fraction(q))._mpf_, prec)
    wm, we = (qm, qe) if start else (1, 0)  # q^-m
    rm = re = im = ie = 0
    check = M + 1 if decay is None else -(-max(decay, 1) // 64) * 64  # the next stop test
    for m in range(start, M + 1):
        c = signed[m % period]
        if c is not None:
            v = term(m)
            xm, xe, ym, ye = c
            if len(v) == 2:
                tm, te = v
                pm, pe, um, ue = xm * tm, xe + te, ym * tm, ye + te
            elif not ym:  # real chi(m)
                pm, pe, um, ue = xm * v[0], xe + v[1], xm * v[2], xe + v[3]
            elif not xm:  # imaginary chi(m)
                pm, pe, um, ue = -ym * v[2], ye + v[3], ym * v[0], ye + v[1]
            else:  # x t - y s and x s + y t, each aligned exactly
                tm, te, sm, se = v
                pm, pe, bm, be = xm * tm, xe + te, ym * sm, ye + se
                pm, pe = ((pm << (pe - be)) - bm, be) if pe > be else (pm - (bm << (be - pe)), pe)
                um, ue, bm, be = xm * sm, xe + se, ym * tm, ye + te
                um, ue = ((um << (ue - be)) + bm, be) if ue > be else (um + (bm << (be - ue)), ue)
            if pm:
                if (n := pm.bit_length() - prec) > 0:
                    t = pm >> (n - 1)
                    pm = (t >> 1) + 1 if t & 1 and (t & 2 or pm != t << (n - 1)) else t >> 1
                    pe += n
                pm, pe = pm * wm, pe + we
                if (n := pm.bit_length() - prec) > 0:
                    t = pm >> (n - 1)
                    pm = (t >> 1) + 1 if t & 1 and (t & 2 or pm != t << (n - 1)) else t >> 1
                    pe += n
                if re <= pe:
                    rm += pm << (pe - re)
                elif re - pe <= far or not rm:
                    rm, re = (rm << (re - pe)) + pm, pe
                if (n := rm.bit_length() - prec) > 0:
                    t = rm >> (n - 1)
                    rm = (t >> 1) + 1 if t & 1 and (t & 2 or rm != t << (n - 1)) else t >> 1
                    re += n
            if um:
                if (n := um.bit_length() - prec) > 0:
                    t = um >> (n - 1)
                    um = (t >> 1) + 1 if t & 1 and (t & 2 or um != t << (n - 1)) else t >> 1
                    ue += n
                um, ue = um * wm, ue + we
                if (n := um.bit_length() - prec) > 0:
                    t = um >> (n - 1)
                    um = (t >> 1) + 1 if t & 1 and (t & 2 or um != t << (n - 1)) else t >> 1
                    ue += n
                if ie <= ue:
                    im += um << (ue - ie)
                elif ie - ue <= far or not im:
                    im, ie = (im << (ie - ue)) + um, ue
                if (n := im.bit_length() - prec) > 0:
                    t = im >> (n - 1)
                    im = (t >> 1) + 1 if t & 1 and (t & 2 or im != t << (n - 1)) else t >> 1
                    ie += n
            if m >= check and (pm or um):
                top = max(pe + pm.bit_length() if pm else ue, ue + um.bit_length() if um else pe) + prec + 4
                if (rm and re + rm.bit_length() >= top
                        and (ie + im.bit_length() >= top if im else real_chi and len(v) == 2)):
                    break
                check += 64
        wm, we = wm * qm, we + qe
        if (n := wm.bit_length() - prec) > 0:
            t = wm >> (n - 1)
            wm = (t >> 1) + 1 if t & 1 and (t & 2 or wm != t << (n - 1)) else t >> 1
            we += n
    return mp.make_mpc((from_man_exp(rm, re), from_man_exp(im, ie)))


def decay_index(growth, q: Fraction) -> int:
    """ceil(growth / ln q) + 1 (ln q a float from below), from which m^growth q^-m does not grow."""
    ln_q = (log1p(float(q - 1)) * (1 - 2**-40) if q < 2
            else log(q.numerator) - log(q.denominator) - 2**-40 * q.numerator.bit_length())
    return ceil(float(growth) / ln_q) + 1


def integer_powers(n: int, M: int):
    """m -> m^n for 0 <= m <= M as pairs rounded at mp.prec: the exact (m**n, 0) when M^n fits."""
    prec = mp.prec
    return (lambda m: (m**n, 0)) if (M**n).bit_length() <= prec else (lambda m: _round(m**n, 0, prec))
