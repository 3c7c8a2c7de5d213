"""mpmath helpers shared by the numeric series checks: conversions, tail bounds
and the alternating character series they all sum."""
from __future__ import annotations

from fractions import Fraction

from mpmath import mp
from mpmath.libmp import fone, fzero, mpc_mul, mpc_neg, mpc_pos, mpf_add, mpf_mul, round_nearest

from .cyclotomic import cyc_embed


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
    drops under the target.  Terminates because the ratio tends to 1/q < 1
    and the leading term decays geometrically.
    """
    if Fraction(q) <= 1:
        raise ValueError("tail bounds need q > 1")
    eps = mp.mpf(2) ** (-eps_exp)
    M = max(16, 2 * int(growth) + 2)
    for _ in range(64):
        bound = tail_bound(M, growth, q)
        if bound is not None and bound < eps:
            return M, bound
        M *= 2
    raise RuntimeError("tail bound did not converge")


def alternating_character_sum(chi, q: Fraction, bits: int, M: int, term, start: int = 1):
    """Partial sum sum_{m=start}^{M} (-1)^m chi(m) term(m) q^{-m} at the current precision.

    ``term(m)`` returns a raw libmp value: an mpf tuple for a real term, an
    (re, im) pair of them for a complex one; ``start`` is 0 or 1.  The series
    checks and the L-function differ only in ``term`` and ``start``.

    Rounding contract.  chi is embedded at bits + 32, and (-1)^m chi(m) is
    rounded to nearest at mp.prec once per class of m mod 2d.  Each term is
    then ((-1)^m chi(m) * term(m)) * q^{-m} and is added to the accumulator,
    every product and sum rounded to nearest at mp.prec, with q^{-m} built by
    repeated multiplication.  These are the operations, in the same order,
    that the mpc expression (-1)**m * chi(m) * term(m) * q**-m would round,
    so the sum is bit for bit the one mpmath's number types give (the
    term-by-term oracle in tests/test_lfunction.py).  Terms with chi(m) = 0
    are skipped, and so are the zero parts of a real term's chi(m), which
    would only add exact zeros.
    """
    if bits < 64:
        raise ValueError("bits must be >= 64")
    prec, rnd = mp.prec, round_nearest
    d = max(chi.modulus, 1)
    embedded = [mpc_pos(cyc_embed(chi(a), bits + 32)._mpc_, prec, rnd) if chi(a) else None
                for a in range(d)]
    signed = [mpc_neg(c) if r % 2 and c else c for r, c in enumerate(embedded * 2)]  # by m mod 2d
    period = len(signed)
    qinv = to_mpf(1 / Fraction(q))._mpf_
    weight = fone
    for _ in range(start):
        weight = mpf_mul(weight, qinv, prec, rnd)
    re = im = fzero
    for m in range(start, M + 1):
        c = signed[m % period]
        if c is not None:
            t = term(m)
            if len(t) == 2:
                x, y = mpc_mul(c, t, prec, rnd)
                re = mpf_add(re, mpf_mul(x, weight, prec, rnd), prec, rnd)
                im = mpf_add(im, mpf_mul(y, weight, prec, rnd), prec, rnd)
            else:
                x, y = c
                if x[1]:
                    re = mpf_add(re, mpf_mul(mpf_mul(x, t, prec, rnd), weight, prec, rnd), prec, rnd)
                if y[1]:
                    im = mpf_add(im, mpf_mul(mpf_mul(y, t, prec, rnd), weight, prec, rnd), prec, rnd)
        weight = mpf_mul(weight, qinv, prec, rnd)
    return mp.make_mpc((re, im))
