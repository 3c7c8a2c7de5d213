"""mpmath helpers shared by the numeric series checks: conversions, tail bounds
and the alternating character series they all sum."""
from __future__ import annotations

from fractions import Fraction

from mpmath import mp

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

    chi is embedded at bits + 32 and q^{-m} is built by repeated
    multiplication; terms with chi(m) = 0 are skipped.  The series checks and
    the L-function differ only in ``term`` and ``start``.
    """
    d = max(chi.modulus, 1)
    table = [cyc_embed(chi(a), bits + 32) for a in range(d)]
    qinv = to_mpf(1 / Fraction(q))
    weight = mp.mpf(1)
    acc = mp.mpc(0)
    for m in range(M + 1):
        cval = table[m % d]
        if m >= start and cval:
            acc += (-1) ** m * cval * term(m) * weight
        weight *= qinv
    return acc
