"""Eulerian polynomial values attached to a Dirichlet character, exactly.

The defining generating function (d = modulus of chi, kernel exponent
d - l + 1 kept exactly as in the classical display) is

    sum_n A_n(chi, -q) t^n/n!
        = (1+q) sum_{l<d} (-1)^l q^{d-l+1} chi(l) e^{-l(1+q)t} / (e^{-d(1+q)t} + q^d).

Under T = -d(1+q)t each term is a Frobenius-Euler function
(1-u) e^{xT}/(e^T - u) at x = l/d, u = -q^d, whose coefficients are
H_n(x; u) = sum_k C(n,k) H_k(u) x^{n-k} with H_k(u) = A_k(u)/(u-1)^k
(Carlitz, "Eulerian numbers and polynomials", Math. Mag. 32, 1959).  With
q = a/b, D = a^d + b^d and h_k = H_k(-q^d) D^k the engine works in integers:

    I_l = sum_k C(n,k) h_k d^k (D l)^{n-k},
    A_n(chi, -q) = (-1)^n (a+b)^{n+1} / (b^{n+2} D^{n+1}) sum_l (-1)^l a^{d-l+1} b^l chi(l) I_l,

and c_l = (-1)^l a^{d-l+1} b^l I_l is free of chi: one class pass per (d, q)
forms it at each unit l; each chi buckets those integers by the zeta_m exponent
of chi(l), reduces once modulo Phi_m and applies the Fraction in front; no memo.
h_k comes from an Euler-Seidel array (``eulerian._frobenius_euler``,
shared with the L-function's Boole route), checked against Carlitz's triangle
formula; the closed form is checked against the linear recurrence from clearing
the denominator (tests/test_chi_eulerian.py, to n = 80 at modulus 43) and the
series sums.  Since E~_{n,q}(x) = H_n(x; -1/q), the weight-zero families keep
their own recurrences: the distribution check would otherwise compare one sum
with itself.  Each runs in integers and returns reduced Fractions: with
q/(1+q) = B/C and x = u/v, e_n = E~_n (vC)^n and g_n = G~_n (vC)^{n-1} obey

    e_n = (uC)^n - B sum_{k<n} C(n,k) e_k v^{n-k} C^{n-k-1},
    g_n = n (uC)^{n-1} - B sum_{1<=k<n} C(n,k) g_k v^{n-k} C^{n-k-1}.

The distribution check reads them at units x = a/d only (v = d), so per family
its residues share one weight table and its buckets by chi(a) stay integers.

Expanding geometrically yields q (1+q) sum_{m>=0} (-1)^m chi(m) q^{-m} e^{-m(1+q)t},
the oracle ``kernel_series_check`` verifies numerically.  Dropping the m = 0
term (it vanishes unless n = 0 and chi has modulus 1) and scaling gives the
form checked by ``chi_eulerian_series_check``:

    (-1)^n A_n(chi, -q) / (q (1+q)^{n+1}) = sum_{m>=1} (-1)^m chi(m) m^n q^{-m}.

A second, re-derived kernel exponent d - l - 1 differs from the one above by
exactly q^2; the distribution and integral checks therefore carry a variant
switch ("printed" = kernel d - l + 1 taken at face value, "corrected" =
multiply the polynomial side by q^{-2}) and measure the ratio instead of
trusting either form.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence, Union

from mpmath import mp

from .characters import DirichletCharacter, unit_group
from .cyclotomic import CycElem, cyc_embed
from .errors import ConvergenceDomain, DegenerateSample, PoleAtMinusOne, PoleQ
from .eulerian import _frobenius_euler
from .numerics import (NumericCheck, _pair, _round, alternating_character_sum, choose_truncation, decay_index,
                       integer_powers, numeric_check, to_mpf)
from .qnumbers import q_number

Scalar = Union[int, Fraction]


def chi_eulerian(n: int, chi: DirichletCharacter, q: Scalar) -> CycElem:
    """A_n(chi, -q) in closed form (see the module docstring)."""
    return chi_eulerian_values([n], chi, q)[0]


def chi_eulerian_values(ns: Sequence[int], chi: DirichletCharacter, q: Scalar) -> list[CycElem]:
    """A_n(chi, -q) for each n >= 0 in ``ns``, in order: the one-character view of ``chi_eulerian_columns``."""
    return chi_eulerian_columns(ns, [chi], q)[0]


def chi_eulerian_columns(ns: Sequence[int], chars: Sequence[DirichletCharacter], q: Scalar) -> list[list[CycElem]]:
    """A_n(chi, -q) for each chi of one modulus d and each n >= 0 in ``ns``, in order, from one class pass: one
    Frobenius-Euler pass to k = max(ns), the chi-free c_l(n) = (-1)^l a^{d-l+1} b^l I_l at each unit l, then per chi
    one bucketing of them by the zeta_m exponent of chi(l), times s_n (see the module docstring)."""
    if any(n < 0 for n in ns):
        raise ValueError("n must be >= 0")
    qf, d = Fraction(q), chars[0].modulus
    if qf == 0 or qf == -1 or qf**d == -1:
        raise PoleQ(f"q = {qf} is an excluded value for modulus {d}")
    a, b = qf.numerator, qf.denominator
    ad, bd = a**d, b**d
    D = ad + bd
    # f_k = h_k d^k depends on q and d only; with g_k = C(n,k) f_k, I_l is sum_k g_k x^{n-k} at x = D l
    f = [h * d**k for k, h in enumerate(_frobenius_euler(ad, bd, max(ns, default=0)))]
    kernel = {l: (-1) ** l * a ** (d - l + 1) * b**l for l in unit_group(d).dlog}  # the units l < d
    classes = []
    for n in ns:
        g = [comb(n, k) * fk for k, fk in enumerate(f[: n + 1])]
        c = {}
        for l, w in kernel.items():
            x, acc = D * l, 0
            for gk in g:
                acc = acc * x + gk
            c[l] = w * acc
        classes.append((c, Fraction((-1) ** n * (a + b) ** (n + 1), b ** (n + 2) * D ** (n + 1))))
    return [[CycElem(chi.order, _buckets(chi, c)) * s for c, s in classes] for chi in chars]


def _buckets(chi: DirichletCharacter, terms: dict[int, int]) -> list[int]:
    """sum_l chi(l) terms[l] over the units l as integer coordinates at the powers of zeta_m, before reduction."""
    out, exps = [0] * chi.order, chi.zeta_exponents()
    for l, t in terms.items():
        out[exps[l]] += t
    return out


def series_reference(n: int, chi: DirichletCharacter, q: Scalar) -> CycElem:
    """(-1)^n A_n(chi, -q) / (q (1+q)^{n+1}), the exact series-side value."""
    qf = Fraction(q)
    return (Fraction((-1) ** n) / (qf * (1 + qf) ** (n + 1))) * chi_eulerian(n, chi, qf)


def chi_eulerian_series_check(n: int, chi: DirichletCharacter, q: Scalar, bits: int = 128) -> NumericCheck:
    """Compare the exact value of (-1)^n A_n / (q(1+q)^{n+1}) with the partial
    sum of sum_{m>=1} (-1)^m chi(m) m^n q^{-m}, under a certified tail bound.

    The exact gap between the two sides is the dropped m = 0 term
    chi(0) * 0^n: zero except at n = 0 for modulus 1, where it is 1 and the
    check fails.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    qf = Fraction(q)
    if qf <= 1:
        raise ConvergenceDomain("the alternating character series needs q > 1")
    with mp.workprec(bits + 64):
        M, tail = choose_truncation(n, qf, bits - 4)
        acc = alternating_character_sum(chi, qf, bits, M, integer_powers(n, M), decay=decay_index(n, qf))
        return numeric_check(cyc_embed(series_reference(n, chi, qf), bits + 32), acc,
                             tail + mp.mpf(2) ** (8 - bits), M)


def kernel_series_check(n: int, chi: DirichletCharacter, q: Scalar, bits: int = 128) -> NumericCheck:
    """Compare A_n (closed form) with the partial sum of the full geometric
    expansion q(1+q) sum_{m>=0} (-1)^m chi(m) q^{-m} (-m(1+q))^n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    qf = Fraction(q)
    if qf <= 1:
        raise ConvergenceDomain("the geometric kernel expansion needs q > 1")
    with mp.workprec(bits + 64):
        M, tail_raw = choose_truncation(n, qf, bits - 4)
        prec = mp.prec
        om, oe = _pair(to_mpf(1 + qf)._mpf_, prec)

        def term(m):  # (-m (1+q))^n
            man, exp = _round(-m * om, oe, prec)
            return _round(man**n, exp * n, prec)

        acc = alternating_character_sum(chi, qf, bits, M, term, start=0, decay=decay_index(n, qf))
        acc *= to_mpf(qf * (1 + qf))
        lhs = cyc_embed(chi_eulerian(n, chi, qf), bits + 32)
        bound = to_mpf(qf * (1 + qf) ** (n + 1)) * tail_raw + mp.mpf(2) ** (8 - bits)
        return numeric_check(lhs, acc, bound, M)


def _weights(q: Scalar, x: Scalar, top: int) -> tuple[int, int, int, list[list[int]]]:
    """B, uC, vC and the weights t[n][k] = C(n,k) v^{n-k} C^{n-k-1} (k < n <= top) of a weight-zero recurrence at
    (q, x = u/v); they depend on x through v alone, so every residue a/d with gcd(a, d) = 1 shares them."""
    qf, xf = Fraction(q), Fraction(x)
    if qf == -1:
        raise PoleAtMinusOne("weight-zero polynomials have a pole at q = -1")
    B, C, u, v = qf.numerator, qf.numerator + qf.denominator, xf.numerator, xf.denominator
    w = [v * (v * C) ** j for j in range(top)]  # w_j = v^{j+1} C^j
    return B, u * C, v * C, [[comb(n, k) * w[n - k - 1] for k in range(n)] for n in range(top + 1)]


def _scaled_euler(B: int, uC: int, t: list[list[int]]) -> list[int]:
    """e_0..e_top = E~_n (vC)^n from q sum_k C(n,k) E~_k + E~_n = (1+q) x^n (see the module docstring)."""
    e: list[int] = []
    for tn in t:
        e.append(uC ** len(e) - B * sum(tk * ek for tk, ek in zip(tn, e)))
    return e


def _scaled_genocchi(B: int, uC: int, t: list[list[int]]) -> list[int]:
    """g_0..g_top = G~_n (vC)^{n-1} from (1+q) G~_n = (1+q) n x^{n-1} - q sum_{k<n} C(n,k) G~_k, G~_0 = 0."""
    g = [0]
    for n, tn in enumerate(t[1:], 1):
        g.append(n * uC ** (n - 1) - B * sum(tk * gk for tk, gk in zip(tn, g)))
    return g


def weight_zero_euler_values(max_n: int, q: Scalar, x: Scalar) -> list[Fraction]:
    """E~_0..E~_max_n at (q, x), one reduced Fraction each."""
    B, uC, vC, t = _weights(q, x, max_n)
    return [Fraction(en, vC**n) for n, en in enumerate(_scaled_euler(B, uC, t))]


def weight_zero_euler(n: int, q: Scalar, x: Scalar) -> Fraction:
    """E~_n at (q, x): one integer recurrence to n and one reduced Fraction."""
    if n < 0:
        raise ValueError("n must be >= 0")
    B, uC, vC, t = _weights(q, x, n)
    return Fraction(_scaled_euler(B, uC, t)[n], vC**n)


def weight_zero_genocchi(n_plus_1: int, q: Scalar, x: Scalar) -> Fraction:
    """G~_{n+1} at (q, x) from its own generating function (1+q) t e^{xt} / (q e^t + 1) (``_scaled_genocchi``),
    never from E~: G~_{n+1} = (n+1) E~_n is what the distribution check's Genocchi route tests."""
    if n_plus_1 < 1:
        raise ValueError("index must be >= 1")
    B, uC, vC, t = _weights(q, x, n_plus_1)
    return Fraction(_scaled_genocchi(B, uC, t)[n_plus_1], vC ** (n_plus_1 - 1))


@dataclass(frozen=True)
class DistributionSample:
    q: Fraction
    lhs_printed: CycElem
    lhs_corrected: CycElem
    rhs_euler: CycElem
    rhs_genocchi: CycElem
    ratio: Fraction | None
    ok: bool
    genocchi_ok: bool


@dataclass(frozen=True)
class DistributionResult:
    samples: tuple[DistributionSample, ...]
    passed: bool
    ratio_is_q_squared: bool


def verify_distribution(n: int, chi: DirichletCharacter, q_samples: Sequence[Scalar],
                        variant: str = "corrected") -> DistributionResult:
    """Check the distribution identity at each q sample.

    printed:    (-1)^n (1+q)^{-n} A_n(chi,-q) = RHS
    corrected:  q^{-2} (-1)^n (1+q)^{-n} A_n(chi,-q) = RHS
    RHS = d^n / [d]_{-1/q} * sum_{a<d} (-1)^a chi(a) q^{-a} E~_{n,q^{-d}}(a/d),
    with the Genocchi form (G~_{n+1}/(n+1) in place of E~_n) cross-checked.

    Agreement at more samples than the degree bound of both sides (as rational
    functions of q) proves the identity; sampling counts are the caller's job.
    """
    if variant not in ("printed", "corrected"):
        raise ValueError("variant must be 'printed' or 'corrected'")
    d, m = chi.modulus, chi.order
    samples: list[DistributionSample] = []
    all_ok = ratio_ok = True
    for q in q_samples:
        qf = Fraction(q)
        if qf == 0 or qf == -1 or qf**d == -1:
            raise DegenerateSample(f"q = {qf} is excluded for modulus {d}")
        lhs_printed = (Fraction((-1) ** n) / (1 + qf) ** n) * chi_eulerian(n, chi, qf)
        lhs_corrected = lhs_printed / qf**2
        # chi(a) != 0 only at units a, so x = a/d has v = d (x = 1/d gives C and dC), and with q = al/be the weight
        # (-1)^a q^{-a} is (-1)^a be^a al^{d-1-a} / al^{d-1}: one denominator al^{d-1} (dC)^n serves every a
        (B, C, dC, te), tg = _weights(qf**-d, Fraction(1, d), n), _weights(qf**-d, Fraction(1, d), n + 1)[3]
        al, be = qf.numerator, qf.denominator
        euler, genocchi = {}, {}
        for a in unit_group(d).dlog:
            w = (-1) ** a * be**a * al ** (d - 1 - a)
            euler[a] = w * _scaled_euler(B, a * C, te)[n]
            genocchi[a] = w * _scaled_genocchi(B, a * C, tg)[n + 1]
        scale = Fraction(d) ** n / q_number(d, -1 / qf) / (al ** (d - 1) * dC**n)
        rhs_euler = CycElem(m, _buckets(chi, euler)) * scale
        rhs_genocchi = CycElem(m, _buckets(chi, genocchi)) * (scale / (n + 1))
        lhs = lhs_corrected if variant == "corrected" else lhs_printed
        ok = lhs == rhs_euler
        genocchi_ok = rhs_euler == rhs_genocchi
        ratio: Fraction | None = None
        if rhs_euler:
            ratio = lhs_printed.rational_ratio(rhs_euler)
            if ratio != qf**2:
                ratio_ok = False
        samples.append(DistributionSample(qf, lhs_printed, lhs_corrected, rhs_euler,
                                          rhs_genocchi, ratio, ok, genocchi_ok))
        all_ok = all_ok and ok and genocchi_ok
    if not samples:
        raise ValueError("verify_distribution needs at least one q sample")
    return DistributionResult(tuple(samples), all_ok, ratio_ok)
