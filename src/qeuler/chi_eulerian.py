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
(``ClassEngine``) forms it at each unit l; each chi buckets those integers by the
zeta_m exponent of chi(l), reduces once modulo Phi_m and applies the Fraction in
front; no memo across calls.
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
its residues share one weight table and one row per q, and its buckets by chi(a)
stay integers.

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
from math import comb, gcd
from typing import Sequence, Union

from mpmath import mp

from .characters import DirichletCharacter
from .cyclotomic import CycElem, cyc_embed
from .errors import ConvergenceDomain, DegenerateSample, PoleAtMinusOne, PoleQ
from .eulerian import _frobenius_euler
from .numerics import (NumericCheck, _pair, _round, alternating_character_sum, choose_truncation, decay_index,
                       integer_powers, numeric_check, to_mpf)
from .qnumbers import q_number

Scalar = Union[int, Fraction]


def chi_eulerian(n: int, chi: DirichletCharacter, q: Scalar) -> CycElem:
    """A_n(chi, -q) in closed form (see the module docstring)."""
    return ClassEngine(chi.modulus, q, [n]).closed_form(n, chi)


class ClassEngine:
    """The chi-free work of the checks at one modulus d and one q, for every character mod d and n in ``ns``.

    ``part(key, make)`` forms each part when a case first reads it and keeps it for the others: the class pass
    behind ``closed_form``, and each check's set-up per n (and bits), split from its per-chi sum.  A part whose
    ``make`` raises is not kept, so every case that reads it raises the same error.  A verify suite holds one
    engine per (d, q) for one call, and each per-case check is the view of a one-case engine: one implementation,
    no memo across calls.
    """

    def __init__(self, d: int, q: Scalar, ns: Sequence[int]):
        self.d, self.q, self.ns, self._parts = d, Fraction(q), ns, {}

    def part(self, key, make):
        if key not in self._parts:
            self._parts[key] = make()
        return self._parts[key]

    def closed_form(self, n: int, chi: DirichletCharacter) -> CycElem:
        """A_n(chi, -q) for n in ``ns``: the class pass's c_l(n) bucketed by chi(l)'s zeta_m exponent, times s_n."""
        c, s = self.part("classes", self._class_pass)[n]
        return CycElem(chi.order, _buckets(chi, c)) * s

    def series_reference(self, n: int, chi: DirichletCharacter) -> CycElem:
        """(-1)^n A_n(chi, -q) / (q (1+q)^{n+1}), the exact series-side value."""
        return (Fraction((-1) ** n) / (self.q * (1 + self.q) ** (n + 1))) * self.closed_form(n, chi)

    def _class_pass(self) -> dict[int, tuple[dict[int, int], Fraction]]:
        """n -> (c_l(n) = (-1)^l a^{d-l+1} b^l I_l at each unit l, s_n) for n in ``ns``, from one Frobenius-Euler
        pass to k = max(ns) (see the module docstring)."""
        if any(n < 0 for n in self.ns):
            raise ValueError("n must be >= 0")
        qf, d = self.q, self.d
        if qf == 0 or qf == -1 or qf**d == -1:
            raise PoleQ(f"q = {qf} is an excluded value for modulus {d}")
        a, b = qf.numerator, qf.denominator
        ad, bd = a**d, b**d
        D = ad + bd
        # f_k = h_k d^k depends on q and d only; with g_k = C(n,k) f_k, I_l is sum_k g_k x^{n-k} at x = D l
        f = [h * d**k for k, h in enumerate(_frobenius_euler(ad, bd, max(self.ns, default=0)))]
        kernel = {l: (-1) ** l * a ** (d - l + 1) * b**l for l in range(d) if gcd(l, d) == 1}
        classes = {}
        for n in dict.fromkeys(self.ns):
            g = [comb(n, k) * fk for k, fk in enumerate(f[: n + 1])]
            c = {}
            for l, w in kernel.items():
                x, acc = D * l, 0
                for gk in g:
                    acc = acc * x + gk
                c[l] = w * acc
            classes[n] = c, Fraction((-1) ** n * (a + b) ** (n + 1), b ** (n + 2) * D ** (n + 1))
        return classes


def _buckets(chi: DirichletCharacter, terms: dict[int, int]) -> list[int]:
    """sum_l chi(l) terms[l] over the units l as integer coordinates at the powers of zeta_m, before reduction."""
    out, exps = [0] * chi.order, chi.zeta_exponents()
    for l, t in terms.items():
        out[exps[l]] += t
    return out


def series_reference(n: int, chi: DirichletCharacter, q: Scalar) -> CycElem:
    """(-1)^n A_n(chi, -q) / (q (1+q)^{n+1}), the exact series-side value."""
    return ClassEngine(chi.modulus, q, [n]).series_reference(n, chi)


def chi_eulerian_series_check(n: int, chi: DirichletCharacter, q: Scalar, bits: int = 128) -> NumericCheck:
    """Compare the exact value of (-1)^n A_n / (q(1+q)^{n+1}) with the partial
    sum of sum_{m>=1} (-1)^m chi(m) m^n q^{-m}, under a certified tail bound.

    The exact gap between the two sides is the dropped m = 0 term
    chi(0) * 0^n: zero except at n = 0 for modulus 1, where it is 1 and the
    check fails.
    """
    return _series_case(ClassEngine(chi.modulus, q, [n]), n, chi, bits)


def _series_case(engine: ClassEngine, n: int, chi: DirichletCharacter, bits: int) -> NumericCheck:
    """``chi_eulerian_series_check`` at one case of ``engine``; the truncation, the powers m^n and the decay index
    are shared per (n, bits)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    qf = engine.q
    if qf <= 1:
        raise ConvergenceDomain("the alternating character series needs q > 1")
    with mp.workprec(bits + 64):
        def setup():
            M, tail = choose_truncation(n, qf, bits - 4)
            return M, tail + mp.mpf(2) ** (8 - bits), integer_powers(n, M), decay_index(n, qf)

        M, bound, powers, decay = engine.part(("eq13", n, bits), setup)
        acc = alternating_character_sum(chi, qf, bits, M, powers, decay=decay)
        return numeric_check(cyc_embed(engine.series_reference(n, chi), bits + 32), acc, bound, M)


def kernel_series_check(n: int, chi: DirichletCharacter, q: Scalar, bits: int = 128) -> NumericCheck:
    """Compare A_n (closed form) with the partial sum of the full geometric
    expansion q(1+q) sum_{m>=0} (-1)^m chi(m) q^{-m} (-m(1+q))^n."""
    return _kernel_case(ClassEngine(chi.modulus, q, [n]), n, chi, bits)


def _kernel_case(engine: ClassEngine, n: int, chi: DirichletCharacter, bits: int) -> NumericCheck:
    """``kernel_series_check`` at one case of ``engine``; the truncation, the term closure, the decay index, the
    factor q(1+q) and the bound are shared per (n, bits)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    qf = engine.q
    if qf <= 1:
        raise ConvergenceDomain("the geometric kernel expansion needs q > 1")
    with mp.workprec(bits + 64):
        def setup():
            M, tail_raw = choose_truncation(n, qf, bits - 4)
            prec = mp.prec
            om, oe = _pair(to_mpf(1 + qf)._mpf_, prec)

            def term(m):  # (-m (1+q))^n
                man, exp = _round(-m * om, oe, prec)
                return _round(man**n, exp * n, prec)

            bound = to_mpf(qf * (1 + qf) ** (n + 1)) * tail_raw + mp.mpf(2) ** (8 - bits)
            return M, term, decay_index(n, qf), to_mpf(qf * (1 + qf)), bound

        M, term, decay, factor, bound = engine.part(("eq12", n, bits), setup)
        acc = alternating_character_sum(chi, qf, bits, M, term, start=0, decay=decay) * factor
        return numeric_check(cyc_embed(engine.closed_form(n, chi), bits + 32), acc, bound, M)


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
    _check_variant(variant)
    samples = tuple(_distribution_case(ClassEngine(chi.modulus, q, [n]), n, chi, variant) for q in q_samples)
    if not samples:
        raise ValueError("verify_distribution needs at least one q sample")
    return DistributionResult(samples, all(s.ok and s.genocchi_ok for s in samples),
                              all(s.ratio == s.q**2 for s in samples if s.rhs_euler))


def _check_variant(variant: str) -> None:
    if variant not in ("printed", "corrected"):
        raise ValueError("variant must be 'printed' or 'corrected'")


def _distribution_case(engine: ClassEngine, n: int, chi: DirichletCharacter, variant: str) -> DistributionSample:
    """The distribution identity at one case of ``engine``, whose q is the sample; per q, each family's row to
    max(ns) at every unit, and per n, the unit terms and their scale, are shared."""
    _check_variant(variant)
    qf, d, m = engine.q, chi.modulus, chi.order
    if qf == 0 or qf == -1 or qf**d == -1:
        raise DegenerateSample(f"q = {qf} is excluded for modulus {d}")
    lhs_printed = (Fraction((-1) ** n) / (1 + qf) ** n) * engine.closed_form(n, chi)
    lhs_corrected = lhs_printed / qf**2
    euler, genocchi, scale = engine.part(("eq16", n), lambda: _distribution_terms(engine, n))
    rhs_euler = CycElem(m, _buckets(chi, euler)) * scale
    rhs_genocchi = CycElem(m, _buckets(chi, genocchi)) * (scale / (n + 1))
    lhs = lhs_corrected if variant == "corrected" else lhs_printed
    ratio = lhs_printed.rational_ratio(rhs_euler) if rhs_euler else None
    return DistributionSample(qf, lhs_printed, lhs_corrected, rhs_euler, rhs_genocchi, ratio,
                              lhs == rhs_euler, rhs_euler == rhs_genocchi)


def _distribution_terms(engine: ClassEngine, n: int) -> tuple[dict[int, int], dict[int, int], Fraction]:
    """The chi-free terms of the right-hand sides at n: w_a e_n(a) and w_a g_{n+1}(a) at each unit a, and scale.

    chi(a) != 0 only at units a, so x = a/d has v = d (x = 1/d gives C and dC), and with q = al/be the weight
    (-1)^a q^{-a} is w_a / al^{d-1}, w_a = (-1)^a be^a al^{d-1-a}: one denominator al^{d-1} (dC)^n serves every a.
    """
    qf, d = engine.q, engine.d
    al = qf.numerator

    def rows():  # per unit a: w_a, e_0..e_top and g_0..g_{top+1}, top = max(ns)
        top, x = max(engine.ns), Fraction(1, d)
        (B, C, dC, te), tg = _weights(qf**-d, x, top), _weights(qf**-d, x, top + 1)[3]
        return dC, {a: ((-1) ** a * qf.denominator**a * al ** (d - 1 - a), _scaled_euler(B, a * C, te),
                        _scaled_genocchi(B, a * C, tg)) for a in range(d) if gcd(a, d) == 1}

    dC, units = engine.part("eq16", rows)
    return ({a: w * e[n] for a, (w, e, g) in units.items()}, {a: w * g[n + 1] for a, (w, e, g) in units.items()},
            Fraction(d) ** n / q_number(d, -1 / qf) / (al ** (d - 1) * dC**n))
