"""Truncated fermionic p-adic q-integrals and the identity checks built on them.

A truncated integral is the finite Riemann sum

    T_N(f; Q) = (1 / [p^N]_Q) sum_{eta < p^N} Q^eta f(eta)   (mod p^k),

for a fermionic weight Q in {-q, -q^{-1}, -q^{-d}} with q = 1 (mod p), so
every kernel power is a p-adic unit and the normalizer is invertible.  All
checks report per-level residual valuations so the empirical convergence
(valuation growing with N) is auditable, never assumed.

The residues of f(eta) have period P = lcm(p^k, d), so each sum is taken in
closed form over one period, summed in blocks of L = lcm(p^ceil(k/2), d)
values with one first-order p-adic Taylor step per block, in
O(L + P/L + N log p) operations.  Once P divides p^N, T_N no longer depends
on N, so valuations that do not decrease across levels above that one are no
extra evidence.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm
from typing import Sequence

from .characters import DirichletCharacter
from .chi_eulerian import _check_variant, chi_eulerian, series_reference
from .errors import (
    BadCongruence,
    DomainError,
    NonUnitNormalizer,
    ParityMismatch,
)
from .eulerian import witt_value
from .numtheory import is_prime
from .padic import PadicResidue, Scalar, embed_cyclotomic, valuation


@dataclass(frozen=True)
class IntegrandSpec:
    """f(x + shift) with f(x) = chi(x) (offset + x)^degree; chi is optional."""

    degree: int
    character: DirichletCharacter | None = None
    offset: Fraction = Fraction(0)
    shift: int = 0

    def __post_init__(self):
        if self.degree < 0 or self.shift < 0:
            raise ValueError("degree and shift must be >= 0")

    def shifted(self, s: int) -> IntegrandSpec:
        return replace(self, shift=self.shift + s)

    def exact_value(self, x: int):
        """f(x) as an exact Fraction, or CycElem for character integrands."""
        t = x + self.shift
        base = (self.offset + t) ** self.degree
        if self.character is not None:
            return self.character(t) * base
        return Fraction(base)

    def describe(self) -> str:
        core = f"({self.offset}+x)^{self.degree}" if self.offset else f"x^{self.degree}"
        if self.character is not None:
            core = f"chi[{self.character.label}](x)*{core}"
        return core if self.shift == 0 else core.replace("x", f"(x+{self.shift})")


def monomial(degree: int) -> IntegrandSpec:
    return IntegrandSpec(degree)


def chi_monomial(chi: DirichletCharacter, degree: int) -> IntegrandSpec:
    return IntegrandSpec(degree, character=chi)


def shifted_monomial(offset: Scalar, degree: int) -> IntegrandSpec:
    return IntegrandSpec(degree, offset=Fraction(offset))


MEASURES = ("-q", "-q^-1", "-q^-d")
# the most steps min(L, stop) + stop // L that the two passes of one truncated sum
# take, L = lcm(p^ceil(k/2), d) and stop = min(lcm(p^k, d), p^N)
MAX_WALK = 2**22


def measure_weight(measure: str, q: Fraction, d: int = 1) -> Fraction:
    if measure == "-q":
        return -q
    if measure == "-q^-1":
        return -1 / q
    if measure == "-q^-d":
        return -(q ** (-d))
    raise ValueError(f"unknown measure {measure!r}")


def congruent_to_one(q: Fraction, p: int) -> bool:
    """True when q = 1 (mod p): p divides the numerator of q - 1 and not its denominator."""
    delta = q - 1
    return delta.numerator % p == 0 and delta.denominator % p != 0


def _check_setup(p: int, q: Fraction, levels: Sequence[int], k: int) -> None:
    """Refuse what the truncated sums do not cover: p must be an odd prime,
    k and every level N at least 1, and q = 1 (mod p)."""
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    if min(levels, default=1) < 1 or k < 1:
        raise ValueError("N and k must be >= 1")
    if not congruent_to_one(q, p):
        raise BadCongruence(f"q = {q} is not congruent to 1 mod {p}")


def _chi_residues(spec: IntegrandSpec, p: int, k: int) -> list[int]:
    """chi(t) mod p^k for t < d, which depends only on the integrand's character; [1] without one."""
    chi = spec.character
    return [1] if chi is None else [embed_cyclotomic(chi(t), p, k) for t in range(chi.modulus)]


def _base(spec: IntegrandSpec, p: int, k: int) -> int:
    """offset + shift mod p^k, so that f(eta) = chi(eta + shift) (base + eta)^degree."""
    offset = embed_cyclotomic(spec.offset, p, k) if spec.offset else 0
    return (offset + spec.shift) % p**k


def _weighted_sums(spec: IntegrandSpec, chi_res: list[int], w: int, counts: Sequence[int],
                   p: int, k: int) -> list[int]:
    """sum_{eta < count} w^eta f(eta)  (mod p^k) for each count, f = ``spec``.

    ``chi_res`` is ``_chi_residues(spec, p, k)``.  f has period P = lcm(p^k, d)
    mod p^k.  With count = a P + r the sum is S_P (1 + x + ... + x^(a-1)) +
    x^a S_r, x = w^P, S_r the sum of the first r terms; the geometric factor is
    built by doubling on the bits of a, so 1 - x need not be a unit mod p^k.

    S_r is summed in blocks of L = lcm(p^ceil(k/2), d) values.  p^k divides L^2
    and d divides L, so with eta = b + L s and A = offset + shift + b,
    f(eta) = chi(b + shift) (A^n + n A^(n-1) L s) (mod p^k).  For r = T L + r',

        S_r = B0 G0(T) + L B1 G1(T) + y^T (B0(r') + L T B1(r')),   y = w^L,

    where B0(m), B1(m) sum w^b chi(b + shift) A^n and w^b chi(b + shift) n A^(n-1)
    over b < m (B0 = B0(L), B1 = B1(L)), and G0(T), G1(T) sum y^s and s y^s over
    s < T.  One pass over b < L and one over s < P/L serve every count, in
    O(L + P/L) steps with no division.  With stop = min(P, largest count), more
    than ``MAX_WALK`` steps min(L, stop) + stop // L raise ``DomainError`` before
    any step.
    """
    pk = p**k
    d = len(chi_res)
    period, block = lcm(pk, d), lcm(p ** ((k + 1) // 2), d)
    stop = min(period, max(counts, default=0))
    walk = min(block, stop) + stop // block
    if walk > MAX_WALK:
        raise DomainError(f"a truncated sum would walk {walk} values, more than the {MAX_WALK} allowed")
    n, shift, c = spec.degree, spec.shift, _base(spec, p, k)
    heads = {count % period % block for count in counts}
    prefix = {}  # (B0(r'), B1(r')) for r' in heads
    b0 = b1 = 0
    wb = 1  # w^b
    for b in range(min(block, stop)):
        if b in heads:
            prefix[b] = b0, b1
        u = wb * chi_res[(b + shift) % d]
        if u:
            base = c + b  # A
            lower = pow(base, n - 1, pk) if n else 0  # A^(n-1), unused at n = 0
            b0 = (b0 + u * (lower * base if n else 1)) % pk
            b1 = (b1 + u * n * lower) % pk
        wb = wb * w % pk
    prefix[min(block, stop)] = b0, b1
    y = pow(w, block, pk)
    tails = {count % period // block for count in counts}
    blocks = {}  # (G0(T), G1(T), y^T) for T in tails
    g0 = g1 = 0
    ys = 1  # y^s
    for s in range(stop // block):
        if s in tails:
            blocks[s] = g0, g1, ys
        g0, g1, ys = (g0 + ys) % pk, (g1 + s * ys) % pk, ys * y % pk
    blocks[stop // block] = g0, g1, ys
    # S_P and x = y^(P/L) matter only to counts of at least P, when stop = P
    total, x = (b0 * g0 + block * b1 * g1) % pk, ys
    sums = []
    for count in counts:
        a, r = divmod(count, period)
        t, head = divmod(r, block)
        h0, h1 = prefix[head]
        t0, t1, yt = blocks[t]
        partial = b0 * t0 + block * b1 * t1 + yt * (h0 + block * t * h1)
        geometric, xa = 0, 1  # sum_{j < m} x^j and x^m for m = the leading bits of a
        for bit in bin(a)[2:]:
            geometric, xa = geometric * (1 + xa) % pk, xa * xa % pk
            if bit == "1":
                geometric, xa = (geometric + xa) % pk, xa * x % pk
        sums.append((total * geometric + xa * partial) % pk)
    return sums


def _integrals(specs: Sequence[IntegrandSpec], p: int, q: Scalar, measure: str,
               levels: Sequence[int], k: int) -> list[list[int]]:
    """T_N mod p^k of each integrand at each level N.

    One blocked sum per integrand, up to the deepest level, serves every level,
    and each distinct character is embedded once.
    """
    qf = Fraction(q)
    _check_setup(p, qf, levels, k)
    d = next((s.character.modulus for s in specs if s.character is not None), 1)
    pk = p**k
    w_res = embed_cyclotomic(measure_weight(measure, qf, d), p, k)
    counts = [p**N for N in levels]
    inv_norms = []
    for count in counts:
        normalizer = (1 - pow(w_res, count, pk)) * pow((1 - w_res) % pk, -1, pk) % pk
        if normalizer % p == 0:
            raise NonUnitNormalizer(f"[p^N]_Q is not a unit for measure {measure!r}")
        inv_norms.append(pow(normalizer, -1, pk))
    residues = {chi: _chi_residues(s, p, k) for chi, s in {s.character: s for s in specs}.items()}
    return [[total * inv % pk for total, inv in
             zip(_weighted_sums(s, residues[s.character], w_res, counts, p, k), inv_norms)]
            for s in specs]


def truncated_integrals(specs: Sequence[IntegrandSpec], p: int, q: Scalar, measure: str,
                        N: int, k: int) -> list[PadicResidue]:
    """T_N of each integrand under one weight and normalizer."""
    return [PadicResidue(p, k, level[0]) for level in _integrals(specs, p, q, measure, [N], k)]


def truncated_integral(f: IntegrandSpec, p: int, q: Scalar, measure: str = "-q^-1",
                       N: int = 4, k: int = 1) -> PadicResidue:
    return truncated_integrals([f], p, q, measure, N, k)[0]


def admissible_modulus(d: int, p: int) -> bool:
    """True when d = 1 or d is a power of p.

    Only then does d divide p^N, so that the sums over eta < p^N cover whole
    periods of a character mod d.
    """
    while d > 1 and p > 1 and d % p == 0:
        d //= p
    return d == 1


@dataclass(frozen=True)
class IntegralEquationReport:
    levels: tuple[int, ...]
    valuations: tuple[int, ...]
    lhs_last: int
    rhs: int
    passed: bool


def verify_integral_equation(eq: int, f: IntegrandSpec, n: int, p: int, q: Scalar, k: int,
                             N_list: Sequence[int]) -> IntegralEquationReport:
    """Check one of the five shift equations of the fermionic integral.

    eq 4: q^n T(f_n) + (-1)^{n-1} T(f) = (1+q) sum_{l<n} (-1)^{n-1-l} q^l f(l)   [-q]
    eq 5 (n odd) / eq 6 (n even): the sign-resolved forms of eq 4              [-q]
    eq 7 (n = 1): q T(f_1) + T(f) = (1+q) f(0)                                  [-q]
    eq 8 (n = 1): T(f_1) + q T(f) = (1+q) f(0)                                  [-q^-1]

    Equations 5 and 7 are eq 4 at odd n and at n = 1; eq 6 is eq 4 at even n
    with both sides negated, and its reports keep that sign.  Passes when the
    residual valuation reaches k at the largest level and is non-decreasing
    across levels.
    """
    if eq not in (4, 5, 6, 7, 8):
        raise ValueError("equation must be one of 4..8")
    if eq == 5 and n % 2 == 0:
        raise ParityMismatch("equation 5 needs odd shift")
    if eq == 6 and n % 2 == 1:
        raise ParityMismatch("equation 6 needs even shift")
    if eq in (7, 8) and n != 1:
        raise ParityMismatch("equations 7 and 8 are the shift-1 cases")
    if n < 1:
        raise ValueError("shift must be >= 1")
    qf = Fraction(q)
    levels = tuple(sorted(N_list))
    measure = "-q^-1" if eq == 8 else "-q"
    pk = p**k
    integrals = _integrals([f, f.shifted(n)], p, qf, measure, levels, k)  # refuses a bad setup first

    sign = -1 if eq == 6 else 1
    rhs_exact = sum((Fraction((-1) ** (n - 1 - l)) * qf**l * f.exact_value(l) for l in range(n)),
                    start=Fraction(0) * f.exact_value(0))
    rhs = sign * embed_cyclotomic((1 + qf) * rhs_exact, p, k) % pk

    qn = embed_cyclotomic(qf**n, p, k)
    vals = []
    lhs_last = 0
    for t_f, t_fn in zip(*integrals):
        if eq == 8:
            lhs = (t_fn + qn * t_f) % pk
        else:
            lhs = sign * (qn * t_fn + (-1) ** (n - 1) * t_f) % pk
        vals.append(valuation(lhs - rhs, p, k))
        lhs_last = lhs
    monotone = all(a <= b for a, b in zip(vals, vals[1:]))
    passed = bool(vals) and vals[-1] >= k and monotone
    return IntegralEquationReport(levels, tuple(vals), lhs_last, rhs, passed)


@dataclass(frozen=True)
class WittReport:
    prime: int
    precision: int
    integral: PadicResidue
    reference: PadicResidue
    ratio: int | None
    passed: bool


def verify_witt(n: int, p: int, q: Scalar, k: int, N: int) -> WittReport:
    """Truncated integral of x^n under -q^{-1} against (-1)^n (1+q)^{-n} A_n(-q)."""
    qf = Fraction(q)
    integral = truncated_integral(monomial(n), p, qf, "-q^-1", N, k)
    ref_exact = Fraction((-1) ** n) / (1 + qf) ** n * witt_value(n, qf)
    reference = PadicResidue.from_rational(ref_exact, p, k)
    return WittReport(p, k, integral, reference, None, integral.residue == reference.residue)


def verify_witt_chi(n: int, chi: DirichletCharacter, p: int, q: Scalar, k: int, N: int,
                    variant: str = "corrected") -> WittReport:
    """Truncated integral of chi(x) x^n under -q^{-1} against the polynomial side.

    printed:   (-1)^n (1+q)^{-n} A_n(chi,-q)
    corrected: the same times q^{-2}.

    The character's modulus must be 1 or a power of p; values embed when
    their order divides p-1 (orders 1 and 2 always do).
    """
    _check_variant(variant)
    if not admissible_modulus(chi.modulus, p):
        raise ValueError(f"modulus {chi.modulus} must be 1 or a power of p = {p}")
    qf = Fraction(q)
    pk = p**k
    integral = truncated_integral(chi_monomial(chi, n), p, qf, "-q^-1", N, k)
    printed = (Fraction((-1) ** n) / (1 + qf) ** n) * chi_eulerian(n, chi, qf)
    reference = PadicResidue(p, k, embed_cyclotomic(printed / qf**2 if variant == "corrected" else printed, p, k))
    ratio = None
    if integral.is_unit():
        ratio = embed_cyclotomic(printed, p, k) * pow(integral.residue, -1, pk) % pk
    return WittReport(p, k, integral, reference, ratio, integral.residue == reference.residue)


@dataclass(frozen=True)
class Corollary4Report:
    precision: int
    sums: tuple[int, ...]
    candidate_plain: int      # 2 * S_A mod p^k
    candidate_scaled: int     # 2 q^2 * S_A mod p^k
    val_plain: tuple[int, ...]
    val_scaled: tuple[int, ...]
    converged_to: str | None  # "2*S_A" | "2*q^2*S_A" | None


def corollary4_min_precision(n: int, chi: DirichletCharacter, p: int, q: Scalar,
                             floor: int = 2) -> int | None:
    """Smallest k >= floor at which the two candidate closed forms differ mod p^k.

    The candidates differ by 2 S_A (q^2 - 1); since q = 1 (mod p) that gap
    carries at least one extra power of p, so a fixed k cannot distinguish
    every case.  Returns None when the gap is zero (vacuous probe).  Otherwise
    the search ends: zeta_m -> its Teichmueller root embeds Q(zeta_m) in Q_p,
    so the gap's image is a nonzero p-adic integer of finite valuation.
    """
    qf = Fraction(q)
    gap = (2 * (qf**2 - 1)) * series_reference(n, chi, qf)
    if gap.is_zero():
        return None
    k = floor
    while embed_cyclotomic(gap, p, k) == 0:
        k += 1
    return k


def corollary4_probe(n: int, chi: DirichletCharacter, p: int, q: Scalar, k: int,
                     N_list: Sequence[int]) -> Corollary4Report:
    """Measure which closed form the unnormalized alternating sum converges to.

    U_N = sum_{x=1}^{p^N - 1} (-1)^x chi(x) x^n q^{-x}  (mod p^k), compared
    against 2*S_A and 2*q^2*S_A with S_A = (-1)^n A_n(chi,-q) / (q(1+q)^{n+1})
    exact.  The limit normalizer [p^N]_{-q^{-1}} -> 2q/(1+q) is computed from
    q^{-p^N} -> 1, never assumed equal to its finite-level value.
    """
    if not admissible_modulus(chi.modulus, p):
        raise ValueError(f"modulus {chi.modulus} must be 1 or a power of p = {p}")
    qf = Fraction(q)
    levels = tuple(sorted(N_list))
    _check_setup(p, qf, levels, k)
    pk = p**k
    spec = chi_monomial(chi, n)
    w_res = embed_cyclotomic(-1 / qf, p, k)
    s_a = series_reference(n, chi, qf)
    cand_plain = 2 * embed_cyclotomic(s_a, p, k) % pk
    cand_scaled = cand_plain * embed_cyclotomic(qf**2, p, k) % pk

    sums = []
    val_plain = []
    val_scaled = []
    chi_res = _chi_residues(spec, p, k)
    # f(0) = chi(shift) (offset + shift)^n has weight 1 and is not part of U_N
    first = chi_res[spec.shift % len(chi_res)] * pow(_base(spec, p, k), n, pk) % pk
    for total in _weighted_sums(spec, chi_res, w_res, [p**N for N in levels], p, k):
        total = (total - first) % pk
        sums.append(total)
        val_plain.append(valuation(total - cand_plain, p, k))
        val_scaled.append(valuation(total - cand_scaled, p, k))
    converged: str | None = None
    if levels and cand_plain != cand_scaled:
        hit_plain = val_plain[-1] >= k
        hit_scaled = val_scaled[-1] >= k
        if hit_plain and not hit_scaled:
            converged = "2*S_A"
        elif hit_scaled and not hit_plain:
            converged = "2*q^2*S_A"
    return Corollary4Report(k, tuple(sums), cand_plain, cand_scaled,
                            tuple(val_plain), tuple(val_scaled), converged)
