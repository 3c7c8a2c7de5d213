"""deep-sums: long term loops around small exact parts (n <= 8).

The op list runs the five p-adic routines at the scale points p^N in
5^6..5^8, 7^5..7^6 and 3^10..3^12, and a complex-s L-value, an interpolation
check and a series check at q in (1, 6/5] with 128-256 bits.
Characters have modulus 1 or p, where the truncated sums see whole periods.
"""
from __future__ import annotations

import random
from fractions import Fraction

import mpmath

import qeuler
from qeuler import padic_verify

from common import Outcome, balanced, spread
from oracles import eulerian_numbers, poly_eval, residue

COLD = False
TRACE_OPS = 64
PADIC_REPEATS = 6
NUMERIC_REPEATS = 2

SCALE_POINTS = ((5, 6), (5, 7), (5, 8), (7, 5), (7, 6), (3, 10), (3, 11), (3, 12))
PADIC_KINDS = ("trunc", "witt", "witt-chi", "integral-eq", "corollary4")
NUMERIC_KINDS = ("l-value", "interpolation", "series")
L_Q = ("21/20", "11/10", "6/5", "16/15", "9/8", "13/12")
BITS = (128, 192, 256)
S_POOL = (("1/2", "14"), ("1/2", "21"), ("1", "5"), ("2", "1"), ("-1/2", "3"), ("3/2", "10"))
# (modulus, index) for the numeric checks.
SMALL_CHARS = ((1, 0), (3, 1), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (7, 3), (7, 4), (7, 5))
# shift equation -> admissible shifts n
SHIFTS = {4: (1, 2, 3), 5: (1, 3), 6: (2,), 7: (1,), 8: (1,)}


def _padic_op(kind: str, p: int, N: int, k: int, q: Fraction, rng: random.Random) -> dict:
    op = {"kind": kind, "p": p, "N": N, "k": k, "q": str(q)}
    if kind == "trunc":
        op["degrees"] = sorted(rng.sample(range(9), 2))
    elif kind == "integral-eq":
        eq = rng.choice(sorted(SHIFTS))
        op.update(eq=eq, shift=rng.choice(SHIFTS[eq]), degree=rng.randint(0, 8))
    else:
        op["n"] = rng.randint(1 if kind == "corollary4" else 0, 8)
        if kind in ("witt-chi", "corollary4"):
            op["index"] = rng.randint(0, p - 2)
    return op


def _padic_group(kind: str, p: int, N: int, rng: random.Random) -> list[dict]:
    """One op for each q = 1 + p*r/c (r in 1..3, c in 1..2), with each precision k twice.

    k and the size of q set most of a sum's cost beside p^N, so every seed
    gets the same of both; the seed pairs them and picks the rest."""
    ks = [2, 3, 4] * (PADIC_REPEATS // 3)
    qs = [1 + Fraction(p * r, c) for r in (1, 2, 3) for c in (1, 2)]
    rng.shuffle(ks)
    return [_padic_op(kind, p, N, k, q, rng) for k, q in zip(ks, qs)]


def generate(seed: int) -> list[dict]:
    """Every p-adic routine at every scale point and every numeric check at
    every (q, bits), spread so that any stretch of the list holds each of these
    combinations in proportion.  The parameters that set an op's cost (k and q
    of the sums, n and s of the numeric checks) take the same values at every
    seed; the seed picks the remaining inputs and the order."""
    rng = random.Random(f"deep-sums/{seed}")
    chars = balanced(rng, SMALL_CHARS)
    groups = [_padic_group(kind, p, N, rng) for kind in PADIC_KINDS for p, N in SCALE_POINTS]
    for kind in NUMERIC_KINDS:
        for g, (q, bits) in enumerate((q, bits) for q in L_Q for bits in BITS):
            group = []
            for r in range(NUMERIC_REPEATS):
                d, index = next(chars)
                op = {"kind": kind, "modulus": d, "index": index, "q": q, "bits": bits}
                if kind == "l-value":
                    op["s"] = list(S_POOL[(NUMERIC_REPEATS * g + r) % len(S_POOL)])
                else:
                    op["n"] = 1 + g % 4 + 4 * r
                group.append(op)
            groups.append(group)
    return spread(rng, groups)


def _s_value(op: dict) -> complex:
    re_s, im_s = (Fraction(part) for part in op["s"])
    return complex(re_s, im_s)


def execute(op: dict, ctx):
    kind = op["kind"]
    q = Fraction(op["q"])
    if kind == "trunc":
        specs = [qeuler.monomial(n) for n in op["degrees"]]
        return padic_verify.truncated_integrals(specs, op["p"], q, "-q^-1", op["N"], op["k"])
    if kind == "witt":
        return qeuler.verify_witt(op["n"], op["p"], q, op["k"], op["N"]).passed
    if kind == "integral-eq":
        return qeuler.verify_integral_equation(op["eq"], qeuler.monomial(op["degree"]), op["shift"],
                                               op["p"], q, op["k"], [op["N"] - 1, op["N"]]).passed
    if kind in ("witt-chi", "corollary4"):
        p = op["p"]
        chi = qeuler.character_by_index(p, op["index"])
        if kind == "witt-chi":
            return qeuler.verify_witt_chi(op["n"], chi, p, q, op["k"], op["N"]).passed
        k = padic_verify.corollary4_min_precision(op["n"], chi, p, q, floor=op["k"])
        if k is None:
            return False
        return qeuler.corollary4_probe(op["n"], chi, p, q, k, [op["N"]]).converged_to == "2*S_A"
    chi = qeuler.character_by_index(op["modulus"], op["index"])
    if kind == "l-value":
        return qeuler.l_eulerian(_s_value(op), chi, q, op["bits"])
    if kind == "interpolation":
        return qeuler.verify_interpolation(op["n"], chi, q, op["bits"]).passed
    return qeuler.chi_eulerian_series_check(op["n"], chi, q, op["bits"]).passed


def _witt_reference(n: int, q: Fraction, p: int, k: int) -> int:
    """(-1)^n (1+q)^{-n} A_n(-q) mod p^k, the limit of the truncated integral of x^n."""
    return residue((-1) ** n * poly_eval(eulerian_numbers(n), -q) / (1 + q) ** n, p, k)


def _l_value_agrees(op: dict, lv) -> bool:
    """Compare with an evaluation 64 bits finer, within both tail bounds."""
    chi = qeuler.character_by_index(op["modulus"], op["index"])
    bits = op["bits"]
    finer = qeuler.l_eulerian(_s_value(op), chi, Fraction(op["q"]), bits + 64)
    with mpmath.workprec(bits + 128):
        slack = mpmath.mpf(2) ** (8 - bits) * max(1, abs(finer.value))
        return abs(lv.value - finer.value) <= lv.tail_bound + finer.tail_bound + slack


def check(op: dict, output, ctx) -> Outcome:
    kind = op["kind"]
    if kind == "trunc":
        q = Fraction(op["q"])
        want = [_witt_reference(n, q, op["p"], op["k"]) for n in op["degrees"]]
        if [r.residue for r in output] != want:
            return Outcome(0, "residues differ from (-1)^n (1+q)^-n A_n(-q) mod p^k")
        return Outcome(len(output))
    if kind == "l-value":
        if not _l_value_agrees(op, output):
            return Outcome(0, "L-value moved beyond its tail bounds at 64 more bits")
        return Outcome(1)
    return Outcome(1) if output else Outcome(0, f"{kind} check did not pass")
