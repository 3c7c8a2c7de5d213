"""exact-scale: cold exact engines at the scale points users ask for.

Each round holds three classical Eulerian polynomials (n 30, next to the
generating-function oracle), one character group (modulus 43-63), five
character-attached values of order 6 or 12 (n 40-80), one modulus-1 value,
two distribution checks (n 6-12) and two tables (n <= 24); sizes are fixed
where a percentile falls and every other parameter is balanced over the
rounds, so every seed gets the same mix.  run.py empties
qeuler's memo tables before every op, as a fresh CLI process would have them.
"""
from __future__ import annotations

import cmath
import random
from fractions import Fraction
from math import factorial, gcd

import mpmath

import qeuler
from qeuler import tables

from common import Outcome, balanced
from oracles import (
    alternating_character_sum,
    embed_float,
    embed_mp,
    eulerian_numbers,
    parse_exact,
    poly_eval,
    totient,
    weight_zero_euler_row,
)

COLD = True
TRACE_OPS = 30
ROUNDS = 16

# (modulus, enumeration index) of characters of order 6 and of order 12.
ORDER_6 = ((7, 1), (7, 5), (9, 1), (9, 5), (13, 2), (13, 10), (21, 1), (21, 7))
ORDER_12 = ((13, 1), (13, 5), (13, 7), (13, 11))
# Three cold Eulerian polynomials of one size per round, a fifth of the ops:
# op_p90_ms falls among them, so many equal ops set it.
EULERIAN_N = (30, 30, 30)
# (character order, n) of the character-attached values per round.  The four
# of about equal cost hold the middle ranks, so op_p50_ms falls among them.
# Order-6 characters mod 7 and 9 cost about two thirds of those mod 13 and 21,
# so the two at n = 53 take one of each kind in every round.
CHI_SLOTS = ((6, 53), (6, 53), (12, 40), (12, 40), (6, 80))
GROUP_MODULI = (43, 45, 55, 63)
# chi-eulerian table sizes that cost about the same at each modulus
TABLE_N = {1: 24, 3: 20, 5: 16, 7: 12}
Q_POOL = ("2", "3", "5/2", "7/3", "4", "9/4")
X_POOL = ("3/2", "-2", "5/3", "2", "-1/2", "1/3")
SERIES_BITS = 192


def generate(seed: int) -> list[dict]:
    """Rounds of 15 ops; each round has the same cost levels, the seed picks the inputs."""
    rng = random.Random(f"exact-scale/{seed}")
    x0s = balanced(rng, X_POOL)
    groups, table_moduli, wz_n = balanced(rng, GROUP_MODULI), balanced(rng, TABLE_N), balanced(rng, (16, 18, 20))
    qs, middle_qs = balanced(rng, Q_POOL), balanced(rng, Q_POOL)
    slots = {(6, 53): [balanced(rng, ORDER_6[:4]), balanced(rng, ORDER_6[4:])],
             (12, 40): [balanced(rng, ORDER_12)] * 2, (6, 80): [balanced(rng, ORDER_6)]}
    dist = balanced(rng, [(d, n) for d in (3, 5, 7) for n in (6, 9, 12)])
    modulus_1_n = balanced(rng, (40, 60, 80))
    ops = []
    for _ in range(ROUNDS):
        table_d = next(table_moduli)
        batch = [
            *({"kind": "eulerian", "n": n, "x0": next(x0s)} for n in EULERIAN_N),
            {"kind": "characters", "modulus": next(groups)},
            {"kind": "chi", "modulus": 1, "index": 0, "n": next(modulus_1_n), "q": next(qs)},
            {"kind": "chi-table", "modulus": table_d, "max_n": TABLE_N[table_d], "q": next(qs)},
            {"kind": "wz-table", "max_n": next(wz_n), "q": ",".join(rng.sample(Q_POOL, 2)),
             "x": ",".join(rng.sample(X_POOL, 2))},
        ]
        for j, slot in enumerate(CHI_SLOTS):
            d, i = next(slots[slot][CHI_SLOTS[:j].count(slot)])
            q = next(middle_qs if slot != (6, 80) else qs)
            batch.append({"kind": "chi", "modulus": d, "index": i, "n": slot[1], "q": q})
        for _ in range(2):
            d, n = next(dist)
            batch.append({"kind": "distribution", "modulus": d, "index": rng.randint(1, d - 2), "n": n,
                          "q": ",".join(rng.sample(Q_POOL, 3))})
        rng.shuffle(batch)
        ops.extend(batch)
    return ops


def _fractions(text: str) -> list[Fraction]:
    return [Fraction(part) for part in text.split(",")]


def execute(op: dict, ctx):
    kind = op["kind"]
    if kind == "eulerian":
        return (qeuler.eulerian_poly(op["n"]).poly.coeffs,
                qeuler.eulerian_series_coeff(op["n"], Fraction(op["x0"])))
    if kind == "characters":
        chars = qeuler.enumerate_characters(op["modulus"])
        return [(c.order, c.values(), c.conductor()) for c in chars]
    if kind == "chi":
        chi = qeuler.character_by_index(op["modulus"], op["index"])
        return chi.order, qeuler.chi_eulerian(op["n"], chi, Fraction(op["q"]))
    if kind == "distribution":
        chi = qeuler.character_by_index(op["modulus"], op["index"])
        return qeuler.verify_distribution(op["n"], chi, _fractions(op["q"]))
    if kind == "chi-table":
        return tables.build_table(tables.TableOptions(kind="chi-eulerian", max_n=op["max_n"],
                                        modulus=op["modulus"], q_list=[Fraction(op["q"])]))[1]
    return tables.build_table(tables.TableOptions(kind="weight-zero-euler", max_n=op["max_n"],
                                    q_list=_fractions(op["q"]), x_list=_fractions(op["x"])))[1]


def _series_agrees(n: int, modulus: int, index: int, q: Fraction, order: int, coeffs) -> bool:
    """(-1)^n A_n(chi,-q) / (q (1+q)^{n+1}) against the alternating character series."""
    values = qeuler.character_by_index(modulus, index).values()
    with mpmath.workprec(SERIES_BITS + 64):
        table = [embed_mp(v.order, v.coeffs) for v in values]
        total, mass = alternating_character_sum(n, table, q, SERIES_BITS)
        qv = mpmath.mpf(q.numerator) / q.denominator
        exact = embed_mp(order, coeffs) * (-1) ** n / (qv * (1 + qv) ** (n + 1))
        return abs(exact - total) <= mass * mpmath.mpf(2) ** (32 - SERIES_BITS)


def _modulus_one(n: int, q: Fraction) -> Fraction:
    """A_n(chi_1, -q) = q^2 A_n(-q): the measured modulus-1 reduction factor."""
    return q**2 * poly_eval(eulerian_numbers(n), -q)


def _check_eulerian(op, output) -> str | None:
    coeffs, series = output
    n = op["n"]
    if tuple(coeffs) != eulerian_numbers(n):
        return "coefficients differ from Worpitzky's sum"
    if list(coeffs) != list(reversed(coeffs)) or sum(coeffs) != factorial(n):
        return "A_n is not palindromic with A_n(1) = n!"
    if series != (-1) ** n * poly_eval(eulerian_numbers(n), Fraction(op["x0"])):
        return "generating-function coefficient differs from (-1)^n A_n(x0)"
    return None


def _check_characters(op, output) -> str | None:
    d = op["modulus"]
    if len(output) != totient(d):
        return f"{len(output)} characters, expected phi({d}) = {totient(d)}"
    units = [a for a in range(d) if gcd(a, d) == 1]
    seen = set()
    for order, values, conductor in output:
        table = [embed_float(v.order, v.coeffs) for v in values]
        if len(table) != d or any(abs(abs(table[a]) - (a in units)) > 1e-9 for a in range(d)):
            return "character values are not roots of unity on units and 0 elsewhere"
        if any(abs(table[a] * table[b] - table[a * b % d]) > 1e-9 for a in units for b in units[:4]):
            return "character is not multiplicative"
        if any(abs(table[a] ** order - 1) > 1e-9 for a in units):
            return "character order does not annihilate its values"
        total = sum(table)
        if abs(total - (len(units) if all(abs(table[a] - 1) < 1e-9 for a in units) else 0)) > 1e-6:
            return "character sum is not phi(d) or 0"
        f = next(f for f in range(1, d + 1) if d % f == 0
                 and all(abs(table[a] - 1) < 1e-9 for a in units if a % f == 1 % f))
        if conductor != f:
            return f"conductor {conductor}, expected {f}"
        seen.add(tuple(round(cmath.phase(table[a]), 6) for a in units))
    if len(seen) != len(output):
        return "characters repeat"
    return None


def _check_chi(op, output) -> str | None:
    order, value = output
    n, d, q = op["n"], op["modulus"], Fraction(op["q"])
    if d == 1:
        if list(value.coeffs) != [_modulus_one(n, q)]:
            return "modulus-1 value differs from q^2 A_n(-q)"
        return None
    if order not in (6, 12):
        return f"character {d}.{op['index']} has order {order}, expected 6 or 12"
    if not _series_agrees(n, d, op["index"], q, value.order, value.coeffs):
        return "value differs from the alternating character series"
    return None


def _check_distribution(op, result) -> str | None:
    if not result.passed:
        return "distribution identity failed"
    if not result.ratio_is_q_squared:
        return "printed/corrected ratio is not q^2"
    return None


def _check_chi_table(op, rows) -> str | None:
    d, top, q = op["modulus"], op["max_n"], Fraction(op["q"])
    if len(rows) != (top + 1) * totient(d):
        return f"{len(rows)} rows"
    for row in rows:
        order, coeffs = parse_exact(row["value"])
        if d == 1 and coeffs != [_modulus_one(row["n"], q)]:
            return f"modulus-1 row n={row['n']} differs from q^2 A_n(-q)"
        if d > 1 and row["n"] == top and not _series_agrees(top, d, row["char"], q, order, coeffs):
            return f"row n={top} char={row['char']} differs from the alternating character series"
    return None


def _check_wz_table(op, rows) -> str | None:
    qs, xs, top = _fractions(op["q"]), _fractions(op["x"]), op["max_n"]
    if len(rows) != (top + 1) * len(qs) * len(xs):
        return f"{len(rows)} rows"
    expect = {(q, x): weight_zero_euler_row(top, q, x) for q in qs for x in xs}
    for row in rows:
        _, (value,) = parse_exact(row["value"])
        if value != expect[(Fraction(row["q"]), Fraction(row["x"]))][row["n"]]:
            return f"row n={row['n']} q={row['q']} x={row['x']} differs from the recurrence"
    return None


CHECKS = {
    "eulerian": (_check_eulerian, lambda out: 2),
    "characters": (_check_characters, len),
    "chi": (_check_chi, lambda out: 1),
    "distribution": (_check_distribution, lambda out: len(out.samples)),
    "chi-table": (_check_chi_table, len),
    "wz-table": (_check_wz_table, len),
}


def check(op: dict, output, ctx) -> Outcome:
    checker, cases = CHECKS[op["kind"]]
    problem = checker(op, output)
    return Outcome(0, problem) if problem else Outcome(cases(output))
