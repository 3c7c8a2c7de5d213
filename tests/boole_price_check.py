"""Rerun the Boole plan's scaling check: is its price near the fastest scale of itself?

For each point, ``l_eulerian`` runs with the K^2 part of ``lfunction._boole_plan``'s price scaled
by 0, 1/4, 1/2, 1, 2 and 4 (by rebinding the module constant c, ``_TAIL_STEPS``).  Each scale is
timed best of 7 calls, interleaved with the other scales, and a scale stops early once its calls
have taken 5 s.  The script prints each scale's time and ``terms``, and the unscaled time over
the fastest scale's.  The points are five seed-0 deep-sums L-value ops of the benchmark and two
long plans: s = -201/2+i at q = 21/20 and s = 1/2+1000i at q = 1.

    PYTHONPATH=src python tests/boole_price_check.py

Pytest does not collect this file; it needs nothing beyond the package.
"""
from __future__ import annotations

import time
from fractions import Fraction
from math import inf

from qeuler import character_by_index, l_eulerian, lfunction

SCALES = (0, 0.25, 0.5, 1, 2, 4)
REPEATS, BUDGET_S = 7, 5.0
POINTS = [  # (modulus, character index, q, bits, s)
    (5, 3, Fraction(11, 10), 128, complex(0.5, 21)),
    (5, 1, Fraction(21, 20), 128, complex(0.5, 14)),
    (7, 3, Fraction(6, 5), 128, complex(0.5, 21)),
    (3, 1, Fraction(21, 20), 192, complex(2, 1)),
    (5, 2, Fraction(13, 12), 192, complex(2, 1)),
    (7, 1, Fraction(21, 20), 128, complex(-100.5, 1)),
    (3, 1, Fraction(1), 128, complex(0.5, 1000)),
]


def run(point, scale):
    """One timed call with the K^2 part scaled; returns (seconds, terms)."""
    modulus, index, q, bits, s = point
    c = lfunction._TAIL_STEPS
    lfunction._TAIL_STEPS = c / scale if scale else inf
    try:
        start = time.perf_counter()
        lv = l_eulerian(s, character_by_index(modulus, index), q, bits)
        return time.perf_counter() - start, lv.terms
    finally:
        lfunction._TAIL_STEPS = c


def main():
    for point in POINTS:
        times, terms, spent = {x: inf for x in SCALES}, {}, dict.fromkeys(SCALES, 0.0)
        for _ in range(REPEATS):
            for x in SCALES:
                if spent[x] < BUDGET_S:
                    elapsed, terms[x] = run(point, x)
                    times[x], spent[x] = min(times[x], elapsed), spent[x] + elapsed
        modulus, index, q, bits, s = point
        print(f"modulus {modulus} index {index} q = {q} {bits} bits s = {s}")
        for x in SCALES:
            print(f"  scale {x:<5} {1e3 * times[x]:9.2f} ms {terms[x]:7d} terms")
        print(f"  unscaled / fastest = {times[1] / min(times.values()):.3f}")


if __name__ == "__main__":
    main()
