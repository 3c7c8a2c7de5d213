"""Classical Eulerian polynomials: triangle engine vs recurrence, explicit-sum and
generating-function oracles, and the engine keeping no rows."""
import gc
import importlib
import pkgutil
import sys
import tracemalloc
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import qeuler
from qeuler import eulerian
from qeuler.characters import character_by_index, unit_group
from qeuler.chi_eulerian import chi_eulerian
from qeuler.cli import main
from qeuler.errors import PoleAtMinusOne, PoleAtOne
from qeuler.lfunction import l_eulerian
from qeuler.tables import TableOptions, build_table
from qeuler.eulerian import (
    eulerian_poly,
    eulerian_series_coeff,
    witt_value,
)

SIGN_POINTS = [Fraction(0), Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(5, 3)]


def recurrence_residual(n: int) -> list[int]:
    """sum_{k<=n} C(n,k) A_k(t) (t-1)^{n-k} - t A_n(t), from the binomial recurrence,
    as a coefficient list of length n + 2.

    Zero for n >= 1; equals 1 - t for n = 0.
    """
    acc = [0] * (n + 2)
    for k in range(n + 1):
        term = [comb(n, k) * c for c in eulerian_poly(k).coeffs]
        for _ in range(n - k):  # times (t - 1)
            term = [a - b for a, b in zip([0] + term, term + [0])]
        for i, c in enumerate(term):
            acc[i] += c
    for i, c in enumerate(eulerian_poly(n).coeffs):
        acc[i + 1] -= c
    return acc


def explicit_eulerian_number(n: int, k: int) -> int:
    """<n,k> = sum_{j<=k} (-1)^j C(n+1,j) (k+1-j)^n."""
    return sum((-1) ** j * comb(n + 1, j) * (k + 1 - j) ** n for j in range(k + 1))


def carlitz_triangle(A: int, B: int, top: int) -> list[int]:
    """h_0..h_top by Carlitz's triangle formula h_k = (-1)^k B sum_i <k,i> (-A)^i B^{k-1-i}, with rows
    1..top of one pass of the triangle engine."""
    rows = eulerian._rows()
    next(rows)  # A_0
    return [1] + [(-1) ** k * B * sum(c * (-A) ** i * B ** (k - 1 - i) for i, c in enumerate(row))
                  for k, row in zip(range(1, top + 1), rows)]


def series_division(A: int, B: int, top: int) -> list[Fraction]:
    """H_0..H_top at u = -A/B: (1-u)/(e^t - u) = sum_k H_k(u) t^k/k! and e^t - u = (1-u) + sum_{j>=1} t^j/j!,
    so H_0 = 1 and H_k = -sum_{j=1..k} C(k,j) H_{k-j} / (1-u)."""
    u, H = Fraction(-A, B), [Fraction(1)]
    for k in range(1, top + 1):
        H.append(-sum(comb(k, j) * H[k - j] for j in range(1, k + 1)) / (1 - u))
    return H


class TestRecurrenceEngine:
    def test_first_values(self):
        assert eulerian_poly(0).coeffs == (1,)
        assert eulerian_poly(1).coeffs == (1,)
        assert eulerian_poly(2).coeffs == (1, 1)
        assert eulerian_poly(3).coeffs == (1, 4, 1)
        assert eulerian_poly(5).coeffs == (1, 26, 66, 26, 1)

    @pytest.mark.parametrize("n", range(26))
    def test_structure(self, n):
        poly = eulerian_poly(n)
        coeffs = poly.coeffs
        assert len(coeffs) == max(n, 1)
        assert all(type(c) is int and c > 0 for c in coeffs)
        assert list(coeffs) == list(reversed(coeffs))
        assert poly.evaluate(1) == factorial(n)

    @pytest.mark.parametrize("n", range(26))
    def test_recurrence_residual(self, n):
        residual = recurrence_residual(n)
        assert residual == ([1, -1] if n == 0 else [0] * (n + 2))

    def test_explicit_sum_oracle(self):
        for n in range(121):
            coeffs = eulerian_poly(n).coeffs
            assert list(coeffs) == [explicit_eulerian_number(n, k) for k in range(max(n, 1))]


class TestSeriesOracle:
    def test_constant_term(self):
        for x0 in (0, 2, Fraction(-7, 3)):
            assert eulerian_series_coeff(0, x0) == 1

    def test_first_order_is_minus_one(self):
        for x0 in (0, 2, Fraction(1, 2)):
            assert eulerian_series_coeff(1, x0) == -1

    def test_n2_at_2(self):
        assert eulerian_series_coeff(2, 2) == 3

    def test_pole(self):
        with pytest.raises(PoleAtOne):
            eulerian_series_coeff(3, 1)

    @pytest.mark.parametrize("n", range(26))
    def test_sign_reconciliation(self, n):
        poly = eulerian_poly(n)
        for x0 in SIGN_POINTS:
            assert eulerian_series_coeff(n, x0) == Fraction(-1) ** n * poly.evaluate(x0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 30), st.integers(-10**6, 10**6), st.integers(1, 10**6))
    def test_integer_recurrence_matches_the_triangle(self, n, a, b):
        assume(a != b)
        x0 = Fraction(a, b)
        assert eulerian_series_coeff(n, x0) == (-1) ** n * eulerian_poly(n).evaluate(x0)

    def test_poly_is_the_polynomial_itself(self):
        assert eulerian_poly(4).poly.coeffs == eulerian_poly(4).coeffs == (1, 11, 11, 1)


class TestFrobeniusEuler:
    @pytest.mark.parametrize("A,B", [(1, 1), (2, 1), (11, 10), (21**7, 20**7), (3**5, 1), (-8, 27)])
    def test_numerators_are_the_series_coefficients(self, A, B):
        # (1-u)/(e^t - u) = sum_k H_k(u) t^k/k!, and e^t - u = (1-u) + sum_{j>=1} t^j/j!, so by
        # series division H_0 = 1 and H_k = -sum_{j=1..k} C(k,j) H_{k-j} / (1-u)
        u = Fraction(-A, B)
        H = [Fraction(1)]
        for k in range(1, 41):
            H.append(-sum(comb(k, j) * H[k - j] for j in range(1, k + 1)) / (1 - u))
        h = eulerian._frobenius_euler(A, B, 40)
        assert [Fraction(hk, (A + B) ** k) for k, hk in enumerate(h)] == H

    # the sizes the callers reach: q^d = 9^21/4^21 and 5^13/2^13 at n <= 80 (exact-scale's order-6 values), the
    # q = 1 Boole tail, B = 1 (an integer q), a negative A, and the empty range
    @pytest.mark.parametrize("A,B,top", [(9**21, 4**21, 80), (5**13, 2**13, 80), (1, 1, 400), (3**5, 1, 200),
                                         (-8, 27, 40), (2, 1, 0)],
                             ids=["9^21,4^21", "5^13,2^13", "1,1", "3^5,1", "-8,27", "top-0"])
    def test_numerators_match_the_triangle_and_the_series(self, A, B, top):
        h = eulerian._frobenius_euler(A, B, top)
        assert h == carlitz_triangle(A, B, top)
        assert [Fraction(hk, (A + B) ** k) for k, hk in enumerate(h)] == series_division(A, B, top)

    def test_no_triangle_row_is_formed(self, monkeypatch):
        chi, q = character_by_index(7, 1), Fraction(7, 3)
        expected = chi_eulerian(24, chi, q)

        def no_rows():
            raise AssertionError("a triangle row was formed")

        monkeypatch.setattr(eulerian, "_rows", no_rows)
        h = eulerian._frobenius_euler(7**7, 3**7, 24)
        assert chi_eulerian(24, chi, q) == expected
        monkeypatch.undo()
        assert h == carlitz_triangle(7**7, 3**7, 24)


class TestWittValue:
    def test_n1_is_one(self):
        for q in (2, 3, Fraction(7, 3)):
            assert witt_value(1, q) == 1

    def test_n2(self):
        assert witt_value(2, 2) == -1

    def test_n0(self):
        assert witt_value(0, 7) == 1

    def test_n3_reference(self):
        assert witt_value(3, 8) == 33

    def test_pole(self):
        with pytest.raises(PoleAtMinusOne):
            witt_value(2, -1)


def _module_container_sizes() -> dict[tuple[str, str], int]:
    """The length of every list, dict and set bound at module level in the package."""
    return {(name, attr): len(obj) for name, module in list(sys.modules.items())
            if name == "qeuler" or name.startswith("qeuler.")
            for attr, obj in vars(module).items()
            if not attr.startswith("__") and isinstance(obj, (list, dict, set))}


class TestNoRowsKept:
    """Each caller steps the triangle through the rows it needs; no row outlives the call."""

    def test_rows_are_freed_when_the_call_returns(self):
        chi, q = character_by_index(7, 1), Fraction(7, 3)
        chi_eulerian(1, chi, q)  # the character's own tables, keyed by the modulus, are built here
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            eulerian_poly(600)
            chi_eulerian(300, chi, q)
            build_table(TableOptions("chi-eulerian", max_n=40, modulus=7, q_list=[q]))
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 2**20

    def test_no_module_level_container_grows(self, capsys):
        main(["verify", "suite", "--name", "eq19-vs-eq20", "--max-n", "2"])  # imports and parser built
        before = _module_container_sizes()
        eulerian_poly(640)
        chi_eulerian(320, character_by_index(5, 1), Fraction(3))
        build_table(TableOptions("chi-eulerian", max_n=40, modulus=7, q_list=[Fraction(9, 4)]))
        l_eulerian(-3, character_by_index(7, 2), Fraction(2))
        assert main(["verify", "suite", "--name", "eq16-distribution", "--max-n", "6"]) == 0
        capsys.readouterr()
        assert _module_container_sizes() == before

    def test_every_functools_cache_is_bounded(self):
        for info in pkgutil.iter_modules(qeuler.__path__):
            importlib.import_module(f"qeuler.{info.name}")
        caches = {(name, attr): obj.cache_info().maxsize for name, module in list(sys.modules.items())
                  if name == "qeuler" or name.startswith("qeuler.")
                  for attr, obj in vars(module).items() if hasattr(obj, "cache_info")}
        assert caches and all(size is not None for size in caches.values()), caches

    def test_benchmark_cold_start_still_resets_module_state(self, monkeypatch):
        # bench/run.py's CacheReset puts back every private module-level container and
        # empties every functools cache; with no row list left, check it on a container
        # the test binds itself and on characters.unit_group.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        run = importlib.import_module("run")
        probe = []
        monkeypatch.setattr(eulerian, "_probe", probe, raising=False)
        reset = run.CacheReset()
        probe.append(eulerian_poly(4))
        monkeypatch.setattr(eulerian, "_probe", [1, 2])
        unit_group(7)
        assert unit_group.cache_info().currsize > 0
        reset()
        assert eulerian._probe is probe and probe == []
        assert unit_group.cache_info().currsize == 0
