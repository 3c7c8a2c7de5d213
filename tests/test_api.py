"""The public API: ``qeuler.__all__`` is pinned, so growing or shrinking it is a visible change."""
import importlib
from fractions import Fraction

import pytest

import qeuler
from qeuler.numerics import NumericCheck

PUBLIC = [
    "CycElem", "DirichletCharacter", "EulerianPoly", "IntegrandSpec", "LValue", "PadicResidue",
    "UnitGroupStructure", "VerificationReport", "character_by_index", "chi_eulerian",
    "chi_eulerian_series_check", "chi_monomial", "corollary4_probe", "cyc_embed",
    "cyclotomic_polynomial", "embed_cyclotomic", "enumerate_characters", "eulerian_poly",
    "eulerian_series_coeff", "kernel_series_check", "l_eulerian", "mellin_term_check", "monomial",
    "padic_unit_root", "principal_character", "q_number", "q_samples", "series_reference",
    "shifted_monomial", "truncated_integral", "unit_group", "verify_distribution",
    "verify_integral_equation", "verify_interpolation", "verify_witt", "verify_witt_chi",
    "weight_zero_euler", "weight_zero_genocchi", "witt_value",
]


def test_public_api_is_pinned():
    assert len(PUBLIC) == 39
    assert sorted(qeuler.__all__) == PUBLIC
    assert all(hasattr(qeuler, name) for name in PUBLIC)
    for gone in ("qeuler.polyq", "qeuler.series"):  # the integer rows and tuples replaced them
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(gone)


def test_the_numeric_checks_return_one_record():
    # the benchmark reads .passed of each check and .terms of the series checks
    quad3 = qeuler.enumerate_characters(3)[1]
    results = [qeuler.chi_eulerian_series_check(1, quad3, 2, 128), qeuler.kernel_series_check(1, quad3, 2, 128),
               qeuler.verify_interpolation(1, quad3, 2, 128),
               qeuler.mellin_term_check(Fraction(2), 1, Fraction(2), 128)]
    assert all(type(r) is NumericCheck and r.passed for r in results)
    assert all(isinstance(r.terms, int) and r.terms > 0 for r in results[:3])
    assert results[3].terms is None  # a quadrature sums no series
    for r in results:
        assert r.bound > 0 and abs(r.lhs - r.rhs) <= r.bound
    assert len(qeuler.__all__) == 39
