"""The public API: ``qeuler.__all__`` is pinned, so growing or shrinking it is a visible change."""
import importlib

import pytest

import qeuler

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
