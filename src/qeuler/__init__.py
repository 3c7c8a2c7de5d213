"""Exact computation and cross-verification of Eulerian polynomial families
attached to Dirichlet characters, with truncated fermionic p-adic integrals
and a geometrically convergent L-function.

Every identity is checked through at least two independent routes: exact
recurrences against generating-function or series oracles, truncated p-adic
Riemann sums against closed forms, and numeric L-values against exact
polynomial data.  Known tension between the two kernel normalizations is
measured (the "printed"/"corrected" variants differing by q^2), never
silently repaired.
"""

from .characters import (
    DirichletCharacter,
    UnitGroupStructure,
    character_by_index,
    enumerate_characters,
    principal_character,
    unit_group,
)
from .chi_eulerian import (
    chi_eulerian,
    chi_eulerian_series_check,
    kernel_series_check,
    series_reference,
    verify_distribution,
    weight_zero_euler,
    weight_zero_genocchi,
)
from .cyclotomic import CycElem, cyc_embed, cyclotomic_polynomial
from .eulerian import EulerianPoly, eulerian_poly, eulerian_series_coeff, witt_value
from .lfunction import LValue, l_eulerian, mellin_term_check, verify_interpolation
from .padic import PadicResidue, embed_cyclotomic, padic_unit_root
from .padic_verify import (
    IntegrandSpec,
    chi_monomial,
    corollary4_probe,
    monomial,
    shifted_monomial,
    truncated_integral,
    verify_integral_equation,
    verify_witt,
    verify_witt_chi,
)
from .polyq import PolyQ
from .qnumbers import q_number, q_samples
from .report import VerificationReport
from .series import TruncSeries, series_div

__all__ = [
    "CycElem",
    "DirichletCharacter",
    "EulerianPoly",
    "IntegrandSpec",
    "LValue",
    "PadicResidue",
    "PolyQ",
    "TruncSeries",
    "UnitGroupStructure",
    "VerificationReport",
    "character_by_index",
    "chi_eulerian",
    "chi_eulerian_series_check",
    "chi_monomial",
    "corollary4_probe",
    "cyc_embed",
    "cyclotomic_polynomial",
    "embed_cyclotomic",
    "enumerate_characters",
    "eulerian_poly",
    "eulerian_series_coeff",
    "kernel_series_check",
    "l_eulerian",
    "mellin_term_check",
    "monomial",
    "padic_unit_root",
    "principal_character",
    "q_number",
    "q_samples",
    "series_div",
    "series_reference",
    "shifted_monomial",
    "truncated_integral",
    "unit_group",
    "verify_distribution",
    "verify_integral_equation",
    "verify_interpolation",
    "verify_witt",
    "verify_witt_chi",
    "weight_zero_euler",
    "weight_zero_genocchi",
    "witt_value",
]
