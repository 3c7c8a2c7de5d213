"""Verification suites: named grids of identity checks emitting reports.

Suite names are stable CLI keys.  Unless the caller overrides them, grids
default to n <= 4, moduli {1, 3, 5}, q in {2, 3}, p in {3, 5}, k = 3,
bits = 128, levels 1..k+3 — sized to finish in well under a minute.

Each suite is a grid of cases run by ``_case``, one report per grid point,
plus an adapter per metric kind.  The eq12, eq13, eq16 and interpolation
suites hold one ``ClassEngine`` per (modulus, q) for the call (``_class_grid``):
its chi-free work, the closed forms' class pass and each check's set-up, is
formed once, when a case first needs it, and every character and n of the grid
reads it, so that work is timed in the elapsed_ms of the first case that needs it.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import product

from .characters import character_by_index, enumerate_characters
from .chi_eulerian import ClassEngine, _distribution_case, _kernel_case, _series_case
from .errors import QEulerError
from .eulerian import eulerian_poly, eulerian_series_coeff
from .lfunction import _interpolation_case, mellin_term_check
from .padic import valuation
from .padic_verify import (
    admissible_modulus,
    congruent_to_one,
    corollary4_min_precision,
    corollary4_probe,
    monomial,
    verify_integral_equation,
    verify_witt,
    verify_witt_chi,
)
from .report import FAIL, INCONCLUSIVE, PASS, VerificationReport, sort_reports
from .serialize import render_rational, render_value

from mpmath import mp


@dataclass
class SuiteOptions:
    max_n: int = 4
    moduli: list[int] = field(default_factory=lambda: [1, 3, 5])
    q_list: list[Fraction] = field(default_factory=lambda: [Fraction(2), Fraction(3)])
    p_list: list[int] = field(default_factory=lambda: [3, 5])
    precision: int = 3
    bits: int = 128
    levels: list[int] | None = None
    variant: str = "corrected"
    char_index: int | None = None

    def level_list(self) -> list[int]:
        return self.levels if self.levels else list(range(1, self.precision + 4))


def _char_grid(opts: SuiteOptions, *axes):
    """(d, chi, *rest) over the moduli, their characters and the product of ``axes``."""
    for d in opts.moduli:
        for chi in enumerate_characters(d) if opts.char_index is None else [character_by_index(d, opts.char_index)]:
            for rest in product(*axes):
                yield (d, chi, *rest)


def _class_grid(opts: SuiteOptions, check, *args):
    """(chi, n, q, the case's check) over the character grid, n <= max_n and the q list, the check being
    check(engine, n, chi, *args) with one ``ClassEngine`` per (modulus, q), shared by its cases in this call."""
    engines: dict = {}
    for d, chi, n, q in _char_grid(opts, range(opts.max_n + 1), opts.q_list):
        if (d, q) not in engines:
            engines[d, q] = ClassEngine(d, q, range(opts.max_n + 1))
        yield chi, n, q, partial(check, engines[d, q], n, chi, *args)


def _chi_padic_grid(opts: SuiteOptions):
    """(d, chi, p, q, n) over the admissible (modulus, p) pairs and q = 1 mod p."""
    for d, chi, p in _char_grid(opts, opts.p_list):
        if admissible_modulus(d, p):
            for q in _padic_q_list(opts, p):
                for n in range(opts.max_n + 1):
                    yield d, chi, p, q, n


def _padic_q_list(opts: SuiteOptions, p: int) -> list[Fraction]:
    """q values congruent to 1 mod p: the caller's list filtered, else 1+p, 1+2p."""
    usable = [q for q in opts.q_list if congruent_to_one(q, p)]
    return usable if usable else [Fraction(1 + p), Fraction(1 + 2 * p)]


def _char_params(chi, **params) -> dict:
    return {"modulus": chi.modulus, "char": chi.label, "char_exponents": list(chi.exponents),
            **params}


def _case(identity: str, params: dict, check, adapt, variant: str = "n/a") -> VerificationReport:
    """Run one timed check and turn its result into the case's one report.

    ``adapt`` maps the result to the report's fields (status, lhs, rhs,
    metric, and optionally extra and params to add).  A QEulerError from the
    check becomes an inconclusive report that names it, so the other cases
    of the grid still run.
    """
    start = time.perf_counter()
    try:
        result = check()
    except QEulerError as exc:
        row = _error(str(exc))
    else:
        row = adapt(result)
    return VerificationReport(identity, {**params, **row.pop("params", {})}, variant=variant,
                              elapsed_ms=int((time.perf_counter() - start) * 1000), **row)


def _status(ok: bool) -> str:
    return PASS if ok else FAIL


# Report adapters, one per metric kind.

def _exact_abs_error(lhs: Fraction, rhs: Fraction) -> dict:
    err = abs(lhs - rhs)
    return {"status": _status(err == 0), "lhs": render_rational(lhs), "rhs": render_rational(rhs),
            "metric": {"kind": "abs_error", "error": render_rational(err), "bound": "0/1"}}


def _numeric_abs_error(result, bits: int, **params) -> dict:
    """Every numeric row, rounded at the case's bits: lhs and rhs to 30 digits,
    error |lhs - rhs| and bound to 12."""
    with mp.workprec(bits):
        return {"status": _status(result.passed), "lhs": mp.nstr(mp.mpc(result.lhs), 30),
                "rhs": mp.nstr(mp.mpc(result.rhs), 30),
                "metric": {"kind": "abs_error", "error": mp.nstr(mp.fabs(result.lhs - result.rhs), 12),
                           "bound": mp.nstr(result.bound, 12)}, "params": params}


def _padic_valuation(status: str, lhs, rhs, target: int, extra: dict | None = None,
                     **valuations) -> dict:
    return {"status": status, "lhs": str(lhs), "rhs": str(rhs),
            "metric": {"kind": "padic_valuation", **valuations, "target": target},
            "extra": extra or {}}


def _error(message: str) -> dict:
    return {"status": INCONCLUSIVE, "lhs": "", "rhs": "",
            "metric": {"kind": "error", "error": message}}


def _sign_sample_points(count: int) -> list[Fraction]:
    points = [Fraction(0), Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(5, 3)]
    k = 2
    while len(points) < count:
        for cand in (Fraction(k), Fraction(-k)):
            if cand not in points and cand != 1:
                points.append(cand)
        k += 1
    return points[:count]


def _sign_pair(n: int, x0: Fraction) -> tuple[Fraction, Fraction]:
    return eulerian_series_coeff(n, x0), Fraction((-1) ** n) * eulerian_poly(n).evaluate(x0)


def suite_eq19_vs_eq20(opts: SuiteOptions) -> list[VerificationReport]:
    """Sign reconciliation between the series engine and the recurrence engine."""
    return [_case("eq19-vs-eq20", {"n": n, "x0": render_rational(x0)},
                  partial(_sign_pair, n, x0), lambda pair: _exact_abs_error(*pair))
            for n in range(opts.max_n + 1) for x0 in _sign_sample_points(n + 1)]


def _series_suite(opts: SuiteOptions, check, identity: str, form: str) -> list[VerificationReport]:
    return [_case(identity, _char_params(chi, n=n, q=render_rational(q), bits=opts.bits), case,
                  lambda result: _numeric_abs_error(result, opts.bits, terms=result.terms, form=form))
            for chi, n, q, case in _class_grid(opts, check, opts.bits)]


def suite_eq12_series(opts: SuiteOptions) -> list[VerificationReport]:
    """Recurrence values against the full geometric kernel expansion (m >= 0)."""
    return _series_suite(opts, _kernel_case, "eq12-series", "m>=0")


def suite_eq13_series(opts: SuiteOptions) -> list[VerificationReport]:
    """Recurrence values against the m >= 1 alternating character series."""
    return _series_suite(opts, _series_case, "eq13-series", "m>=1")


def suite_eq16_distribution(opts: SuiteOptions) -> list[VerificationReport]:
    def exact(s):
        """The exact-kind adapter for the one q sample of a case."""
        return {"status": _status(s.ok and s.genocchi_ok),
                "lhs": render_value(s.lhs_corrected if opts.variant == "corrected" else s.lhs_printed),
                "rhs": render_value(s.rhs_euler),
                "metric": {"kind": "exact", "equal": s.ok, "genocchi_equal": s.genocchi_ok},
                "extra": {"ratio": render_rational(s.ratio) if s.ratio is not None else None}}

    return [_case("eq16-distribution", _char_params(chi, n=n, q=render_rational(q)), case, exact, opts.variant)
            for chi, n, q, case in _class_grid(opts, _distribution_case, opts.variant)]


def _witt_fields(result, extra: dict | None = None) -> dict:
    return _padic_valuation(_status(result.passed), result.integral.residue,
                            result.reference.residue, result.precision, extra,
                            valuation=valuation(result.integral.residue - result.reference.residue,
                                                result.prime, result.precision))


def suite_witt(opts: SuiteOptions) -> list[VerificationReport]:
    level = max(opts.level_list())
    return [_case("witt", {"n": n, "p": p, "q": render_rational(q), "k": opts.precision, "N": level},
                  partial(verify_witt, n, p, q, opts.precision, level), _witt_fields)
            for p in opts.p_list for q in _padic_q_list(opts, p) for n in range(opts.max_n + 1)]


def suite_witt_chi(opts: SuiteOptions) -> list[VerificationReport]:
    level = max(opts.level_list())
    return [_case("witt-chi", _char_params(chi, n=n, p=p, q=render_rational(q),
                                           k=opts.precision, N=level),
                  partial(verify_witt_chi, n, chi, p, q, opts.precision, level, opts.variant),
                  lambda result: _witt_fields(result, {"ratio_vs_printed": result.ratio}),
                  opts.variant)
            for d, chi, p, q, n in _chi_padic_grid(opts)]


def suite_integral_eq(opts: SuiteOptions) -> list[VerificationReport]:
    cases = [
        (4, monomial(1), 2),
        (5, monomial(1), 3),
        (6, monomial(1), 2),
        (7, monomial(2), 1),
        (8, monomial(2), 1),
        (7, monomial(0), 1),  # constant integrand: exact at every level
    ]
    levels = opts.level_list()

    def adapt(result):
        return dict(_padic_valuation(_status(result.passed), result.lhs_last, result.rhs,
                                     opts.precision, valuation=list(result.valuations)),
                    params={"levels": list(result.levels)})

    return [_case("integral-eq", {"eq": eq, "f": f.describe(), "shift": n, "p": p,
                                  "q": render_rational(q), "k": opts.precision},
                  partial(verify_integral_equation, eq, f, n, p, q, opts.precision, levels), adapt)
            for p in opts.p_list for q in _padic_q_list(opts, p) for eq, f, n in cases]


def _probe(n, chi, p, q, floor, levels):
    # the candidates differ by 2 S_A (q^2-1); raise k until
    # they separate mod p^k, else the probe is vacuous
    k = corollary4_min_precision(n, chi, p, q, floor)
    if k is None:
        raise QEulerError("candidate closed forms coincide mod p^k")
    if k > floor:
        levels = list(range(1, k + 4))
    return corollary4_probe(n, chi, p, q, k, levels), {"k": k, "levels": levels}


def _probe_fields(result, params: dict) -> dict:
    status = (PASS if result.converged_to == "2*S_A"
              else FAIL if result.converged_to == "2*q^2*S_A"
              else INCONCLUSIVE)
    return dict(_padic_valuation(
        status, result.sums[-1] if result.sums else "",
        f"2*S_A={result.candidate_plain}; 2*q^2*S_A={result.candidate_scaled}",
        result.precision, {"converged_to": result.converged_to},
        valuation_plain=list(result.val_plain), valuation_scaled=list(result.val_scaled)),
        params=params)


def suite_corollary4(opts: SuiteOptions) -> list[VerificationReport]:
    levels = opts.level_list()
    # the probed limit statement needs chi(0)*0^n = 0, so d = 1, n = 0 is left out
    return [_case("corollary4-probe", _char_params(chi, n=n, p=p, q=render_rational(q),
                                                   k=opts.precision, levels=levels),
                  partial(_probe, n, chi, p, q, opts.precision, levels),
                  lambda out: _probe_fields(*out))
            for d, chi, p, q, n in _chi_padic_grid(opts) if not (d == 1 and n == 0)]


def suite_interpolation(opts: SuiteOptions) -> list[VerificationReport]:
    return [_case("interpolation", _char_params(chi, n=n, q=render_rational(q), bits=opts.bits), case,
                  partial(_numeric_abs_error, bits=opts.bits))
            for chi, n, q, case in _class_grid(opts, _interpolation_case, opts.bits)]


MELLIN_CASES = ((Fraction(2), 1, Fraction(2)), (Fraction(1), 2, Fraction(1)),
                (Fraction(3, 2), 1, Fraction(2)))


def suite_mellin(opts: SuiteOptions) -> list[VerificationReport]:
    return [_case("mellin-term", {"s": render_rational(s), "m": m, "q": render_rational(q),
                                  "bits": opts.bits},
                  partial(mellin_term_check, s, m, q, opts.bits), partial(_numeric_abs_error, bits=opts.bits))
            for s, m, q in MELLIN_CASES]


SUITES = {
    "eq19-vs-eq20": suite_eq19_vs_eq20,
    "eq12-series": suite_eq12_series,
    "eq13-series": suite_eq13_series,
    "eq16-distribution": suite_eq16_distribution,
    "witt": suite_witt,
    "witt-chi": suite_witt_chi,
    "integral-eq": suite_integral_eq,
    "corollary4-probe": suite_corollary4,
    "interpolation": suite_interpolation,
    "mellin-term": suite_mellin,
}


def run_suite(name: str, opts: SuiteOptions) -> list[VerificationReport]:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    return sort_reports(SUITES[name](opts))
