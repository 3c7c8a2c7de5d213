"""Lossless rendering and parsing of exact values for reports and tables.

Rationals render as canonical fraction strings ("-4/1"); cyclotomic elements
with a nonrational coordinate render as a coefficient vector tagged with the
field, e.g. "[(-4/1),(0/1)]@zeta6".  Decimals appear only where a bit
precision is stated alongside.
"""
from __future__ import annotations

import re
from fractions import Fraction

from mpmath import mp

from .cyclotomic import CycElem

_CYC_RE = re.compile(r"^\[(.*)\]@zeta(\d+)$")


def render_rational(x) -> str:
    fr = Fraction(x)
    return f"{fr.numerator}/{fr.denominator}"


def parse_rational(text: str) -> Fraction:
    return Fraction(text.strip())


def render_value(value) -> str:
    """Exact string for a Fraction or CycElem; rational values collapse to fractions."""
    if isinstance(value, CycElem):
        if value.is_rational:
            return render_rational(value.to_rational())
        body = ",".join(f"({c.numerator}/{c.denominator})" for c in value.coeffs)
        return f"[{body}]@zeta{value.order}"
    return render_rational(value)


def parse_value(text: str):
    text = text.strip()
    match = _CYC_RE.match(text)
    if not match:
        return parse_rational(text)
    body, order = match.group(1), int(match.group(2))
    coeffs = [Fraction(part) for part in re.findall(r"\(([^()]*)\)", body)]
    return CycElem(order, coeffs)


def decimal_digits(bits: int) -> int:
    return int(bits * 0.30103) + 6


def render_complex(value, bits: int) -> tuple[str, str]:
    digits = decimal_digits(bits)
    with mp.workprec(bits + 16):
        v = mp.mpc(value)
        return (mp.nstr(v.real, digits, strip_zeros=False),
                mp.nstr(v.imag, digits, strip_zeros=False))


def parse_q_list(text: str) -> list[Fraction]:
    return [parse_rational(part) for part in text.split(",") if part.strip()]


def parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]
