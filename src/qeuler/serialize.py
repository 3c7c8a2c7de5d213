"""Lossless rendering and parsing of exact values for reports and tables.

Rationals render as canonical fraction strings ("-4/1"); cyclotomic elements
with a nonrational coordinate render as a coefficient vector tagged with the
field, e.g. "[(-4/1),(0/1)]@zeta6".  Decimals appear only where a bit
precision is stated alongside; L-values stop at the decimal place of their
certified tail bound.
"""
from __future__ import annotations

import re
from decimal import Decimal
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


def _exact(x) -> Fraction:
    """An mpf as the Fraction it equals."""
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * man * Fraction(2) ** exp


def render_l_value(lv) -> dict[str, str]:
    """``value_re``, ``value_im`` and ``tail_bound`` of an ``LValue`` as decimal strings.

    Each part of the value is rounded to the decimal place 10^-k, k the
    smallest with 10^-k <= tail_bound (which is below 1), and to at most
    ``decimal_digits(bits)`` significant digits.  So the last printed digit is
    the first that the bound leaves uncertain, and no digit below it is printed.
    """
    bound = _exact(lv.tail_bound)
    k = len(str(-(-bound.denominator // bound.numerator) - 1))  # smallest k with 10^k >= ceil(1 / bound)
    row = {}
    for key, part in (("value_re", lv.value.real), ("value_im", lv.value.imag)):
        x = _exact(part)
        place = k - max(0, len(str(abs(round(x * 10**k)))) - decimal_digits(lv.bits))
        row[key] = format(Decimal(f"{round(x * Fraction(10) ** place)}e{-place}"), "f")
    with mp.workprec(64):
        row["tail_bound"] = mp.nstr(mp.mpf(lv.tail_bound), 10)
    return row


def parse_q_list(text: str) -> list[Fraction]:
    return [parse_rational(part) for part in text.split(",") if part.strip()]


def parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]
