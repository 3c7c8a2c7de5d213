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
from .errors import DomainError

_CYC_RE = re.compile(r"^\[(.*)\]@zeta(\d+)$")
MAX_PLACE = 100_000  # the farthest decimal place 10^-k to which an L-value is printed


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


def _digits(x: int) -> int:
    """len(str(x)) for an integer x >= 0, counted without str, which refuses
    integers of more than 4,300 digits."""
    d = max(1, int(x.bit_length() * 0.30102999566398120))  # never above the count
    while x >= 10**d:
        d += 1
    return d


def _dyadic(x) -> tuple[int, int]:
    """An mpf as integers (numerator, denominator), the denominator a power of two."""
    sign, man, exp, _ = x._mpf_
    return (-man if sign else man) << max(exp, 0), 1 << max(-exp, 0)


def _rounded(num: int, den: int, place: int) -> int:
    """round(num / den * 10^place), ties to even, in integers."""
    num, den = num * 10 ** max(place, 0), den * 10 ** max(-place, 0)
    q, r = divmod(num, den)
    return q + (2 * r > den or 2 * r == den and q & 1)


def render_l_value(lv) -> dict[str, str]:
    """``value_re``, ``value_im`` and ``tail_bound`` of an ``LValue`` as decimal strings.

    Each part of the value is rounded to the decimal place 10^-k, k the
    smallest with 10^-k <= tail_bound (which is below 1), and to at most
    ``decimal_digits(bits)`` significant digits.  So the last printed digit is
    the first that the bound leaves uncertain, and no digit below it is printed.
    An L-value whose place k is above ``MAX_PLACE`` raises ``DomainError``.
    """
    with mp.workprec(64):
        k = int(mp.ceil(-mp.log10(lv.tail_bound)))  # within one of k, without building 1 / bound
    if k <= MAX_PLACE + 1:
        num, den = _dyadic(lv.tail_bound)
        k = _digits(-(-den // num) - 1)  # smallest k with 10^k >= ceil(1 / bound)
    if k > MAX_PLACE:
        raise DomainError(f"the L-value's certified decimal place 10^-{k} lies past 10^-{MAX_PLACE}: "
                          "too far out to print")
    row = {}
    for key, part in (("value_re", lv.value.real), ("value_im", lv.value.imag)):
        num, den = _dyadic(part)
        place = k - max(0, _digits(abs(_rounded(num, den, k))) - decimal_digits(lv.bits))
        row[key] = format(Decimal(f"{_rounded(num, den, place)}e{-place}"), "f")
    with mp.workprec(64):
        row["tail_bound"] = mp.nstr(mp.mpf(lv.tail_bound), 10)
    return row


def parse_q_list(text: str) -> list[Fraction]:
    return [parse_rational(part) for part in text.split(",") if part.strip()]


def parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]
