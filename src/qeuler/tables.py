"""Rows of computed families of values, written by ``report.render_table``."""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .characters import enumerate_characters
from .chi_eulerian import chi_eulerian_columns, weight_zero_euler_values
from .eulerian import _rows
from .lfunction import l_eulerian
from .serialize import render_l_value, render_rational, render_value


KINDS = ("classical", "chi-eulerian", "weight-zero-euler", "l-values")


@dataclass
class TableOptions:
    kind: str
    max_n: int = 4
    modulus: int = 3
    char_index: int | None = None
    q_list: list[Fraction] = field(default_factory=lambda: [Fraction(2)])
    x_list: list[Fraction] = field(default_factory=lambda: [Fraction(0)])
    bits: int = 128


def _chars(opts: TableOptions):
    chars = enumerate_characters(opts.modulus)
    if opts.char_index is not None:
        return [chars[opts.char_index]]
    return chars


def build_table(opts: TableOptions) -> tuple[list[str], list[dict]]:
    """Header and rows for one table kind; empty n-range gives header only."""
    if opts.kind not in KINDS:
        raise ValueError(f"unknown table kind {opts.kind!r}")
    n_range = range(0, opts.max_n + 1)
    rows: list[dict] = []
    if opts.kind == "classical":
        header = ["n", "coefficients"]
        for n, coeffs in zip(n_range, _rows()):
            rows.append({"n": n, "coefficients": ",".join(map(str, coeffs))})
        return header, rows
    if opts.kind == "chi-eulerian":
        header = ["n", "modulus", "char", "q", "value"]
        # one class pass per q serves every chi; built only for a non-empty n range, so a pole q there stays no error
        chars = _chars(opts)
        passes = [chi_eulerian_columns(n_range, chars, q) for q in opts.q_list] if n_range else []
        columns = [(chi, q, values[c]) for c, chi in enumerate(chars) for q, values in zip(opts.q_list, passes)]
        for n in n_range:
            for chi, q, values in columns:
                rows.append({"n": n, "modulus": opts.modulus, "char": chi.index,
                             "q": render_rational(q), "value": render_value(values[n])})
        return header, rows
    if opts.kind == "weight-zero-euler":
        header = ["n", "q", "x", "value"]
        # one E~ row per (q, x), built only for a non-empty n range, so q = -1 there stays no error
        columns = [(q, x, weight_zero_euler_values(opts.max_n, q, x))
                   for q in opts.q_list for x in opts.x_list] if n_range else []
        for n in n_range:
            for q, x, values in columns:
                rows.append({"n": n, "q": render_rational(q), "x": render_rational(x),
                             "value": render_rational(values[n])})
        return header, rows
    header = ["s", "modulus", "char", "q", "bits", "value_re", "value_im", "tail_bound"]
    for n in n_range:
        for chi in _chars(opts):
            for q in opts.q_list:
                rows.append({
                    "s": -n, "modulus": opts.modulus, "char": chi.index,
                    "q": render_rational(q), "bits": opts.bits,
                    **render_l_value(l_eulerian(-n, chi, q, opts.bits)),
                })
    return header, rows
