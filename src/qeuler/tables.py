"""Table emission (json/csv) for computed families of values."""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .characters import enumerate_characters
from .chi_eulerian import chi_eulerian, weight_zero_euler_values
from .eulerian import eulerian_poly
from .lfunction import l_eulerian
from .serialize import render_complex, render_rational, render_value

from mpmath import mp

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
        for n in n_range:
            rows.append({"n": n, "coefficients": ",".join(map(str, eulerian_poly(n).coeffs))})
        return header, rows
    if opts.kind == "chi-eulerian":
        header = ["n", "modulus", "char", "q", "value"]
        for n in n_range:
            for chi in _chars(opts):
                for q in opts.q_list:
                    rows.append({
                        "n": n, "modulus": opts.modulus, "char": chi.index,
                        "q": render_rational(q),
                        "value": render_value(chi_eulerian(n, chi, q)),
                    })
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
                lv = l_eulerian(-n, chi, q, opts.bits)
                re_s, im_s = render_complex(lv.value, opts.bits)
                with mp.workprec(64):
                    tail = mp.nstr(mp.mpf(lv.tail_bound), 10)
                rows.append({
                    "s": -n, "modulus": opts.modulus, "char": chi.index,
                    "q": render_rational(q), "bits": opts.bits,
                    "value_re": re_s, "value_im": im_s, "tail_bound": tail,
                })
    return header, rows


def render_table(header: list[str], rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(rows, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=header)
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue()
    raise ValueError(f"unknown format {fmt!r}")
