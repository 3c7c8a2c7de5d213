"""Command-line front end: computations, verification suites, table emission.

Exit codes: 0 all cases pass, 1 identity failure, 2 usage error (any flag
value rejected while parsing arguments), 3 precision/convergence failure.
"""
from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import lru_cache

from . import report as rep
from .characters import character_by_index, enumerate_characters
from .chi_eulerian import chi_eulerian
from .errors import QEulerError
from .eulerian import eulerian_poly
from .lfunction import l_eulerian
from .numtheory import is_prime, phi
from .padic_verify import chi_monomial, monomial, truncated_integral, MEASURES
from .serialize import parse_int_list, parse_q_list, render_l_value, render_rational, render_value
from .suites import SUITES, SuiteOptions, run_suite
from .tables import KINDS, TableOptions, build_table


def _checked(kind: str, parse, ok=None):
    """argparse type: ``parse`` the text, then require ``ok``; any failure is a usage error."""
    def convert(text: str):
        try:
            value = parse(text)
            if ok is None or ok(value):
                return value
        except (ValueError, ArithmeticError):
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {kind}")
    return convert


_POSITIVE_INT = _checked("a positive integer", int, lambda v: v > 0)


def _s_value(text: str) -> tuple[str, object]:
    """--s as its text (echoed in the output) and the exact s it names: a
    Fraction, or a (re, im) pair of them.  An s too large for a complex float
    is refused, since ``l_eulerian`` overflows on it."""
    parts = parse_q_list(text)
    if len(parts) not in (1, 2):
        raise ValueError(f"{text!r} has {len(parts)} parts")
    complex(*parts)
    return text, parts[0] if len(parts) == 1 else tuple(parts)


_COMMON = {
    "n": dict(type=int),
    "max-n": dict(type=int),
    "modulus": dict(type=_checked("an odd positive modulus", int, lambda d: d > 0 and d % 2 == 1)),
    "char": dict(type=int),
    "q": dict(type=_checked("a comma list of rationals", parse_q_list), help="comma list of rationals a/b"),
    "p": dict(type=_checked("a comma list of odd primes", parse_int_list,
                            lambda ps: all(p > 2 and is_prime(p) for p in ps)), help="comma list of odd primes"),
    "precision": dict(type=_POSITIVE_INT, help="p-adic precision k"),
    "bits": dict(type=_checked("an integer >= 64", int, lambda v: v >= 64)),
    "levels": dict(type=_checked("a comma list of positive integers", parse_int_list,
                                 lambda ns: all(n > 0 for n in ns)), help="comma list of levels N"),
    "variant": dict(choices=("printed", "corrected")),
    "out": dict(type=str),
}


# (command, subcommand) -> (help of the command, the common flags it reads besides --out)
_COMMANDS = {
    ("eulerian", "classical"): ("classical and character-attached values", ("n",)),
    ("eulerian", "chi"): ("classical and character-attached values", ("n", "modulus", "char", "q")),
    ("chars", "list"): ("character enumeration and conductors", ("modulus",)),
    ("chars", "conductor"): ("character enumeration and conductors", ("modulus", "char")),
    ("verify", "suite"): ("run a verification suite", ("max-n", "modulus", "char", "q", "p", "precision",
                                                       "bits", "levels", "variant")),
    ("lfunction", "eval"): ("numeric L-values", ("modulus", "char", "q", "bits")),
    ("padic", "integral"): ("truncated fermionic integrals",
                            ("n", "modulus", "char", "q", "p", "precision", "levels")),
    ("emit", "table"): ("emit value tables", ("max-n", "modulus", "char", "q", "bits")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qeuler")
    sub = parser.add_subparsers(dest="command", required=True)
    groups, leaves = {}, {}
    for (command, subcommand), (help_text, _) in _COMMANDS.items():
        if command not in groups:
            group = sub.add_parser(command, help=help_text)
            groups[command] = group.add_subparsers(dest="subcommand", required=True)
        leaves[command, subcommand] = groups[command].add_parser(subcommand, allow_abbrev=False)

    leaves["verify", "suite"].add_argument("--name", required=True, choices=sorted(SUITES))
    leaves["lfunction", "eval"].add_argument("--s", type=_checked("a rational s or re,im", _s_value),
                                             required=True, help="rational s, or re,im")
    leaves["padic", "integral"].add_argument("--measure", choices=MEASURES, default="-q^-1")
    leaves["emit", "table"].add_argument("--kind", required=True, choices=KINDS)
    for key, (_, flags) in _COMMANDS.items():
        for flag in (*flags, "out"):
            leaves[key].add_argument(f"--{flag}", default=None, **_COMMON[flag])
    for key in (("verify", "suite"), ("emit", "table")):  # the only commands that read --format
        leaves[key].add_argument("--format", choices=("json", "csv"), default="json")
    return parser


_parser = lru_cache(maxsize=1)(build_parser)


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _n(parser, args) -> int:
    n = args.n if args.n is not None else 0
    if n < 0:
        parser.error("--n must be >= 0")
    return n


def _single(parser, args, flag: str, default):
    """The one value of a comma-list flag on a command that takes a single value."""
    values = getattr(args, flag)
    if values and len(values) > 1:
        parser.error(f"--{flag} takes one value here, got {len(values)}")
    return values[0] if values else default


def _char_index(parser, args, moduli: list[int]) -> int | None:
    for d in moduli:
        if args.char is not None and not 0 <= args.char < phi(d):
            parser.error(f"char index {args.char} out of range for modulus {d}")
    return args.char


def _override(opts, **flags):
    """Set each option whose flag value is not None."""
    for name, value in flags.items():
        if value is not None:
            setattr(opts, name, value)
    return opts


def _suite_options(parser, args) -> SuiteOptions:
    opts = _override(SuiteOptions(), q_list=args.q or None, p_list=args.p or None,
                     levels=args.levels or None, precision=args.precision, bits=args.bits,
                     variant=args.variant, max_n=args.max_n,
                     moduli=None if args.modulus is None else [args.modulus])
    opts.char_index = _char_index(parser, args, opts.moduli)
    return opts


def _character(parser, args, default_modulus=3):
    modulus = args.modulus if args.modulus is not None else default_modulus
    return character_by_index(modulus, _char_index(parser, args, [modulus]) or 0)


def _joined_values(argv: list[str]) -> list[str]:
    """argv with --s, --q and --measure joined to the token after them, as --s=<token>,
    so that a value such as -1/2,1 or -q, which argparse would take for an option, parses."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in ("--s", "--q", "--measure"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = _parser()  # built on the first call; parsing leaves it unchanged
    args = parser.parse_args(_joined_values(sys.argv[1:] if argv is None else argv))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # exact values print in full, past Python's 4,300-digit default
    try:
        return _dispatch(parser, args)
    except QEulerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return rep.EXIT_PRECISION
    finally:
        sys.set_int_max_str_digits(limit)


def _dispatch(parser, args) -> int:
    if args.command == "eulerian" and args.subcommand == "classical":
        coeffs = eulerian_poly(_n(parser, args)).coeffs
        _write(",".join(map(str, coeffs)) + "\n", args.out)
        return rep.EXIT_OK

    if args.command == "eulerian" and args.subcommand == "chi":
        chi = _character(parser, args)
        q = _single(parser, args, "q", Fraction(2))
        value = chi_eulerian(_n(parser, args), chi, q)
        _write(render_value(value) + "\n", args.out)
        return rep.EXIT_OK

    if args.command == "chars" and args.subcommand == "list":
        modulus = args.modulus if args.modulus is not None else 3
        _write(rep.json_lines({
            "name": chi.label, "modulus": modulus, "index": k,
            "exponents": list(chi.exponents), "order": chi.order,
            "value_order": chi.order, "conductor": chi.conductor(),
        } for k, chi in enumerate(enumerate_characters(modulus))), args.out)
        return rep.EXIT_OK

    if args.command == "chars" and args.subcommand == "conductor":
        chi = _character(parser, args)
        _write(f"{chi.conductor()}\n", args.out)
        return rep.EXIT_OK

    if args.command == "verify":
        opts = _suite_options(parser, args)
        reports = run_suite(args.name, opts)
        if not reports:
            print(f"note: suite {args.name} ran no case: no case matched the flags", file=sys.stderr)
        _write((rep.dump_csv if args.format == "csv" else rep.dump_json_lines)(reports), args.out)
        return rep.exit_code(reports)

    if args.command == "lfunction":
        chi = _character(parser, args)
        s_text, s = args.s
        q = _single(parser, args, "q", Fraction(2))
        bits = args.bits if args.bits is not None else 128
        lv = l_eulerian(s, chi, q, bits)
        _write(rep.json_lines([{
            "s": s_text, "char": chi.label, "q": render_rational(q), "bits": bits,
            **render_l_value(lv), "terms": lv.terms, "method": lv.method,
        }]), args.out)
        return rep.EXIT_OK

    if args.command == "padic":
        p = _single(parser, args, "p", 5)
        q = _single(parser, args, "q", Fraction(1 + p))
        k = args.precision if args.precision is not None else 3
        n = _n(parser, args)
        levels = args.levels or [k + 3]
        if args.modulus is not None:
            f = chi_monomial(_character(parser, args), n)
        else:
            f = monomial(n)
        values = [(N, truncated_integral(f, p, q, args.measure, N, k)) for N in levels]
        _write(rep.json_lines({
            "integrand": f.describe(), "measure": args.measure, "p": p,
            "q": render_rational(q), "k": k, "N": N,
            "residue": value.residue, "modulus": value.modulus,
        } for N, value in values), args.out)
        return rep.EXIT_OK

    if args.command == "emit":
        opts = _override(TableOptions(kind=args.kind), modulus=args.modulus, q_list=args.q or None,
                         bits=args.bits, max_n=args.max_n)
        opts.char_index = _char_index(parser, args, [opts.modulus])
        header, rows = build_table(opts)
        _write(rep.render_table(header, rows, args.format), args.out)
        return rep.EXIT_OK

    parser.error("unknown command")


if __name__ == "__main__":
    sys.exit(main())
