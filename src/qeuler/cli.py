"""Command-line front end: computations, verification suites, table emission.

Exit codes: 0 all cases pass, 1 identity failure, 2 usage error (any flag
value rejected while parsing arguments), 3 precision/convergence failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from . import report as rep
from .characters import character_by_index, enumerate_characters
from .chi_eulerian import chi_eulerian
from .errors import QEulerError
from .eulerian import eulerian_poly
from .lfunction import l_eulerian
from .numtheory import is_prime, phi
from .padic_verify import chi_monomial, monomial, truncated_integral, MEASURES
from .serialize import parse_int_list, parse_q_list, render_complex, render_rational, render_value
from .suites import SUITES, SuiteOptions, run_suite
from .tables import KINDS, TableOptions, build_table, render_table

from mpmath import mp


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


def _s_value(text: str) -> tuple[str, complex]:
    """--s as its text (echoed in the output) and the complex s it names."""
    parts = parse_q_list(text)
    if len(parts) not in (1, 2):
        raise ValueError(f"{text!r} has {len(parts)} parts")
    return text, complex(*parts)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--max-n", type=int, default=None)
    parser.add_argument("--modulus", type=_checked("an odd positive modulus", int,
                                                   lambda d: d > 0 and d % 2 == 1), default=None)
    parser.add_argument("--char", type=int, default=None)
    parser.add_argument("--q", type=_checked("a comma list of rationals", parse_q_list),
                        default=None, help="comma list of rationals a/b")
    parser.add_argument("--p", type=_checked("a comma list of odd primes", parse_int_list,
                                             lambda ps: all(p > 2 and is_prime(p) for p in ps)),
                        default=None, help="comma list of odd primes")
    parser.add_argument("--precision", type=_POSITIVE_INT, default=None, help="p-adic precision k")
    parser.add_argument("--bits", type=_checked("an integer >= 64", int, lambda v: v >= 64),
                        default=None)
    parser.add_argument("--levels", type=_checked("a comma list of positive integers", parse_int_list,
                                                  lambda ns: all(n > 0 for n in ns)),
                        default=None, help="comma list of levels N")
    parser.add_argument("--variant", choices=("printed", "corrected"), default=None)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", type=str, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qeuler")
    sub = parser.add_subparsers(dest="command", required=True)

    eulerian = sub.add_parser("eulerian", help="classical and character-attached values")
    eulerian_sub = eulerian.add_subparsers(dest="subcommand", required=True)
    classical = eulerian_sub.add_parser("classical")
    _add_common(classical)
    chi = eulerian_sub.add_parser("chi")
    _add_common(chi)

    chars = sub.add_parser("chars", help="character enumeration and conductors")
    chars_sub = chars.add_subparsers(dest="subcommand", required=True)
    chars_list = chars_sub.add_parser("list")
    _add_common(chars_list)
    chars_cond = chars_sub.add_parser("conductor")
    _add_common(chars_cond)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify_sub = verify.add_subparsers(dest="subcommand", required=True)
    suite = verify_sub.add_parser("suite")
    suite.add_argument("--name", required=True, choices=sorted(SUITES))
    _add_common(suite)

    lfun = sub.add_parser("lfunction", help="numeric L-values")
    lfun_sub = lfun.add_subparsers(dest="subcommand", required=True)
    lfun_eval = lfun_sub.add_parser("eval")
    lfun_eval.add_argument("--s", type=_checked("a rational s or re,im", _s_value),
                           required=True, help="rational s, or re,im")
    _add_common(lfun_eval)

    padic = sub.add_parser("padic", help="truncated fermionic integrals")
    padic_sub = padic.add_subparsers(dest="subcommand", required=True)
    integral = padic_sub.add_parser("integral")
    integral.add_argument("--measure", choices=MEASURES, default="-q^-1")
    _add_common(integral)

    emit = sub.add_parser("emit", help="emit value tables")
    emit_sub = emit.add_subparsers(dest="subcommand", required=True)
    table = emit_sub.add_parser("table")
    table.add_argument("--kind", required=True, choices=KINDS)
    _add_common(table)

    return parser


_parser = cache(build_parser)


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _n(parser, args, default: int = 0) -> int:
    n = args.n if args.n is not None else default
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
                     variant=args.variant, max_n=args.n if args.max_n is None else args.max_n,
                     moduli=None if args.modulus is None else [args.modulus])
    opts.char_index = _char_index(parser, args, opts.moduli)
    return opts


def _character(parser, args, default_modulus=3):
    modulus = args.modulus if args.modulus is not None else default_modulus
    return character_by_index(modulus, _char_index(parser, args, [modulus]) or 0)


def _joined_values(argv: list[str]) -> list[str]:
    """argv with --s and --q joined to the token after them, as --s=<token>, so
    that a value such as -1/2,1, which argparse would take for an option, parses."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in ("--s", "--q"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = _parser()  # built on the first call; parsing leaves it unchanged
    args = parser.parse_args(_joined_values(sys.argv[1:] if argv is None else argv))
    try:
        return _dispatch(parser, args)
    except QEulerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return rep.EXIT_PRECISION


def _dispatch(parser, args) -> int:
    if args.command == "eulerian" and args.subcommand == "classical":
        coeffs = eulerian_poly(_n(parser, args, args.max_n or 0)).coeffs
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
        lines = []
        for k, chi in enumerate(enumerate_characters(modulus)):
            lines.append(json.dumps({
                "name": chi.label, "modulus": modulus, "index": k,
                "exponents": list(chi.exponents), "order": chi.order,
                "value_order": chi.order, "conductor": chi.conductor(),
            }, sort_keys=True))
        _write("\n".join(lines) + "\n", args.out)
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
        if args.format == "csv":
            _write(rep.dump_csv(reports), args.out)
        else:
            _write(rep.dump_json_lines(reports), args.out)
        return rep.exit_code(reports)

    if args.command == "lfunction":
        chi = _character(parser, args)
        s_text, s = args.s
        q = _single(parser, args, "q", Fraction(2))
        bits = args.bits if args.bits is not None else 128
        lv = l_eulerian(s, chi, q, bits)
        re_s, im_s = render_complex(lv.value, bits)
        with mp.workprec(64):
            tail = mp.nstr(mp.mpf(lv.tail_bound), 10)
        _write(json.dumps({
            "s": s_text, "char": chi.label, "q": render_rational(q), "bits": bits,
            "value_re": re_s, "value_im": im_s, "tail_bound": tail, "terms": lv.terms, "method": lv.method,
        }, sort_keys=True) + "\n", args.out)
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
        lines = []
        for N in levels:
            value = truncated_integral(f, p, q, args.measure, N, k)
            lines.append(json.dumps({
                "integrand": f.describe(), "measure": args.measure, "p": p,
                "q": render_rational(q), "k": k, "N": N,
                "residue": value.residue, "modulus": value.modulus,
            }, sort_keys=True))
        _write("\n".join(lines) + "\n", args.out)
        return rep.EXIT_OK

    if args.command == "emit":
        opts = _override(TableOptions(kind=args.kind), modulus=args.modulus, q_list=args.q or None,
                         bits=args.bits, max_n=args.n if args.max_n is None else args.max_n)
        opts.char_index = _char_index(parser, args, [opts.modulus])
        header, rows = build_table(opts)
        _write(render_table(header, rows, args.format), args.out)
        return rep.EXIT_OK

    parser.error("unknown command")
    return rep.EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
