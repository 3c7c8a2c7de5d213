"""CLI surface: subcommands, exit codes, report streams, table round-trips."""
import argparse
import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from itertools import count
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp
from mpmath.libmp import from_man_exp

import qeuler
from qeuler.characters import character_by_index
from qeuler.chi_eulerian import chi_eulerian, weight_zero_euler
from qeuler.cli import build_parser, main
from qeuler.eulerian import eulerian_poly
from qeuler.suites import SUITES
from qeuler.tables import KINDS
from qeuler.lfunction import l_eulerian
from qeuler.padic_verify import MAX_WALK, MEASURES
from qeuler.report import exit_code
from qeuler.serialize import (MAX_PLACE, _digits, _dyadic, _rounded, decimal_digits, parse_rational, parse_value,
                              render_l_value, render_value)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestBasicCommands:
    def test_classical(self, capsys):
        code, out = run(capsys, "eulerian", "classical", "--n", "3")
        assert code == 0
        assert out.strip() == "1,4,1"

    def test_chi_value(self, capsys):
        code, out = run(capsys, "eulerian", "chi", "--n", "0", "--modulus", "3",
                        "--char", "1", "--q", "2")
        assert code == 0
        assert parse_rational(out.strip()) == -4

    def test_chars_list(self, capsys):
        code, out = run(capsys, "chars", "list", "--modulus", "5")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["order"] for r in rows] == [1, 4, 2, 4]
        assert rows[0]["name"] == "5.0"

    def test_conductor(self, capsys):
        code, out = run(capsys, "chars", "conductor", "--modulus", "9", "--char", "3")
        assert code == 0
        assert out.strip() == "3"

    def test_lfunction_eval(self, capsys):
        code, out = run(capsys, "lfunction", "eval", "--s", "0", "--modulus", "3",
                        "--char", "1", "--q", "2")
        assert code == 0
        row = json.loads(out)
        assert row["value_re"].startswith("-4.0")
        assert row["method"] == "partial-sum"

    def test_negative_values_of_s_and_q(self, capsys):
        # argparse takes a token such as -1/2,1 for an option; --s and --q read it as their value
        for s in ("-1/2,1", "-2,5"):
            flags = ["--modulus", "3", "--char", "1", "--q", "2"]
            spaced = run(capsys, "lfunction", "eval", "--s", s, *flags)
            assert spaced[0] == 0
            assert spaced == run(capsys, "lfunction", "eval", f"--s={s}", *flags)
        spaced = run(capsys, "emit", "table", "--kind", "weight-zero-euler", "--q", "-1/2")
        assert spaced[0] == 0
        assert spaced == run(capsys, "emit", "table", "--kind", "weight-zero-euler", "--q=-1/2")

    @pytest.mark.parametrize("s,exact", [("1/3", Fraction(1, 3)), ("1/10,14", (Fraction(1, 10), Fraction(14)))])
    def test_lfunction_eval_takes_s_exactly(self, capsys, s, exact):
        # 1/3 and 1/10 are not doubles; summed at the nearest double, the value is wrong
        # from the 17th digit, far above the 1.8e-39 tail bound
        code, out = run(capsys, "lfunction", "eval", "--s", s, "--modulus", "3", "--char", "1", "--q", "2")
        assert code == 0
        row = json.loads(out)
        chi = character_by_index(3, 1)
        want = render_l_value(l_eulerian(exact, chi, Fraction(2), 128))
        assert {key: row[key] for key in want} == want
        nearest_double = complex(*exact) if isinstance(exact, tuple) else complex(exact)
        assert render_l_value(l_eulerian(nearest_double, chi, Fraction(2), 128)) != want

    def test_lfunction_eval_at_q_one(self, capsys):
        # q = 1 is summed only for Re s > 0, by the Boole route, and within the work budget
        assert main(["lfunction", "eval", "--s", "0", "--q", "1"]) == 3
        assert "Re s > 0" in capsys.readouterr().err
        code, out = run(capsys, "lfunction", "eval", "--s", "1/2,14", "--q", "1")
        assert code == 0
        assert json.loads(out)["method"] == "boole"
        assert main(["lfunction", "eval", "--s", "1/2,100000", "--q", "1"]) == 3
        err = capsys.readouterr().err
        assert "no route fits the work budget of 524288 terms" in err and "Traceback" not in err

    def test_lfunction_eval_too_close_to_q_one(self, capsys):
        # no partial sum certifies its tail at q - 1 = 10^-21: the Boole route answers on both
        # sides of Re s = 0
        q = "1000000000000000000001/1000000000000000000000"
        for s, method in (("-1/2,1", "boole"), ("1/2,1", "boole")):
            code, out = run(capsys, "lfunction", "eval", f"--s={s}", "--q", q)
            assert code == 0
            assert json.loads(out)["method"] == method

    def test_lfunction_eval_near_q_one_at_negative_real_part(self, capsys):
        # the partial sum would take 262,144 terms here
        code, out = run(capsys, "lfunction", "eval", "--s", "-7/2,7", "--modulus", "7", "--char", "1",
                        "--q", "1001/1000", "--bits", "128")
        assert code == 0
        row = json.loads(out)
        assert row["method"] == "boole"
        assert row["terms"] < 5000

    def test_padic_integral(self, capsys):
        code, out = run(capsys, "padic", "integral", "--p", "5", "--q", "6", "--n", "1",
                        "--precision", "3", "--levels", "6")
        assert code == 0
        assert json.loads(out)["residue"] == 107

    @pytest.mark.parametrize("measure", MEASURES)
    def test_padic_integral_measure_spelled_apart(self, capsys, measure):
        # every measure starts with "-", which argparse would take for an option
        flags = ["padic", "integral", "--p", "5", "--q", "6", "--n", "1", "--levels", "6"]
        spaced = run(capsys, *flags, "--measure", measure)
        assert spaced[0] == 0
        assert json.loads(spaced[1])["measure"] == measure
        assert spaced == run(capsys, *flags, f"--measure={measure}")

    def test_padic_integral_modulus_prime_to_p(self, capsys):
        # d = 3 is prime to p = 5, so the period is lcm(25, 3) = 75 and each
        # block of the sum spans lcm(5, 3) = 15 values, not a power of p
        code, out = run(capsys, "padic", "integral", "--p", "5", "--q", "6", "--n", "2",
                        "--modulus", "3", "--char", "1", "--precision", "2", "--levels", "2")
        assert code == 0
        assert json.loads(out)["residue"] == 11

    def test_padic_integral_deep_levels(self, capsys):
        # the period of x mod 5^3 divides 5^3, so every level from 3 on gives the same residue
        code, out = run(capsys, "padic", "integral", "--p", "5", "--q", "6", "--n", "1",
                        "--levels", "3,6,20")
        assert code == 0
        assert [json.loads(line)["residue"] for line in out.splitlines()] == [107, 107, 107]


# Bad flag values: each is a usage error (exit 2) with a one-line message, never a traceback.
USAGE_PROBES = [
    "eulerian chi --n -1",
    "verify suite --name eq12-series --modulus 3 --char 9",
    "padic integral --p 4",
    "lfunction eval --s abc",
    "verify suite --name eq12-series --q abc",
    "verify suite --name witt --precision 0",
    "chars list --modulus 0",
    "chars list --modulus 4",
    # below 64 bits the numeric engines refuse to run
    "lfunction eval --s 2 --bits 8",
    "verify suite --name interpolation --modulus 3 --max-n 1 --bits 32",
    "verify suite --name eq13-series --modulus 3 --max-n 1 --bits 8",
    "emit table --kind l-values --max-n 1 --bits 8",
    # "q" is not a fermionic measure: its normalizer is never a p-adic unit
    "padic integral --measure q --p 5 --q 6 --n 1",
    # s too large for a float
    "lfunction eval --s 1e400",
    # commands that compute one value take one p and one q
    "padic integral --p 5,7 --q 11,16 --n 1",
    "padic integral --p 5 --q 6,11 --n 1",
    "lfunction eval --s 2 --q 2,3",
    "eulerian chi --n 1 --q 2,3",
]


# The common flags, each with a valid value, and the ones each command reads besides --out.
# verify suite reads all of them but --n; any other (command, flag) pair is a usage error.
COMMON_FLAGS = {"n": "1", "max-n": "1", "modulus": "3", "char": "0", "q": "2", "p": "5", "precision": "2",
                "bits": "64", "levels": "2", "variant": "printed"}
READ_FLAGS = {
    "eulerian classical": {"n"},
    "eulerian chi": {"n", "modulus", "char", "q"},
    "chars list": {"modulus"},
    "chars conductor": {"modulus", "char"},
    "lfunction eval --s 2": {"modulus", "char", "q", "bits"},
    "padic integral": {"n", "modulus", "char", "q", "p", "precision", "levels"},
    "emit table --kind classical": {"max-n", "modulus", "char", "q", "bits"},
    "verify suite --name witt": {"max-n", "modulus", "char", "q", "p", "precision", "bits", "levels",
                                 "variant"},
}
UNREAD_FLAGS = [(command, flag) for command, read in READ_FLAGS.items() for flag in COMMON_FLAGS
                if flag not in read]


class TestExitCodes:
    @pytest.mark.parametrize("probe", USAGE_PROBES)
    def test_bad_flag_value_is_usage_error(self, probe):
        env = dict(os.environ, PYTHONPATH=str(Path(qeuler.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-m", "qeuler.cli", *probe.split()],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr
        assert "error:" in done.stderr.strip().splitlines()[-1]

    @pytest.mark.parametrize("s", ["1e12", "1e300", "1e300,1", "-1e300"])
    def test_huge_real_part_of_s_is_a_precision_failure(self, s):
        # below Re s = -2^11 l_eulerian refuses s before summing; a huge Re s is summed, but its
        # value, about 3^-Re s, has its certified place far past MAX_PLACE: exit 3, one line
        env = dict(os.environ, PYTHONPATH=str(Path(qeuler.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-m", "qeuler.cli", "lfunction", "eval", f"--s={s}"],
                              capture_output=True, text=True, env=env, timeout=15)
        assert done.returncode == 3, done.stderr
        assert done.stdout == ""
        assert len(done.stderr.splitlines()) == 1
        if s.startswith("-"):
            assert done.stderr.startswith("error: s = ")
        else:
            assert re.fullmatch(rf"error: the L-value's certified decimal place 10\^-\d+ lies past "
                                rf"10\^-{MAX_PLACE}: too far out to print\n", done.stderr)

    def test_usage_error_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "suite", "--name", "no-such-suite"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_missing_subcommand_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["chars", "list"],
        ["lfunction", "eval", "--s", "2"],
        ["padic", "integral", "--n", "1"],
    ])
    def test_format_is_refused_where_it_is_not_read(self, capsys, argv):
        # only verify suite and emit table write csv; elsewhere --format is unknown
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--format", "csv"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err

    def test_the_readme_flag_table_is_what_the_parser_registers(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("| Command | Flags besides `--out` |\n|---|---|\n")[1].split("\n\n")[0]
        documented = {}
        for row in table.splitlines():
            command, flags = row.strip("|").split("|")
            documented[command.strip(" `")] = set(re.findall(r"`(--[a-z-]+)`", flags))

        def registered(parser):
            subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            return subparsers.choices

        found = {}
        for command, group in registered(build_parser()).items():
            for subcommand, leaf in registered(group).items():
                flags = {flag for action in leaf._actions for flag in action.option_strings}
                found[f"{command} {subcommand}"] = flags - {"-h", "--help", "--out"}
        assert documented == found

    @pytest.mark.parametrize("command,flag", UNREAD_FLAGS)
    def test_a_common_flag_is_refused_where_it_is_not_read(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main(command.split() + [f"--{flag}", COMMON_FLAGS[flag]])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err

    def test_identity_failure_is_1(self, capsys):
        code, out = run(capsys, "verify", "suite", "--name", "eq16-distribution",
                        "--variant", "printed", "--max-n", "2", "--modulus", "3", "--q", "2")
        assert code == 1
        rows = [json.loads(line) for line in out.splitlines()]
        assert all(r["status"] == "fail" for r in rows)
        assert all(r["ratio"] == "4/1" for r in rows)

    def test_precision_failure_is_3(self, capsys):
        # q <= 1 puts the series outside its convergence domain
        code, _ = run(capsys, "verify", "suite", "--name", "eq13-series",
                      "--max-n", "1", "--modulus", "3", "--q", "1")
        assert code == 3

    def test_pass_is_0(self, capsys):
        code, out = run(capsys, "verify", "suite", "--name", "interpolation",
                        "--max-n", "4", "--modulus", "3", "--q", "2")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 10
        assert all(r["status"] == "pass" for r in rows)


def _cli_process(*argv, timeout):
    """``python -m qeuler.cli argv`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(qeuler.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "qeuler.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


@contextlib.contextmanager
def _any_int_length():
    """Python's 4,300-digit limit on int-str conversion lifted, as ``main`` lifts it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


HUGE_Q = f"{10**200 + 1}/7"  # a^3 has 600 digits, so A_n(chi, -q) passes 4,300 digits by n = 8


class TestLongIntegers:
    """Exact values of more than 4,300 digits print in full, and L-values whose certified
    place lies past 10^-MAX_PLACE exit 3; no command ends in a traceback."""

    def test_classical_row_1700(self):
        done = _cli_process("eulerian", "classical", "--n", "1700", timeout=120)
        assert done.returncode == 0, done.stderr[-500:]
        row = done.stdout.strip().split(",")
        assert len(row) == 1700 and row == row[::-1]
        assert row[1] == str(2**1700 - 1701)  # <n,1> = 2^n - n - 1

    def test_chi_value_past_4300_digits(self):
        done = _cli_process("eulerian", "chi", "--n", "100", "--modulus", "5", "--char", "1",
                            "--q", "10000000001/7", timeout=60)
        assert done.returncode == 0, done.stderr[-500:]
        assert max(map(len, re.findall(r"\d+", done.stdout))) > 4300
        start = time.perf_counter()  # the value alone, away from interpreter start-up
        value = chi_eulerian(100, character_by_index(5, 1), Fraction(10000000001, 7))
        assert time.perf_counter() - start < 2
        with _any_int_length():
            assert parse_value(done.stdout) == value

    @pytest.mark.parametrize("argv", [
        ["emit", "table", "--kind", "chi-eulerian", "--max-n", "8", "--modulus", "3", "--char", "1"],
        ["verify", "suite", "--name", "eq16-distribution", "--max-n", "8", "--modulus", "3"],
    ])
    def test_writers_print_long_values_and_restore_the_limit(self, capsys, argv):
        limit = sys.get_int_max_str_digits()
        code, out = run(capsys, *argv, "--q", HUGE_Q)
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        assert max(map(len, re.findall(r"\d+", out))) > 4300

    @pytest.mark.parametrize("argv", [["--s", "14000"], ["--s", "1e5"], ["--s=-1500", "--q", "2"]])
    def test_l_value_with_long_digit_strings(self, argv):
        done = _cli_process("lfunction", "eval", *argv, timeout=60)
        assert done.returncode == 0, done.stderr[-500:]
        row = json.loads(done.stdout)
        assert max(len(row["value_re"]), len(row["value_im"])) > 4300

    def test_l_value_whose_place_is_too_far_out_exits_3(self):
        done = _cli_process("lfunction", "eval", "--s", "1e9", timeout=60)
        assert done.returncode == 3 and done.stdout == ""
        assert done.stderr.splitlines() == [
            f"error: the L-value's certified decimal place 10^-477121303 lies past 10^-{MAX_PLACE}: "
            "too far out to print"]

    @pytest.mark.parametrize("k", [0, 1, 2, 17, 4299, 4300, 4301, 20000])
    def test_digits_counts_like_str(self, k):
        with _any_int_length():
            for x in (0, 10**k - 1, 10**k, 10**k + 1, 2 * 10**k, 2 ** (3 * k + 1)):
                assert _digits(x) == len(str(x)), x

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("man, exp, place", [(1, -2, 1), (3, -2, 1), (1, -3, 2), (5, -4, 3),
                                                  (5, 0, -1), (15, 0, -1), (125, 2, -3), (625, 2, -3)])
    def test_integer_rounding_matches_round_on_exact_ties(self, sign, man, exp, place):
        x = sign * man * Fraction(2) ** exp
        assert (x * Fraction(10) ** place).denominator == 2  # exactly halfway between two integers
        num, den = _dyadic(mp.make_mpf(from_man_exp(sign * man, exp)))
        assert _rounded(num, den, place) == round(x * Fraction(10) ** place)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-2**70, 2**70), st.integers(-300, 300), st.integers(-40, 40))
    def test_integer_rounding_matches_round(self, man, exp, place):
        num, den = _dyadic(mp.make_mpf(from_man_exp(man, exp)))
        assert _rounded(num, den, place) == round(man * Fraction(2) ** exp * Fraction(10) ** place)


class TestSuiteStreams:
    @pytest.mark.parametrize("name", ["witt-chi", "corollary4-probe"])
    def test_modulus_not_a_power_of_p_is_skipped(self, capsys, name):
        # 15 does not divide 5^N, so the sums over eta < 5^N would miss whole periods of chi
        code, out = run(capsys, "verify", "suite", "--name", name, "--modulus", "15", "--p", "5",
                        "--max-n", "2", "--precision", "2", "--levels", "1,2,3,4,5")
        assert code == 0
        assert not [line for line in out.splitlines() if json.loads(line)["status"] == "fail"]

    @pytest.mark.parametrize("argv", [
        "verify suite --name eq19-vs-eq20 --max-n -1",
        "verify suite --name witt-chi --modulus 15 --p 5 --max-n 2 --precision 2",
    ])
    def test_empty_grid_is_a_vacuous_pass_with_a_note(self, capsys, argv):
        code = main(argv.split())
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert argv.split()[3] in lines[0] and "no case matched" in lines[0]

    def test_reports_sorted_and_deterministic(self, capsys):
        code1, out1 = run(capsys, "verify", "suite", "--name", "witt",
                          "--max-n", "2", "--p", "3", "--q", "4")
        code2, out2 = run(capsys, "verify", "suite", "--name", "witt",
                          "--max-n", "2", "--p", "3", "--q", "4")
        assert code1 == code2 == 0
        strip = lambda text: [
            {k: v for k, v in json.loads(line).items() if k != "elapsed_ms"}
            for line in text.splitlines()
        ]
        assert strip(out1) == strip(out2)
        keys = [json.dumps(r["params"], sort_keys=True) for r in strip(out1)]
        assert keys == sorted(keys)

    def test_witt_chi_reports_ratio(self, capsys):
        code, out = run(capsys, "verify", "suite", "--name", "witt-chi", "--max-n", "1",
                        "--modulus", "3", "--p", "3", "--q", "4", "--variant", "printed")
        assert code == 1
        rows = [json.loads(line) for line in out.splitlines()]
        ratios = [r["ratio_vs_printed"] for r in rows if r["ratio_vs_printed"] is not None]
        # measurable exactly when the integral residue is a unit mod p
        assert ratios and all(r == pow(4, 2, 27) for r in ratios)

    def test_corollary4_states_both_candidates(self, capsys):
        code, out = run(capsys, "verify", "suite", "--name", "corollary4-probe",
                        "--max-n", "1", "--modulus", "3", "--p", "3", "--q", "4")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows and all("2*S_A=" in r["rhs"] and "2*q^2*S_A=" in r["rhs"] for r in rows)
        assert all(r["converged_to"] == "2*S_A" for r in rows)

    def test_corollary4_unembeddable_orders_are_inconclusive(self, capsys):
        # orders 3 and 6 mod 9 do not divide p - 1 = 2: reported per case, as witt-chi does
        code, out = run(capsys, "verify", "suite", "--name", "corollary4-probe",
                        "--modulus", "9", "--p", "3")
        assert code == 3
        rows = [json.loads(line) for line in out.splitlines()]
        errors = [r for r in rows if r["status"] == "inconclusive"]
        assert len(rows) == 60 and len(errors) == 40
        assert all(r["status"] == "pass" for r in rows if r not in errors)
        assert all(r["metric"]["kind"] == "error"
                   and r["metric"]["error"].startswith("cannot embed Q(zeta_")
                   and r["metric"]["error"].endswith(") into residues mod 3^3") for r in errors)

    @pytest.mark.parametrize("argv, count, refused, bad_q, message", [
        # p = 7 walks 2 * 7^8 values, past the walk limit; p = 3 still fits
        ("witt --p 3,7 --precision 16 --max-n 1", 8, 4, None, "would walk 11529602 values"),
        ("eq13-series --q 2,1 --max-n 1 --modulus 3", 8, 4, "1/1", "needs q > 1"),
        ("eq16-distribution --q 2,-1 --max-n 1 --modulus 3", 8, 4, "-1/1", "q = -1 is excluded"),
        ("integral-eq --precision 99", 24, 24, None, "would walk"),
    ])
    def test_a_refused_case_is_its_own_inconclusive_report(self, capsys, argv, count, refused, bad_q,
                                                           message):
        code = main(["verify", "suite", "--name", *argv.split()])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == ""
        rows = [json.loads(line) for line in captured.out.splitlines()]
        errors = [r for r in rows if r["status"] == "inconclusive"]
        assert len(rows) == count and len(errors) == refused
        assert all(r["status"] == "pass" for r in rows if r not in errors)
        assert all(r["metric"]["kind"] == "error" and message in r["metric"]["error"]
                   and r["lhs"] == r["rhs"] == "" for r in errors)
        if bad_q is not None:
            assert {r["params"]["q"] for r in errors} == {bad_q}

    def test_a_fail_outranks_an_inconclusive_report(self, capsys):
        # the documented n = 0, modulus 1 boundary fail beside the q = 1 refusals
        code, out = run(capsys, "verify", "suite", "--name", "eq13-series", "--q", "2,1",
                        "--max-n", "1", "--modulus", "1")
        assert code == 1
        statuses = sorted(json.loads(line)["status"] for line in out.splitlines())
        assert statuses == ["fail", "inconclusive", "inconclusive", "pass"]

    def test_corollary4_precision_above_nine(self, capsys):
        code, out = run(capsys, "verify", "suite", "--name", "corollary4-probe",
                        "--modulus", "3", "--p", "3", "--max-n", "2", "--precision", "10")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 12
        assert all(r["status"] == "pass" and r["params"]["k"] >= 10 for r in rows)

    def test_csv_format(self, capsys):
        code, out = run(capsys, "verify", "suite", "--name", "mellin-term", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3
        assert all(r["status"] == "pass" for r in rows)


class TestTables:
    def test_classical_csv_roundtrip(self, capsys):
        code, out = run(capsys, "emit", "table", "--kind", "classical", "--max-n", "5",
                        "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 6
        assert rows[5]["coefficients"] == "1,26,66,26,1"
        for row in rows:
            n = int(row["n"])
            expected = ",".join(map(str, eulerian_poly(n).coeffs))
            assert row["coefficients"] == expected

    def test_chi_eulerian_json_roundtrip(self, capsys):
        code, out = run(capsys, "emit", "table", "--kind", "chi-eulerian", "--modulus", "3",
                        "--max-n", "1", "--q", "2", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        values = {(r["n"], r["char"]): r["value"] for r in rows}
        assert parse_value(values[(0, 1)]) == -4
        assert parse_value(values[(1, 1)]) == 12
        for row in rows:
            chi = character_by_index(row["modulus"], row["char"])
            recomputed = chi_eulerian(row["n"], chi, parse_rational(row["q"]))
            assert parse_value(row["value"]) == recomputed
            assert render_value(recomputed) == row["value"]

    def test_weight_zero_roundtrip(self, capsys):
        code, out = run(capsys, "emit", "table", "--kind", "weight-zero-euler",
                        "--max-n", "20", "--q", "2,7/2,-3,-7/3,-1/2,16384/4782969",
                        "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 21 * 6
        for row in rows:
            expected = weight_zero_euler(row["n"], parse_rational(row["q"]),
                                         parse_rational(row["x"]))
            assert parse_value(row["value"]) == expected

    def test_l_values_roundtrip_within_bits(self, capsys):
        code, out = run(capsys, "emit", "table", "--kind", "l-values", "--modulus", "3",
                        "--max-n", "2", "--q", "2", "--bits", "96", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows
        for row in rows:
            chi = character_by_index(row["modulus"], row["char"])
            lv = l_eulerian(row["s"], chi, parse_rational(row["q"]), row["bits"])
            with mp.workprec(row["bits"] + 16):
                parsed = mp.mpc(mp.mpf(row["value_re"]), mp.mpf(row["value_im"]))
                tol = 2 * lv.tail_bound + mp.mpf(2) ** (-row["bits"] + 12)
                assert mp.fabs(parsed - lv.value) <= tol

    def test_l_values_stop_at_the_tail_bound(self, capsys):
        # the last printed decimal place 10^-k is the largest with 10^-k <= tail_bound,
        # or a coarser one where the value already has decimal_digits(bits) digits
        code, table = run(capsys, "emit", "table", "--kind", "l-values", "--modulus", "3",
                          "--max-n", "3", "--q", "2", "--bits", "96", "--format", "json")
        assert code == 0
        code, out = run(capsys, "lfunction", "eval", "--s", "2,-3", "--modulus", "5", "--char", "1",
                        "--q", "11/10", "--bits", "96")
        assert code == 0
        rows = json.loads(table) + [json.loads(out)]
        assert len(rows) == 9
        for row in rows:
            bound = Fraction(row["tail_bound"])
            k_min = next(k for k in count() if Fraction(10) ** -k <= bound)
            for text in (row["value_re"], row["value_im"]):
                k = len(text.partition(".")[2])
                digits = len(text.lstrip("-").replace(".", "").lstrip("0"))
                assert k == k_min or (k < k_min and digits == decimal_digits(row["bits"])), (text, bound)

    def test_empty_range_header_only(self, capsys):
        code, out = run(capsys, "emit", "table", "--kind", "l-values", "--max-n", "-1",
                        "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("s,")

    @pytest.mark.parametrize("kind,q", [("weight-zero-euler", "-1"), ("chi-eulerian", "0")])
    def test_empty_weight_zero_range_ignores_the_pole(self, capsys, kind, q):
        code, out = run(capsys, "emit", "table", "--kind", kind, "--max-n", "-1", "--q", q)
        assert code == 0
        assert json.loads(out) == []

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "table.json"
        code, _ = run(capsys, "emit", "table", "--kind", "classical", "--max-n", "2",
                      "--format", "json", "--out", str(target))
        assert code == 0
        assert len(json.loads(target.read_text())) == 3

    def test_bad_char_index_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["emit", "table", "--kind", "chi-eulerian", "--modulus", "3", "--char", "7"])
        assert exc.value.code == 2
        capsys.readouterr()


# Generated command lines for the exit-code contract.  Each flag draws from
# valid values, values the parser must refuse and digit-free junk.
_JUNK = st.sampled_from(["", "0", "-1", "1/0", "2,", ",", "1e400", "nan", "inf", "1/3/4", "0x10",
                         "3.5", " 3", "1,2,3,4"]) | st.text(alphabet="abe/,.-+ ", max_size=5)
_FLAGS = {
    "--n": ["-1", "0", "1", "2", "3"],
    "--max-n": ["-1", "0", "1", "2"],
    "--modulus": ["1", "3", "5", "7", "9", "15", "4", "0"],
    "--char": ["0", "1", "2", "3", "-1", "9"],
    "--q": ["2", "7/2", "11/10", "1", "0", "-1", "-3", "6", "2,3", "1/2"],
    "--p": ["3", "5", "7", "2", "4", "3,5"],
    "--precision": ["1", "2", "3", "0", "40", "99"],
    "--bits": ["64", "96", "8"],
    "--levels": ["1", "3,4", "6", "0"],
    "--variant": ["printed", "corrected", "other"],
    "--format": ["json", "csv", "xml"],
    "--measure": list(MEASURES) + ["q"],
    "--s": ["0", "2", "-1", "1/2,14", "2,-3", "abc", "1e400", "1,2,3", "1e300", "-1e300", "3,40", "1/4,1", "1e12"],
}
_COMMANDS = st.one_of(
    st.sampled_from([["eulerian", "classical"], ["eulerian", "chi"], ["chars", "list"],
                     ["chars", "conductor"], ["padic", "integral"], ["lfunction", "eval"]]),
    st.sampled_from(sorted(SUITES)).map(lambda name: ["verify", "suite", "--name", name]),
    st.sampled_from(KINDS).map(lambda kind: ["emit", "table", "--kind", kind]),
)
_ARGV = st.tuples(_COMMANDS, st.lists(st.sampled_from(sorted(_FLAGS)).flatmap(
    lambda flag: st.tuples(st.just(flag), st.sampled_from(_FLAGS[flag]) | _JUNK)), max_size=4))


# Refused `verify suite` grids: every draw holds at least one case that its check
# refuses, and no case that fails.  Each draw is (argv after "verify suite",
# predicate on a row's params that says whether that case is refused).
def _q_grids(name, bad, good, moduli):
    """Grids of ``name`` whose q list holds a bad q; a case is refused iff its q is bad."""
    bad_q = {Fraction(q) for q in bad}
    return (st.tuples(st.lists(st.sampled_from(bad + good), min_size=1, max_size=3, unique=True)
                      .filter(lambda qs: set(qs) & set(bad)),
                      st.sampled_from(moduli), st.sampled_from(["0", "1"]))
            .map(lambda t: (["--name", name, "--q=" + ",".join(t[0]), "--modulus", t[1], "--max-n", t[2]],
                            lambda params: Fraction(params["q"]) in bad_q)))


def _walk_refused(params):
    p, k, N = params["p"], params["k"], params["N"]
    block, stop = p ** ((k + 1) // 2), p ** min(k, N)
    return min(block, stop) + stop // block > MAX_WALK


_REFUSED_GRIDS = st.one_of(
    # the series and the L-series need q > 1 (modulus >= 3 keeps out the n = 0 fail)
    *[_q_grids(name, ["1", "1/2", "0", "-3", "-1/2"], ["2", "7/2"], ["3", "5", "7"])
      for name in ("eq12-series", "eq13-series", "interpolation")],
    # q = -1 is a pole of the distribution identity
    _q_grids("eq16-distribution", ["-1"], ["2", "3", "7/2"], ["1", "3", "5"]),
    # walks of more than MAX_WALK steps, alone or beside a prime whose walk fits
    st.tuples(st.sampled_from([("3", "28", "29"), ("7", "16", None), ("3,7", "16", None),
                               ("3,5", "20", "21"), ("7,3", "15", "15")]), st.sampled_from(["0", "1"]))
    .map(lambda t: (["--name", "witt", "--p", t[0][0], "--precision", t[0][1], "--max-n", t[1]]
                    + (["--levels", t[0][2]] if t[0][2] else []), _walk_refused)),
)


class TestExitCodeFuzz:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_ARGV)
    def test_generated_argv_exits_with_a_contract_code(self, drawn):
        command, flags = drawn
        argv = command + [token for pair in flags for token in pair]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
        if command[:2] == ["verify", "suite"] and code in (1, 3):
            # every refusal past the parser is a case's own report: the code follows the statuses
            assert not [line for line in err.getvalue().splitlines() if line.startswith("error:")], argv
            text = out.getvalue()
            rows = (csv.DictReader(io.StringIO(text)) if text.startswith("identity,")
                    else map(json.loads, text.splitlines()))
            statuses = [SimpleNamespace(status=row["status"]) for row in rows]
            assert code == exit_code(statuses), (argv, code)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(_REFUSED_GRIDS)
    def test_refused_grids_exit_3_with_a_report_per_case(self, drawn):
        args, refused = drawn
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", "suite", *args])
        assert code == 3, args
        assert out.getvalue() and err.getvalue() == "", args
        rows = [json.loads(line) for line in out.getvalue().splitlines()]
        assert any(refused(r["params"]) for r in rows), args
        for r in rows:
            if refused(r["params"]):
                assert r["status"] == "inconclusive" and r["metric"]["kind"] == "error", (args, r)
                assert r["lhs"] == r["rhs"] == "", (args, r)
            else:
                assert r["status"] == "pass", (args, r)
