"""CLI surface: subcommands, exit codes, report streams, table round-trips."""
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

import qeuler
from qeuler.characters import character_by_index
from qeuler.chi_eulerian import chi_eulerian, weight_zero_euler
from qeuler.cli import main
from qeuler.eulerian import eulerian_poly
from qeuler.suites import SUITES
from qeuler.tables import KINDS
from qeuler.lfunction import l_eulerian
from qeuler.padic_verify import MEASURES
from qeuler.serialize import parse_rational, parse_value, render_value


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

    def test_lfunction_eval_at_q_one(self, capsys):
        # q = 1 converges only for Re s > 0, where the accelerated route sums it
        assert main(["lfunction", "eval", "--s", "0", "--q", "1"]) == 3
        assert "Re s > 0" in capsys.readouterr().err
        code, out = run(capsys, "lfunction", "eval", "--s", "1/2,14", "--q", "1")
        assert code == 0
        assert json.loads(out)["method"] == "accelerated"

    def test_lfunction_eval_too_close_to_q_one(self, capsys):
        # no partial sum certifies its tail at q - 1 = 10^-21: a message and exit 3 at Re s <= 0,
        # the accelerated route at Re s > 0
        q = "1000000000000000000001/1000000000000000000000"
        assert main(["lfunction", "eval", "--s=-1/2,1", "--q", q]) == 3
        assert "too close to 1" in capsys.readouterr().err
        code, out = run(capsys, "lfunction", "eval", "--s", "1/2,1", "--q", q)
        assert code == 0
        assert json.loads(out)["method"] == "accelerated"

    def test_padic_integral(self, capsys):
        code, out = run(capsys, "padic", "integral", "--p", "5", "--q", "6", "--n", "1",
                        "--precision", "3", "--levels", "6")
        assert code == 0
        assert json.loads(out)["residue"] == 107

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


class TestExitCodes:
    @pytest.mark.parametrize("probe", USAGE_PROBES)
    def test_bad_flag_value_is_usage_error(self, probe):
        env = dict(os.environ, PYTHONPATH=str(Path(qeuler.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-m", "qeuler.cli", *probe.split()],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr
        assert "error:" in done.stderr.strip().splitlines()[-1]

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
                        "--max-n", "4", "--q", "2,7/2", "--format", "json")
        assert code == 0
        for row in json.loads(out):
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

    def test_empty_range_header_only(self, capsys):
        code, out = run(capsys, "emit", "table", "--kind", "l-values", "--max-n", "-1",
                        "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("s,")

    def test_empty_weight_zero_range_ignores_the_pole(self, capsys):
        code, out = run(capsys, "emit", "table", "--kind", "weight-zero-euler", "--max-n", "-1",
                        "--q", "-1")
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
# small valid values, values the parser must refuse and digit-free junk, so no
# draw asks for a large computation (say --precision 99).
_JUNK = st.sampled_from(["", "0", "-1", "1/0", "2,", ",", "1e400", "nan", "inf", "1/3/4", "0x10",
                         "3.5", " 3", "1,2,3,4"]) | st.text(alphabet="abe/,.-+ ", max_size=5)
_FLAGS = {
    "--n": ["-1", "0", "1", "2", "3"],
    "--max-n": ["-1", "0", "1", "2"],
    "--modulus": ["1", "3", "5", "7", "9", "15", "4", "0"],
    "--char": ["0", "1", "2", "3", "-1", "9"],
    "--q": ["2", "7/2", "11/10", "1", "0", "-1", "-3", "6", "2,3", "1/2"],
    "--p": ["3", "5", "7", "2", "4", "3,5"],
    "--precision": ["1", "2", "3", "0"],
    "--bits": ["64", "96", "8"],
    "--levels": ["1", "3,4", "6", "0"],
    "--variant": ["printed", "corrected", "other"],
    "--format": ["json", "csv", "xml"],
    "--measure": list(MEASURES) + ["q"],
    "--s": ["0", "2", "-1", "1/2,14", "2,-3", "abc", "1e400", "1,2,3"],
}
_COMMANDS = st.one_of(
    st.sampled_from([["eulerian", "classical"], ["eulerian", "chi"], ["chars", "list"],
                     ["chars", "conductor"], ["padic", "integral"], ["lfunction", "eval"]]),
    st.sampled_from(sorted(SUITES)).map(lambda name: ["verify", "suite", "--name", name]),
    st.sampled_from(KINDS).map(lambda kind: ["emit", "table", "--kind", kind]),
)
_ARGV = st.tuples(_COMMANDS, st.lists(st.sampled_from(sorted(_FLAGS)).flatmap(
    lambda flag: st.tuples(st.just(flag), st.sampled_from(_FLAGS[flag]) | _JUNK)), max_size=4))


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
