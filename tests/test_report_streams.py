"""Golden report streams: every suite at defaults, digested with elapsed_ms masked,
and CLI outputs outside the suite grids, digested whole.

The digests pin the exact bytes of each default `verify suite` stream and of
the numeric suites at 192 and 256 bits apart from timing, and of L-values at
complex s, truncated integrals with a character or under the -q and -q^-d
measures, every table kind and character listings, so a refactor of the
engines, the suites, the report writers or the CLI must leave them unchanged.  Regenerate a digest only for a deliberate change to a
report field, and say so where the change is recorded.
"""
import hashlib
import json
import re

import pytest
from mpmath import mp

from qeuler.cli import main

# (argv after "verify suite --name", format, expected exit code, sha256 of the masked stream)
STREAMS = [
    (("eq19-vs-eq20",), "json", 0, "1e1e2c8abec55b220a7fb4beb400bcf017269ac1085c215baa38d31b11645a88"),
    (("eq12-series",), "json", 0, "64aa08a9f7425b091fc59d49e56184859fb83ae64767fd5f2963772e536b840d"),
    (("eq13-series",), "json", 1, "5efb0f7a48472026ed95294dffeb6d9dd7ee45cb64c35e6558d3b00f8b08d684"),
    (("eq16-distribution",), "json", 0, "fb46c58153fca9be830f2a0f980a426f4971796cbdcfa64624a153be078c56ff"),
    (("witt",), "json", 0, "290cd87c5cb069335a86ca03d994c58b8eb74a07a8de6728e6691405847c6efd"),
    (("witt-chi",), "json", 0, "2e3c112de39fd16e47b5ee736d86c257812ad69d0868194f4e5973086ebeaab7"),
    (("integral-eq",), "json", 0, "1f1daf0eb8e4ed16ba9fed997892c721a1928560deb45efd641f10e896d94f41"),
    (("corollary4-probe",), "json", 0, "9e80ac1f83c7a64e18e7072faab0074edd2a7e4a901e0b8699392b7053cc129e"),
    (("interpolation",), "json", 1, "9592ad515a4d86a4e7770c38fe726cf6336ed636f984213ccf1f889af9b73a8e"),
    (("mellin-term",), "json", 0, "e11ba70e3b8e670d51817aacf050e5e4bf1d28b506ca713796141ca3983c3433"),
    (("eq16-distribution", "--variant", "printed"), "json", 1,
     "178452155223f300725dbe35fa24a4b44c7ca0a3dfde3446a687a09e869dbb8c"),
    (("witt-chi", "--variant", "printed"), "json", 1,
     "68d247cfa72afad1f41b31fc2b3a17a7aa1bd8fa0a287a969022c7df33505531"),
    (("eq16-distribution",), "csv", 0, "8d4f08db0f51431d33d3c8d374dfca1c8aa3e498edcb446041622af44c57131f"),
]


def masked(stream: str, fmt: str) -> str:
    """The stream with every elapsed_ms value replaced by 0, all other bytes kept."""
    if fmt == "json":
        return re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', stream)
    # elapsed_ms is the last csv column
    return re.sub(r",\d+(?=\r?$)", ",0", stream, flags=re.M)


@pytest.mark.parametrize("args,fmt,code,digest", STREAMS,
                         ids=[" ".join(a) + f" {f}" for a, f, _, _ in STREAMS])
def test_default_stream_is_unchanged(capsys, args, fmt, code, digest):
    argv = ["verify", "suite", "--name", *args]
    if fmt == "csv":
        argv += ["--format", "csv"]
    assert main(argv) == code
    stream = capsys.readouterr().out
    assert stream
    assert hashlib.sha256(masked(stream, fmt).encode()).hexdigest() == digest


# The numeric suites away from 128 bits, where each printed lhs, rhs, error and
# bound is rounded at the case's bits, and the four suites with a shared pass per
# (modulus, q) at edge q lists, whose error rows pin each message and which error
# comes first: (argv after "verify suite --name", exit code, sha256).
NUMERIC_STREAMS = [
    ("interpolation --bits 192 --q 11/10,3", 1,
     "94acdd9bc93626107c3e80a84afcf13610aec94d5e073e782a3c42b75d85fb1e"),
    ("mellin-term --bits 64", 0, "fa4db0d2ceec85ba8d6c7d8898c699644d312243e941bba4ad5baf860fed4239"),
    ("mellin-term --bits 192", 0, "4401513cf1c42d4dc91f6a4195d6e6f9efbe4701e018cbdb1209be737d44c871"),
    ("eq12-series --bits 256", 0, "92043636d1d6006bd4aabaf0c693fd3b7fb03b1d4234d86984cc5be52953fb51"),
    ("eq13-series --bits 256 --modulus 7", 0,
     "a8897beec4c2a4be3133a392cc1015d6c1f2432b971817aae8158d9dbeb444b6"),
    ("interpolation --q 1,1/2 --modulus 5", 3, "1ef7f5e0ca127241d68692d92270e34f1a2f7fda315d6c6ed0f1af0527112d26"),
    ("interpolation --q -1,0 --modulus 3", 3, "c1c7dc43f139a128486a1c4e041b4e91e50f7c898d1ed9fc895e9f883dec1ed1"),
    ("interpolation --q 2,-2 --modulus 7 --char 3", 3,
     "4d071e8fb606c3ff8fc90d7d23bb97421e5e8e723383e28ff7b24e848d3e88e2"),
    ("eq12-series --q 1,1/2 --modulus 5", 3, "9ab6dec32bc74a8a87978ed90b057a6a82bd0a71619d047ebf2dce3ad7432486"),
    ("eq12-series --q -1,0 --modulus 3", 3, "03bd02b29d9c5070c11cf2be90c6cd6afcbcaa27fa70d6154f9186b13a0ee224"),
    ("eq12-series --q 2,-2 --modulus 7 --char 3", 3,
     "b474f0ac12bcb5e7efaf9d47f640d9c1d083ca91d92f00b9d3509424f9d49226"),
    ("eq13-series --q 1,1/2 --modulus 5", 3, "93b2d591556287749d90d4277c1002e9fdf22f8e79fda927715c8fdda0418a59"),
    ("eq13-series --q -1,0 --modulus 3", 3, "fa3ea434b0a55ff769061d27f9e4f6c651612957704d01d7af7af5abf8ef1b55"),
    ("eq13-series --q 2,-2 --modulus 7 --char 3", 3,
     "01cfc14f9eca28ff5aff7f5aff5418923f278d246d228d22a03fec15d6d32c4a"),
    ("eq16-distribution --q 1,1/2 --modulus 5", 0,
     "b8102892abb28c7dcc40c473ac4e18613c677609b8f1e14a6159c47d01393ede"),
    ("eq16-distribution --q -1,0 --modulus 3", 3,
     "a3c96649756e661dcc1fc52c2e728feaadcc968b2fd93441db80e82c271fa290"),
    ("eq16-distribution --q 2,-2 --modulus 7 --char 3", 0,
     "0bc3247b43bb18cca5a407e4f53d75eee474977a6bb86c93192b080e2d431d83"),
]


@pytest.mark.parametrize("args,code,digest", NUMERIC_STREAMS, ids=[a for a, _, _ in NUMERIC_STREAMS])
def test_numeric_stream_at_other_bits_is_unchanged(capsys, args, code, digest):
    test_default_stream_is_unchanged(capsys, args.split(), "json", code, digest)


# (argv, expected exit code, sha256 of stdout); these outputs carry no timing
OUTPUTS = [
    ("lfunction eval --s 1/2,14 --modulus 3 --char 1 --q 2", 0,
     "04954057a3db6e3668b3fa41a1435f39f49cee5f0af150d92202e9d58fa20ad4"),
    ("lfunction eval --s 2,-3 --modulus 5 --char 1 --q 11/10 --bits 96", 0,
     "126ec09413cb1617ab787c788eb4d151944261a97bb7163e2d06f3821eecd6b1"),
    ("padic integral --modulus 5 --char 1 --p 5 --q 6 --n 2 --precision 3 --levels 3,4,5", 0,
     "0980bcad00b966fb25594158b206d62324fbefe53d6e304b0660c44d748bbdc1"),
    ("padic integral --measure=-q --p 5 --q 11 --n 3 --precision 3 --levels 4,5", 0,
     "e5f4f6a4b7e93dd2de78d10072c0278c3324b2b167aa8dd119893bf7e5c20b27"),
    ("padic integral --measure=-q^-d --modulus 3 --char 1 --p 3 --q 4 --n 2 --precision 4 "
     "--levels 5,6", 0, "7ce28876796e627a010238622fd498ec2842251cb78ede07dc73d6407b768932"),
    ("emit table --kind classical --max-n 7", 0,
     "ec34f61da8902535566b90199bbcfdb4b0151372684f821785c56b0dd2018e5b"),
    ("emit table --kind chi-eulerian --max-n 3 --modulus 5 --q 2,3/2", 0,
     "875961e62e3b3f74f9878be0ab2202af4e37b693f03d29e408f71141f5bb8bc3"),
    ("emit table --kind weight-zero-euler --max-n 4 --q 2,-1/3", 0,
     "2d1dda06a61029f02f9500716ea11bc818b5683039c8b58dc3731479f0e45940"),
    ("emit table --kind l-values --max-n 3 --modulus 3 --q 2 --bits 96", 0,
     "ed66bcd19b6133621f0ab0021e22ba3ce3128509764f03e2e8ab3ea887a50a0b"),
    ("emit table --kind chi-eulerian --max-n 2 --modulus 7 --char 2 --q 3 --format csv", 0,
     "c8bb976cb9b2dcbb39d84ddafa126609b2a33eafc9bf43c012b709fba7183ac9"),
    ("chars list --modulus 15", 0, "5b0c77318199206bb4daac8035d938349ded674a693cad791d8e29ae779ad225"),
    ("chars list --modulus 9", 0, "4ed6c7472df54cceda0c269e2dc66112a3e39fd62208306f78d0710e4173093d"),
]


@pytest.mark.parametrize("argv,code,digest", OUTPUTS, ids=[a for a, _, _ in OUTPUTS])
def test_other_output_is_unchanged(capsys, argv, code, digest):
    assert main(argv.split()) == code
    out = capsys.readouterr().out
    assert out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The two L-values above as the partial sum printed them, before the accelerated
# routes (Chebyshev weights, now the Boole tail): (argv, value_re, value_im, tail_bound).
PARTIAL_SUM_OUTPUTS = [
    ("lfunction eval --s 1/2,14 --modulus 3 --char 1 --q 2",
     "0.96314363764847122518001671872610037352290023", "0.53557709110412067722397348878409999207222275",
     "1.01800797e-38"),
    ("lfunction eval --s 2,-3 --modulus 5 --char 1 --q 11/10 --bits 96",
     "0.4077462022175958328425474107004727", "-0.3799892064997325639196954695024265", "2.153097955e-42"),
]


@pytest.mark.parametrize("argv,old_re,old_im,old_bound", PARTIAL_SUM_OUTPUTS,
                         ids=[a for a, *_ in PARTIAL_SUM_OUTPUTS])
def test_accelerated_value_agrees_with_the_partial_sum_output(capsys, argv, old_re, old_im, old_bound):
    assert main(argv.split()) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["method"] == "boole"
    with mp.workprec(256):
        # both bounds, plus one unit in the last printed digit of each string
        slack = mp.mpf(row["tail_bound"]) + mp.mpf(old_bound) + 2 * mp.mpf(10) ** -(len(old_re) - 2)
        assert mp.fabs(mp.mpf(row["value_re"]) - mp.mpf(old_re)) <= slack
        assert mp.fabs(mp.mpf(row["value_im"]) - mp.mpf(old_im)) <= slack
