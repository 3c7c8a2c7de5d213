"""Golden report streams: every suite at defaults, digested with elapsed_ms masked.

The digests pin the exact bytes of each default `verify suite` stream apart
from timing, so a refactor of the suites, the report writers or the CLI must
leave them unchanged.  Regenerate a digest only for a deliberate change to a
report field, and say so where the change is recorded.
"""
import hashlib
import re

import pytest

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
