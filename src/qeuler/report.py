"""Machine-readable verification reports and their serialization.

One report per verified case.  A report passes only when its metric satisfies
the stated target, and a report stream is deterministic given identical
inputs (the elapsed_ms field is the one timing exception).
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

EXIT_OK = 0
EXIT_IDENTITY_FAILURE = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3


@dataclass
class VerificationReport:
    identity: str
    params: dict
    status: str
    lhs: str
    rhs: str
    metric: dict
    variant: str = "n/a"
    elapsed_ms: int = 0
    extra: dict = field(default_factory=dict)

    def sort_key(self) -> tuple:
        return (self.identity, json.dumps(self.params, sort_keys=True, default=str))

    def to_obj(self) -> dict:
        obj = {
            "identity": self.identity,
            "params": self.params,
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "metric": self.metric,
            "variant": self.variant,
            "elapsed_ms": self.elapsed_ms,
        }
        obj.update(self.extra)
        return obj


def sort_reports(reports: list[VerificationReport]) -> list[VerificationReport]:
    return sorted(reports, key=VerificationReport.sort_key)


def json_lines(rows) -> str:
    """Each row as one line of sorted-key JSON; no rows give the empty string."""
    return "".join(json.dumps(row, sort_keys=True, default=str) + "\n" for row in rows)


def dump_json_lines(reports: list[VerificationReport]) -> str:
    return json_lines(r.to_obj() for r in sort_reports(reports))


CSV_HEADER = ["identity", "params", "status", "lhs", "rhs", "metric", "variant", "elapsed_ms"]


def dump_csv(reports: list[VerificationReport]) -> str:
    """One row per report, params and metric as sorted JSON; extra fields are left out."""
    rows = [dict({name: getattr(r, name) for name in CSV_HEADER},
                 params=json.dumps(r.params, sort_keys=True, default=str),
                 metric=json.dumps(r.metric, sort_keys=True, default=str))
            for r in sort_reports(reports)]
    return render_table(CSV_HEADER, rows, "csv")


def render_table(header: list[str], rows: list[dict], fmt: str) -> str:
    """Rows as one indented JSON array or as CSV under ``header``."""
    if fmt == "json":
        return json.dumps(rows, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=header)
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue()
    raise ValueError(f"unknown format {fmt!r}")


def exit_code(reports: list[VerificationReport]) -> int:
    if any(r.status == FAIL for r in reports):
        return EXIT_IDENTITY_FAILURE
    if any(r.status == INCONCLUSIVE for r in reports):
        return EXIT_PRECISION
    return EXIT_OK
