"""Self-tests of the benchmark harness: python3 -m pytest bench/tests -q"""
from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import deep  # noqa: E402
import exact  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import sweep  # noqa: E402
from common import Context, Outcome  # noqa: E402

WORKLOADS = {"suite-sweep": sweep, "exact-scale": exact, "deep-sums": deep}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def ctx(tmp_path):
    return Context(scratch=tmp_path)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_a_function_of_the_seed(name):
    module = WORKLOADS[name]
    assert module.generate(11) == module.generate(11)
    assert module.generate(11) != module.generate(12)
    assert len(module.generate(11)) >= module.TRACE_OPS


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_metric_names_and_units_match_benchmark_json():
    e2e = run.end_to_end(0.1, [0.01, 0.02, 0.03], [Outcome(1)] * 3)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    layer = spans.layer_metrics({}, 1.0)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {k: u for k, (_, u) in layer.items()}
    mapped = [m for row in json.loads((BENCH / "layers.json").read_text())["layer_map"] for m in row["metrics"]]
    assert sorted(mapped) == sorted(layer)


def _sweep_op(suite="eq12-series", modulus=3):
    return {"suite": suite, "modulus": modulus, "q": "2,3", "p": 3, "precision": 2,
            "max_n": 2, "levels": "1,2,3"}


def test_sweep_accepts_a_real_stream_and_flags_a_perturbed_status(ctx):
    op = _sweep_op()
    code, stream, err = sweep.execute(op, ctx)
    assert sweep.check(op, (code, stream, err), ctx).problem is None
    lines = stream.splitlines()
    bad = json.loads(lines[-1])
    bad["status"] = "fail"
    perturbed = "\n".join(lines[:-1] + [json.dumps(bad)]) + "\n"
    outcome = sweep.check(op, (1, perturbed, ""), ctx)
    assert outcome.problem
    # the exit code must agree with the statuses
    assert sweep.check(op, (0, perturbed, ""), ctx).problem


def test_sweep_allows_only_the_documented_fail_corner(ctx):
    corner = _sweep_op("eq13-series", 1)
    code, stream, err = sweep.execute(corner, ctx)
    assert code == 1 and sweep.check(corner, (code, stream, err), ctx).problem is None


def test_sweep_flags_a_digest_mismatch(ctx):
    op = _sweep_op()
    code, stream, err = sweep.execute(op, ctx)
    ctx.digests = {sweep.op_key(op): sweep.masked_digest(stream)}
    assert sweep.check(op, (code, stream, err), ctx).problem is None
    ctx.digests = {sweep.op_key(op): "0" * 64}
    assert sweep.check(op, (code, stream, err), ctx).problem


def test_sweep_flags_the_corollary4_abort_and_leaves_its_grids_out(ctx):
    op = dict(_sweep_op("corollary4-probe", 9), precision=3)
    assert sweep.check(op, sweep.execute(op, ctx), ctx).problem
    assert not any((op["suite"], op["modulus"]) in sweep.UNSUPPORTED for op in sweep.generate(11))


def test_exact_flags_a_perturbed_coefficient(ctx):
    op = {"kind": "eulerian", "n": 9, "x0": "3/2"}
    coeffs, series = exact.execute(op, ctx)
    assert exact.check(op, (coeffs, series), ctx).problem is None
    bumped = (coeffs[0],) + (coeffs[1] + 1,) + tuple(coeffs[2:])
    assert exact.check(op, (bumped, series), ctx).problem
    assert exact.check(op, (coeffs, series + 1), ctx).problem


def test_exact_ties_modulus_one_to_q_squared(ctx):
    op = {"kind": "chi", "modulus": 1, "index": 0, "n": 12, "q": "5/2"}
    order, value = exact.execute(op, ctx)
    assert exact.check(op, (order, value), ctx).problem is None
    assert exact.check(op, (order, value * Fraction(5, 2)), ctx).problem


def test_exact_checks_order_6_values_against_the_series(ctx):
    op = {"kind": "chi", "modulus": 7, "index": 1, "n": 20, "q": "2"}
    order, value = exact.execute(op, ctx)
    assert exact.check(op, (order, value), ctx).problem is None
    assert exact.check(op, (order, value + 1), ctx).problem


def test_deep_flags_a_perturbed_residue(ctx):
    op = {"kind": "trunc", "p": 3, "N": 6, "k": 3, "q": "4", "degrees": [2, 5]}
    out = deep.execute(op, ctx)
    assert deep.check(op, out, ctx).problem is None
    out[1] = type(out[1])(3, 3, out[1].residue + 1)
    assert deep.check(op, out, ctx).problem


def test_worpitzky_matches_known_rows():
    assert oracles.eulerian_numbers(5) == (1, 26, 66, 26, 1)


def test_self_time_of_nested_spans():
    # root [0,10] > a [1,4] > a1 [2,3];  root > b [5,9]
    start, end, parent = [0.0, 1.0, 2.0, 5.0], [10.0, 4.0, 3.0, 9.0], [-1, 0, 1, 0]
    assert spans.self_times(start, end, parent) == [3.0, 2.0, 1.0, 4.0]


def test_recorder_counts_and_attributes_errors():
    rec = spans.Recorder()
    outer = rec.name_id("padic_verify.outer")
    inner = rec.name_id("padic.inner")
    i = rec.begin(outer)
    j = rec.begin(inner)
    exc = ValueError("boom")
    rec.finish(j, exc)
    rec.finish(i, exc)
    stats = spans.summarize(rec)
    assert stats["padic.inner"].errors == 1 and stats["padic_verify.outer"].errors == 0
    assert stats["padic_verify.outer"].with_children == 1


def test_cache_reset_restores_a_cold_start():
    import qeuler

    polys = sys.modules["qeuler.eulerian"]._polys
    reset = run.CacheReset()
    before = len(polys)
    qeuler.eulerian_poly(before + 4)
    assert len(polys) == before + 5
    reset()
    assert len(polys) == before


def test_install_wraps_names_imported_into_other_modules(ctx):
    rec = spans.Recorder()
    assert spans.install(rec) > 50
    suites = sys.modules["qeuler.suites"]
    assert suites.eulerian_poly.__wrapped__ is sys.modules["qeuler.eulerian"].eulerian_poly.__wrapped__
    sweep.execute(_sweep_op("eq19-vs-eq20"), ctx)
    stats = spans.summarize(rec)
    assert stats["suites.run_suite"].calls == 1 and stats["suites.suite_eq19_vs_eq20"].calls == 1
    assert stats["eulerian.eulerian_poly"].calls > 0 and stats["cli.main"].calls == 1
