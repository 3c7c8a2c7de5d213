"""Span tracing of qeuler's layers from outside the package.

``install`` wraps every public function, public method and arithmetic dunder
defined in a ``qeuler.*`` module.  Each wrapped call records a span (name,
start, end, parent span, op id); spans stay in memory and ``write`` saves
them when the run ends.  A layer is a qeuler module; its self time is the
time its spans spend outside their child spans.  Calls nest strictly because
the benchmark runs one thread, so the children of a span never overlap.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from dataclasses import dataclass
from math import lcm
from time import perf_counter

DUNDERS = frozenset({"__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
                     "__truediv__", "__rtruediv__", "__pow__", "__divmod__", "__mod__", "__call__"})


class Recorder:
    """Spans in parallel arrays: name id, start, end, parent index, op id, error flag and
    the two values a hook measured (see HOOKS)."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.error = array("b")
        self.v1 = array("d")
        self.v2 = array("d")
        self.current_op = -1
        self.paused = False
        self._stack: list[int] = []
        self._last_exc: BaseException | None = None

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def begin(self, name_id: int, v1: float = 0.0, v2: float = 0.0) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.error.append(0)
        self.v1.append(v1)
        self.v2.append(v2)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int, exc: BaseException | None = None, v1: float | None = None) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()
        if exc is not None:
            # count an exception once, in the span it left first
            if exc is not self._last_exc:
                self.error[i] = 1
            self._last_exc = exc
        if v1 is not None:
            self.v1[i] += v1

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start,end,parent,op,error\n")
            for i in range(len(self.name)):
                fh.write(f"{self.names[self.name[i]]},{self.start[i]:.9f},{self.end[i]:.9f},"
                         f"{self.parent[i]},{self.op[i]},{self.error[i]}\n")


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _integral_terms(fn, args, kwargs):
    """(p^N, min(period, p^N)) of one truncated_integrals call."""
    a = _bound(fn, args, kwargs)
    p, N, k = a["p"], a["N"], a["k"]
    d = a.get("d") or next((s.character.modulus for s in a["specs"] if s.character is not None), 1)
    return float(p**N), float(min(lcm(p**k, d), p**N))


def _probe_terms(fn, args, kwargs):
    """Sum over levels of (p^N, min(period, p^N)) for one corollary4_probe call."""
    a = _bound(fn, args, kwargs)
    p, period = a["p"], lcm(a["p"] ** a["k"], a["chi"].modulus)
    return (float(sum(p**N for N in a["N_list"])),
            float(sum(min(period, p**N) for N in a["N_list"])))


# span name -> (value before the call from its arguments, value after it from its result)
HOOKS = {
    "padic_verify.truncated_integrals": (_integral_terms, None),
    "padic_verify.corollary4_probe": (_probe_terms, None),
    "chi_eulerian.chi_eulerian_series_check": (None, lambda r: r.terms),
    "chi_eulerian.kernel_series_check": (None, lambda r: r.terms),
    "lfunction.l_eulerian": (None, lambda r: r.terms),
    "suites.run_suite": (None, len),
    "report.dump_json_lines": (None, lambda r: len(r.encode())),
    "report.dump_csv": (None, lambda r: len(r.encode())),
    "tables.build_table": (None, lambda r: len(r[1])),
}


def _wrap(fn, name: str, rec: Recorder):
    name_id = rec.name_id(name)
    pre, post = HOOKS.get(name, (None, None))

    def wrapper(*args, **kwargs):
        if rec.paused:
            return fn(*args, **kwargs)
        v1, v2 = pre(fn, args, kwargs) if pre else (0.0, 0.0)
        i = rec.begin(name_id, v1, v2)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            rec.finish(i, exc)
            raise
        rec.finish(i, None, post(result) if post else None)
        return result

    return functools.update_wrapper(wrapper, fn)


def _is_function(obj) -> bool:
    return (inspect.isfunction(obj) or hasattr(obj, "cache_clear")) and not inspect.isgeneratorfunction(obj)


def _wrap_class(cls, layer: str, rec: Recorder) -> None:
    done: dict[int, object] = {}
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_") and attr not in DUNDERS:
            continue
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        if not inspect.isfunction(fn):
            continue
        if id(fn) not in done:
            done[id(fn)] = _wrap(fn, f"{layer}.{cls.__name__}.{fn.__name__}", rec)
        setattr(cls, attr, kind(done[id(fn)]) if kind else done[id(fn)])


def install(rec: Recorder) -> int:
    """Wrap qeuler's public callables; return how many functions were wrapped.

    A function is rebound under every name that refers to it: in its defining
    module, in each qeuler module that imported it, in the package namespace
    and in module-level dicts such as the suite registry.
    """
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("qeuler.")]
    wrappers: dict[int, object] = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[1]
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                _wrap_class(obj, layer, rec)
            elif _is_function(obj):
                wrappers[id(obj)] = _wrap(obj, f"{layer}.{name}", rec)
    for mod in modules + [sys.modules["qeuler"]]:
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrappers:
                setattr(mod, name, wrappers[id(obj)])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if id(value) in wrappers:
                        obj[key] = wrappers[id(value)]
    return len(wrappers)


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the time covered by its direct children."""
    child = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
    return [e - s - c for s, e, c in zip(start, end, child)]


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    errors: int = 0
    v1: float = 0.0
    v2: float = 0.0
    with_children: int = 0


def summarize(rec: Recorder) -> dict[str, Stat]:
    selfs = self_times(rec.start, rec.end, rec.parent)
    has_child = [False] * len(selfs)
    for p in rec.parent:
        if p >= 0:
            has_child[p] = True
    stats: dict[str, Stat] = {}
    for i, name_id in enumerate(rec.name):
        st = stats.setdefault(rec.names[name_id], Stat())
        st.calls += 1
        st.self_s += selfs[i]
        st.errors += rec.error[i]
        st.v1 += rec.v1[i]
        st.v2 += rec.v2[i]
        st.with_children += has_child[i]
    return stats


def layer_metrics(stats: dict[str, Stat], overhead: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json from span statistics."""

    def pick(*names):
        return [stats[n] for n in names if n in stats]

    def calls(*names):
        return float(sum(s.calls for s in pick(*names)))

    def self_s(*names):
        return sum(s.self_s for s in pick(*names))

    def layer(prefix):
        return [s for n, s in stats.items() if n.startswith(prefix + ".")]

    def ratio(num, den):
        return num / den if den else 0.0

    values_calls = calls("chi_eulerian.chi_eulerian_values")
    padic_sums = pick("padic_verify.truncated_integrals", "padic_verify.corollary4_probe")
    sum_terms = sum(s.v1 for s in padic_sums)
    return {
        "polyq.mul_calls": (calls("polyq.PolyQ.__mul__"), "count"),
        "polyq.self_s": (sum(s.self_s for s in layer("polyq")), "s"),
        "series.div_calls": (calls("series.series_div"), "count"),
        "series.self_s": (sum(s.self_s for s in layer("series")), "s"),
        "eulerian.poly_self_s": (self_s("eulerian.eulerian_poly"), "s"),
        "cyclotomic.mul_calls": (calls("cyclotomic.CycElem.__mul__"), "count"),
        "cyclotomic.inverse_calls": (calls("cyclotomic.CycElem.inverse"), "count"),
        "cyclotomic.embed_calls": (calls("cyclotomic.cyc_embed"), "count"),
        "cyclotomic.self_s": (sum(s.self_s for s in layer("cyclotomic")), "s"),
        "characters.tables_built": (float(sum(s.with_children for s in pick(
            "characters.DirichletCharacter.values"))), "count"),
        "characters.values_self_s": (self_s("characters.DirichletCharacter.values"), "s"),
        "characters.conductor_self_s": (self_s("characters.DirichletCharacter.conductor",
                                               "characters.conductor"), "s"),
        "chi_eulerian.values_calls": (values_calls, "count"),
        "chi_eulerian.recurrence_calls": (calls("chi_eulerian.kernel_recurrence"), "count"),
        "chi_eulerian.table_hit_ratio": (
            1.0 - ratio(calls("chi_eulerian.kernel_recurrence"), values_calls) if values_calls else 0.0, "1"),
        "chi_eulerian.recurrence_self_s": (self_s("chi_eulerian.kernel_recurrence"), "s"),
        "chi_eulerian.weight_zero_calls": (calls("chi_eulerian.weight_zero_euler_values"), "count"),
        "chi_eulerian.distribution_self_s": (self_s("chi_eulerian.verify_distribution"), "s"),
        "chi_eulerian.series_terms": (sum(s.v1 for s in pick(
            "chi_eulerian.chi_eulerian_series_check", "chi_eulerian.kernel_series_check")), "count"),
        "chi_eulerian.series_self_s": (self_s("chi_eulerian.chi_eulerian_series_check",
                                              "chi_eulerian.kernel_series_check"), "s"),
        "lfunction.calls": (calls("lfunction.l_eulerian"), "count"),
        "lfunction.terms": (sum(s.v1 for s in pick("lfunction.l_eulerian")), "count"),
        "lfunction.self_s": (sum(s.self_s for s in layer("lfunction")), "s"),
        "numerics.truncation_self_s": (self_s("numerics.choose_truncation", "numerics.tail_bound"), "s"),
        "padic_verify.integral_calls": (calls("padic_verify.truncated_integrals"), "count"),
        "padic_verify.sum_terms": (sum_terms, "count"),
        "padic_verify.period_term_ratio": (ratio(sum(s.v2 for s in padic_sums), sum_terms), "1"),
        "padic_verify.integral_self_s": (self_s("padic_verify.truncated_integrals",
                                                "padic_verify.truncated_integral",
                                                "padic_verify.truncated_integral_full"), "s"),
        "padic_verify.probe_self_s": (self_s("padic_verify.corollary4_probe",
                                             "padic_verify.corollary4_min_precision"), "s"),
        "padic.embed_calls": (calls("padic.embed_cyclotomic"), "count"),
        "padic.self_s": (sum(s.self_s for s in layer("padic")), "s"),
        "padic.errors": (float(sum(s.errors for s in layer("padic"))), "count"),
        "suites.cases": (sum(s.v1 for s in pick("suites.run_suite")), "count"),
        "suites.self_s": (sum(s.self_s for s in layer("suites")), "s"),
        "report.dump_self_s": (self_s("report.dump_json_lines", "report.dump_csv"), "s"),
        "report.bytes": (sum(s.v1 for s in pick("report.dump_json_lines", "report.dump_csv")), "bytes"),
        "serialize.self_s": (sum(s.self_s for s in layer("serialize")), "s"),
        "tables.rows": (sum(s.v1 for s in pick("tables.build_table")), "count"),
        "tables.self_s": (sum(s.self_s for s in layer("tables")), "s"),
        "cli.self_s": (sum(s.self_s for s in layer("cli")), "s"),
        "trace.overhead_ratio": (overhead, "1"),
    }
