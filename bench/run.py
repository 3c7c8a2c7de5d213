"""qeuler benchmark harness.

    python3 bench/run.py --workload suite-sweep|exact-scale|deep-sums \
        --seed N --seconds T --trace 0|1

Run from the repository root.  One process, one client, closed loop: the
harness generates the workload's ops from the seed, calls qeuler's public
functions with them one after another for T seconds, times every call from
outside and checks every output.  With --trace 0 the last stdout line holds
the end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced rerun of the first ops (see spans.py).  Spans and full results are
written under .bench_out/.
"""
from __future__ import annotations

import argparse
import bisect
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from common import Context, Outcome

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = {"suite-sweep": "sweep", "exact-scale": "exact", "deep-sums": "deep"}
SETUP_SPAWNS = 11
# Seconds the reference kernel takes on an idle core of the 2-core host the
# bounds were set on (its fastest runs there), and how often a run samples it.
REFERENCE_S = 0.01
REFERENCE_EVERY_S = 0.12


def reference_kernel() -> float:
    """Time a fixed mix of Fraction, modular-integer and mpmath work like qeuler's."""
    import mpmath

    start = time.perf_counter()
    for i in range(1, 1250):
        Fraction(i, i + 1) ** 3 - Fraction(2 * i + 1, 3 * i + 5)
    w = 1
    for _ in range(30000):
        w = w * 7 % 15625
    with mpmath.workprec(192):
        x = mpmath.mpf(0)
        for m in range(1, 600):
            x += mpmath.mpf(m) ** 9 / 7
    return time.perf_counter() - start


class HostSpeed:
    """Samples the reference kernel through a run to measure the host's speed.

    On a shared host the same work takes from 1x to 1.8x its idle time, and
    the load changes within a second.  The harness divides each time it reports
    by ``factor`` over that stretch of the run (mean kernel time near it over
    the kernel's idle time), so runs made under different load report
    comparable numbers.
    """

    def __init__(self):
        self.times: list[float] = []
        self.seconds: list[float] = []
        self.due = 0.0

    def sample(self, force: bool = False) -> None:
        if force or time.perf_counter() >= self.due:
            self.times.append(time.perf_counter())
            self.seconds.append(reference_kernel())
            self.due = time.perf_counter() + REFERENCE_EVERY_S

    def factor(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Speed factor from the samples within half a second of [start, end]."""
        lo = bisect.bisect_left(self.times, start - 0.5)
        hi = bisect.bisect_right(self.times, end + 0.5)
        if lo == hi:  # no sample that close: take the nearest one
            lo = min(max(lo - 1, 0), len(self.times) - 1)
            hi = lo + 1
        return statistics.fmean(self.seconds[lo:hi]) / REFERENCE_S


def measure_setup(speed: HostSpeed) -> float:
    """Median time from spawning an interpreter to the end of `import qeuler`,
    each spawn divided by the host speed factor around it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-c", "import qeuler, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"]
    windows = []
    for i in range(SETUP_SPAWNS + 1):
        speed.sample(force=True)
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
        if child.returncode != 0 or line != b"ready\n":
            raise RuntimeError(f"`import qeuler` failed in a fresh interpreter (exit {child.returncode})")
        if i:  # the first spawn compiles bytecode
            windows.append((start, ready))
    speed.sample(force=True)
    return statistics.median((end - start) / speed.factor(start, end) for start, end in windows)


class CacheReset:
    """Puts qeuler's module-level memo tables back to their state at creation.

    Covers every private dict, list and set at module level and every
    functools cache, which is where a fresh interpreter starts empty.
    """

    def __init__(self):
        self.containers = []
        self.caches = []
        for name, mod in sorted(sys.modules.items()):
            if not name.startswith("qeuler."):
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") and not attr.startswith("__") and isinstance(obj, (dict, list, set)):
                    self.containers.append((mod, attr, obj, obj.copy()))
                fn = obj
                while fn is not None and not hasattr(fn, "cache_clear"):
                    fn = getattr(fn, "__wrapped__", None)
                if fn is not None and fn not in self.caches:
                    self.caches.append(fn)

    def __call__(self) -> None:
        for mod, attr, obj, saved in self.containers:
            obj.clear()
            if isinstance(obj, list):
                obj.extend(saved)
            else:
                obj.update(saved)
            setattr(mod, attr, obj)
        for fn in self.caches:
            fn.cache_clear()


def run_ops(workload, ops, ctx, seconds, speed, reset, limit=None, recorder=None):
    """Closed loop over ops until the time or op limit.

    Returns each op's duration divided by the host speed factor around it,
    and each op's outcome.
    """
    windows, outcomes = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline and (limit is None or i < limit):
        speed.sample()
        op = ops[i % len(ops)]
        if workload.COLD:
            reset()
        if recorder is not None:
            recorder.current_op = i
        start = time.perf_counter()
        try:
            output = workload.execute(op, ctx)
            failure = None
        except Exception as exc:  # a raising op is a failed op, and the loop goes on
            failure = exc
        windows.append((start, time.perf_counter()))
        if failure is None:
            if recorder is not None:
                recorder.paused = True  # the checker's own qeuler calls are not the op's
            outcome = workload.check(op, output, ctx)
            if recorder is not None:
                recorder.paused = False
        else:
            outcome = Outcome(0, f"raised {type(failure).__name__}: {failure}")
        if outcome.problem:
            print(f"op {i} failed: {outcome.problem} "
                  f"{json.dumps(op, sort_keys=True)}", file=sys.stderr)
        outcomes.append(outcome)
        i += 1
    speed.sample(force=True)
    return [(end - start) / speed.factor(start, end) for start, end in windows], outcomes


def end_to_end(setup_s, durations, outcomes) -> dict[str, tuple[float, str]]:
    busy = sum(durations)
    cases = sum(o.cases for o in outcomes if not o.problem)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(durations) / busy, "1/s"),
        "cases_per_s": (cases / busy, "1/s"),
        "op_p50_ms": (statistics.median(durations) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(durations, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def git_commit() -> str | None:
    """HEAD of a git checkout at the root, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import mpmath
    import mpmath.libmp

    return {"commit": git_commit(), "python": platform.python_version(), "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND, "nproc": len(os.sched_getaffinity(0)), "seed": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qeuler" / "__init__.py").is_file():
        print(f"error: no qeuler sources under {SRC}; run from a qeuler checkout", file=sys.stderr)
        return 2

    speed = HostSpeed()
    setup_s = measure_setup(speed)
    sys.path.insert(0, str(SRC))
    workload = importlib.import_module(WORKLOADS[args.workload])
    ctx = Context(scratch=OUT / "tmp")
    ctx.scratch.mkdir(parents=True, exist_ok=True)
    digests = json.loads((BENCH / "digests.json").read_text())
    if args.seed == digests["seed"]:
        ctx.digests = digests["streams"]
    ops = workload.generate(args.seed)
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        import spans

        cold = CacheReset()
        base, outcomes = run_ops(workload, ops, ctx, args.seconds, speed, cold, limit=workload.TRACE_OPS)
        cold()  # the traced rerun starts from the same cold caches
        recorder = spans.Recorder()
        spans.install(recorder)
        traced, traced_outcomes = run_ops(workload, ops, ctx, float("inf"), speed, CacheReset(),
                                          limit=len(base), recorder=recorder)
        outcomes += traced_outcomes
        overhead = sum(traced) / sum(base)
        print(f"tracing overhead: {len(base) / sum(base):.3f} ops/s untraced, "
              f"{len(traced) / sum(traced):.3f} ops/s traced, ratio {overhead:.3f} "
              f"over the same {len(base)} ops")
        metrics = {name: (value / speed.factor() if unit == "s" else value, unit)
                   for name, (value, unit) in spans.layer_metrics(spans.summarize(recorder), overhead).items()}
        recorder.write(OUT / f"spans-{tag}.csv.gz")
        attempted = len(traced)
    else:
        durations, outcomes = run_ops(workload, ops, ctx, args.seconds, speed, CacheReset())
        metrics = end_to_end(setup_s, durations, outcomes)
        attempted = len(durations)
        print(f"ops: {attempted} timed calls; p90 has {attempted - int(0.9 * attempted)} samples beyond it")

    print(f"host speed factor {speed.factor():.4f} over the run from {len(speed.times)} reference "
          f"samples; every time below is divided by the factor around it")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    result = {"correct": not any(o.problem for o in outcomes), "attempted": attempted,
              "failed": sum(1 for o in outcomes[-attempted:] if o.problem),
              "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}
    (OUT / f"result-{tag}.json").write_text(json.dumps(dict(result, env=env, host_speed_factor=speed.factor()),
                                                       indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
