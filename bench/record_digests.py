"""Record the reference digests of the default seed's suite-sweep report streams.

    python3 bench/record_digests.py

Run from the repository root on the commit whose report streams are the
reference.  run.py compares each suite-sweep stream of the default seed (in
layers.json) with these digests, with elapsed_ms masked, and fails an op whose
stream differs.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from common import Context  # noqa: E402
import sweep  # noqa: E402


def main() -> int:
    seed = json.loads((BENCH / "layers.json").read_text())["default_seed"]
    ctx = Context(scratch=BENCH.parent / ".bench_out" / "tmp")
    ctx.scratch.mkdir(parents=True, exist_ok=True)
    streams = {}
    for op in sweep.generate(seed):
        _, stream, _ = sweep.execute(op, ctx)
        if stream:
            streams[sweep.op_key(op)] = sweep.masked_digest(stream)
    (BENCH / "digests.json").write_text(json.dumps({"seed": seed, "streams": streams}, indent=1,
                                                   sort_keys=True) + "\n")
    print(f"recorded {len(streams)} report-stream digests for seed {seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
