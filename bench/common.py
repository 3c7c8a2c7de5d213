"""Types and helpers shared by the workload modules and run.py."""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Outcome:
    """Checked result of one op.

    ``cases`` counts the results the checker accepted.  ``problem`` says why the
    op failed.
    """

    cases: int
    problem: str | None = None


@dataclass
class Context:
    scratch: Path
    digests: dict[str, str] = field(default_factory=dict)


def balanced(rng, values):
    """Yield ``values`` in a seeded order, each once per pass, pass after pass.

    Drawing parameters this way gives every seed the same mix of costly and
    cheap inputs, so runs with different seeds measure comparable work.
    """
    while True:
        order = list(values)
        rng.shuffle(order)
        yield from order


def spread(rng, groups):
    """Order the ops of all groups so that every stretch holds each group in proportion.

    A run stops wherever its time runs out; with the groups spread evenly, the
    ops it got through are a fair share of each group whatever the host speed.
    """
    keyed = []
    for group in groups:
        offset = rng.random()
        for j, op in enumerate(rng.sample(group, len(group))):
            keyed.append(((j + offset) / len(group), rng.random(), op))
    keyed.sort(key=lambda item: item[:2])
    return [op for _, _, op in keyed]
