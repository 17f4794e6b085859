"""The benchmark's inputs: paper-calibrated traces made from the seed.

Every workload draws its traces from ``standard_traces`` (Sec. 5.1
generators, ``arrival_scale=3.0``) for the VT and LT deadline groups,
with ``--seed`` as the master seed, so one seed always gives the same
traces and the program under test sees only the generated inputs.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

GROUPS = ("VT", "LT")


@dataclass(frozen=True)
class Makeup:
    """How one workload's inputs are made."""

    traces_per_group: int
    requests: int
    strategies: tuple[str, ...]
    predictors: tuple[str, ...]


MAKEUP = {
    "paper-heuristic": Makeup(2, 500, ("heuristic",), ("off", "oracle", "learned")),
    "paper-grid": Makeup(4, 40, ("milp", "heuristic"), ("off", "oracle")),
    "serve-closed": Makeup(2, 250, ("heuristic",), ("off", "learned")),
    "serve-pipelined": Makeup(2, 250, ("heuristic",), ("off", "learned")),
}

#: Admits kept in flight on the one connection of ``serve-pipelined``.
PIPELINE_WINDOW = 8


def pool_width() -> int:
    """Process-pool width: two workers, never more than the CPUs."""
    return max(1, min(2, os.cpu_count() or 1))


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else.

    Exits with status 1 when the checkout has no program to measure, so
    a directory holding only the benchmark never reports a result.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = SRC
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        sys.exit(f"perfbench: repro imported from {repro.__file__}, not {SRC}")


def make_traces(workload: str, seed: int) -> list:
    """The workload's traces, VT first, in a fixed order."""
    from repro.experiments.common import standard_traces
    from repro.experiments.config import HarnessScale
    from repro.workload.tracegen import DeadlineGroup

    makeup = MAKEUP[workload]
    scale = HarnessScale(makeup.traces_per_group, makeup.requests, seed)
    traces = []
    for group in GROUPS:
        traces.extend(standard_traces(DeadlineGroup[group], scale))
    return traces


def platform():
    from repro.experiments.common import standard_platform

    return standard_platform()
