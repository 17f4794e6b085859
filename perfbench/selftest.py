"""Show that each output check accepts a correct output and rejects a
deliberately broken one.

    python3 perfbench/selftest.py

Builds real outputs from one small calibrated trace (seed 1), runs every
check on them unchanged, then breaks one thing at a time: an
overlapping span, a late finish, a MILP energy nudged above the exact
search's, one flipped served decision, a wrong fingerprint and a
changed grid aggregate.  Exits 1 unless every check accepts the
unbroken output and rejects each broken one.
"""

from __future__ import annotations

import dataclasses
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402

inputs.use_checkout_source()

from repro.registry import resolve_strategy  # noqa: E402
from repro.sim.simulator import SimulationConfig, simulate  # noqa: E402

import checks  # noqa: E402
from workloads import RecordingStrategy  # noqa: E402

FAILURES: list[str] = []


def expect(name: str, problems: list, *, broken: bool) -> None:
    ok = bool(problems) == broken
    verdict = "rejects" if problems else "accepts"
    print(f"{'ok  ' if ok else 'FAIL'} {name}: check {verdict} it"
          + (f" ({problems[0]})" if problems else ""))
    if not ok:
        FAILURES.append(name)


def overlapping(result, trace):
    """Move one work span onto the span before it on its resource."""
    log = list(result.execution_log)
    for i, span in enumerate(log):
        for j in range(i + 1, len(log)):
            other = log[j]
            if other.resource == span.resource and other.job_id != span.job_id:
                length = other.end - other.start
                log[j] = dataclasses.replace(
                    other, start=span.start, end=span.start + length
                )
                return dataclasses.replace(result, execution_log=log)
    raise AssertionError("no two spans share a resource")


def late(result, trace):
    """Shift an admitted job's last work span past its deadline."""
    log = list(result.execution_log)
    for i in range(len(log) - 1, -1, -1):
        span = log[i]
        if span.kind == "work" and span.job_id in result.accepted:
            deadline = trace.requests[span.job_id].absolute_deadline
            shift = deadline - span.start + 1.0
            log[i] = dataclasses.replace(
                span, start=span.start + shift, end=span.end + shift
            )
            return dataclasses.replace(result, execution_log=log)
    raise AssertionError("no admitted work span")


def main() -> None:
    platform = inputs.platform()
    trace = inputs.make_traces("paper-grid", 1)[0]
    recorder = RecordingStrategy(resolve_strategy("heuristic"))
    result = simulate(
        trace, platform, recorder, "oracle",
        SimulationConfig(collect_execution_log=True),
    )

    # (a) schedule replay
    expect("(a) unbroken schedule", checks.check_schedule(trace, result),
           broken=False)
    expect("(a) overlapping span",
           checks.check_schedule(trace, overlapping(result, trace)), broken=True)
    expect("(a) late finish",
           checks.check_schedule(trace, late(result, trace)), broken=True)

    # (b) strategy cross-check
    small = [c for c in recorder.contexts
             if len(c.tasks) <= checks.EXACT_MAX_TASKS][:6]
    triples = checks.solve_contexts(small)
    expect("(b) unbroken decisions", checks.check_strategies(triples),
           broken=False)
    milp, exact, heuristic = next(t for t in triples if t[1].feasible)
    nudged = dataclasses.replace(milp, energy=exact.energy * 1.01)
    expect("(b) MILP energy above exact",
           checks.check_strategies([(nudged, exact, heuristic)]), broken=True)

    # (c) serve checks
    simulated = checks.statuses(result)
    expect("(c) unbroken served decisions",
           checks.check_served(list(simulated), simulated), broken=False)
    flipped = list(simulated)
    flipped[7] = "accepted" if flipped[7] == "rejected" else "rejected"
    expect("(c) one flipped served decision",
           checks.check_served(flipped, simulated), broken=True)
    expect("(c) same fingerprint", checks.check_fingerprints("ab12", "ab12"),
           broken=False)
    expect("(c) wrong fingerprint", checks.check_fingerprints("ab12", "ab13"),
           broken=True)

    # (d) grid aggregates
    digest = {"heuristic/oracle": ((10.0,), (0.5,), 0)}
    expect("(d) equal aggregates",
           checks.check_aggregates(digest, dict(digest), "grid"), broken=False)
    expect("(d) changed aggregate",
           checks.check_aggregates(
               {"heuristic/oracle": ((10.0,), (0.5000001,), 0)}, digest, "grid"
           ),
           broken=True)

    if FAILURES:
        print(f"{len(FAILURES)} self-test(s) failed: {FAILURES}")
        sys.exit(1)
    print("all checks accept correct output and reject broken output")


if __name__ == "__main__":
    main()
