"""Output checks, run outside the timed region.

Each check returns a list of problems (empty when the output is
correct), so a run can report every problem it found and
``selftest.py`` can show that each check rejects a broken output.

* (a) :func:`check_schedule` replays a simulated schedule from its
  execution log.
* (b) :func:`check_strategies` compares the MILP, the exact
  branch-and-bound and the heuristic on captured activation contexts.
* (c) :func:`check_served` compares served decisions with
  ``simulate()``'s, and :func:`check_fingerprints` the fingerprints
  around a journal recovery.
* (d) :func:`check_aggregates` compares grid aggregates.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Any, Sequence

#: Schedule slack; the simulator itself flags a miss beyond 1e-6.
TIME_TOL = 1e-6
ENERGY_REL = 1e-9
#: MILP and exact energies come from different arithmetic paths.
STRATEGY_REL = 1e-6
#: Contexts at most this large are cross-checked against ``exact``.
EXACT_MAX_TASKS = 8


def check_schedule(trace: Any, result: Any) -> list[str]:
    """(a) Replay ``result.execution_log`` against the trace.

    Accepted and rejected partition the requests; no two spans overlap
    on one resource; every admitted job that was not evicted runs its
    full work (sum of span / WCET >= 1) and finishes by its absolute
    deadline; a rejected job never runs; and ``total_energy -
    migration_energy`` equals the sum of span / WCET x energy.
    """
    problems: list[str] = []
    n = len(trace.requests)
    accepted, rejected = set(result.accepted), set(result.rejected)
    if accepted & rejected or accepted | rejected != set(range(n)):
        problems.append("accepted and rejected do not partition the requests")
    by_resource: dict[int, list] = defaultdict(list)
    work: dict[int, float] = defaultdict(float)
    finish: dict[int, float] = {}
    energy = 0.0
    for span in result.execution_log:
        by_resource[span.resource].append(span)
        if span.kind != "work":
            continue
        task = trace.task_of(trace.requests[span.job_id])
        run = span.end - span.start
        work[span.job_id] += run / task.wcet[span.resource]
        energy += run / task.wcet[span.resource] * task.energy[span.resource]
        finish[span.job_id] = max(finish.get(span.job_id, 0.0), span.end)
    for resource, spans in by_resource.items():
        spans.sort(key=lambda s: (s.start, s.end))
        for before, after in zip(spans, spans[1:]):
            if after.start < before.end - TIME_TOL:
                problems.append(
                    f"resource {resource}: job {after.job_id} starts at "
                    f"{after.start} before job {before.job_id} ends at "
                    f"{before.end}"
                )
    for job in sorted(accepted - set(result.evicted)):
        deadline = trace.requests[job].absolute_deadline
        if work.get(job, 0.0) < 1.0 - TIME_TOL:
            problems.append(f"job {job} ran {work.get(job, 0.0):.6f} of its work")
        elif finish[job] > deadline + TIME_TOL:
            problems.append(
                f"job {job} finished at {finish[job]} after its deadline "
                f"{deadline}"
            )
    for job in sorted(rejected & set(work)):
        problems.append(f"rejected job {job} ran")
    expected = result.total_energy - result.migration_energy
    if not math.isclose(expected, energy, rel_tol=ENERGY_REL, abs_tol=1e-9):
        problems.append(
            f"total - migration energy {expected!r} != executed {energy!r}"
        )
    return problems


def solve_contexts(contexts: Sequence[Any]) -> list[tuple[Any, Any, Any]]:
    """(MILP, exact, heuristic) decisions on each context small enough
    for the exact search's node budget."""
    from repro.registry import resolve_strategy

    milp = resolve_strategy("milp")
    exact = resolve_strategy("exact")
    heuristic = resolve_strategy("heuristic")
    return [
        (milp.solve(context), exact.solve(context), heuristic.solve(context))
        for context in contexts
        if len(context.tasks) <= EXACT_MAX_TASKS
    ]


def check_strategies(triples: Sequence[tuple[Any, Any, Any]]) -> list[str]:
    """(b) The MILP's feasibility and energy equal the exact search's;
    the heuristic is never feasible where the MILP is not and never
    reaches lower energy."""
    problems: list[str] = []
    for index, (milp, exact, heuristic) in enumerate(triples):
        if milp.feasible != exact.feasible:
            problems.append(
                f"context {index}: MILP feasible={milp.feasible}, "
                f"exact feasible={exact.feasible}"
            )
        elif milp.feasible and not math.isclose(
            milp.energy, exact.energy, rel_tol=STRATEGY_REL, abs_tol=1e-9
        ):
            problems.append(
                f"context {index}: MILP energy {milp.energy!r} != exact "
                f"{exact.energy!r}"
            )
        if heuristic.feasible and not milp.feasible:
            problems.append(f"context {index}: heuristic feasible, MILP not")
        elif heuristic.feasible and heuristic.energy < milp.energy * (
            1 - STRATEGY_REL
        ) - 1e-9:
            problems.append(
                f"context {index}: heuristic energy {heuristic.energy!r} "
                f"below MILP {milp.energy!r}"
            )
    return problems


def statuses(result: Any) -> list[str]:
    """``simulate()``'s decisions in request order."""
    out = ["rejected"] * result.n_requests
    for index in result.accepted:
        out[index] = "accepted"
    return out


def check_served(served: Sequence[str], simulated: Sequence[str]) -> list[int]:
    """(c) Requests whose served decision differs from ``simulate()``'s
    on the same trace (a missing decision counts as differing)."""
    return [
        index
        for index, want in enumerate(simulated)
        if index >= len(served) or served[index] != want
    ]


def check_fingerprints(before: str, after: str) -> list[str]:
    """(c) The engine fingerprint that ``stats`` reports after a journal
    recovery equals the one reported before the restart."""
    if before == after:
        return []
    return [f"fingerprint {after} after recovery != {before} before restart"]


def aggregate_digest(aggregates: dict[str, Any]) -> dict[str, tuple]:
    """The comparable part of ``run_matrix``'s output."""
    return {
        label: (
            tuple(aggregate.rejection_percentages),
            tuple(aggregate.normalized_energies),
            aggregate.n_failures,
        )
        for label, aggregate in sorted(aggregates.items())
    }


def check_aggregates(
    got: dict[str, tuple], want: dict[str, tuple], what: str
) -> list[str]:
    """(d) Two grids' aggregates are equal, label by label."""
    if got.keys() != want.keys():
        return [f"{what}: labels {sorted(got)} != {sorted(want)}"]
    return [
        f"{what}: {label} differs: {got[label]} != {want[label]}"
        for label in got
        if got[label] != want[label]
    ]
