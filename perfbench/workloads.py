"""The four workloads, each driven through the program's public API.

A workload function takes a :class:`Run` and fills in its counts,
metrics and problems.  One operation is one admission decision: a
simulated request or a served admit.  It fails when the program
raises, replies ``ok: false`` or a check on that decision fails; a
rejection is a decision like any other.  Timed rounds repeat the same
operations until ``--seconds`` have passed, and each unit of work is
timed by its median over rounds (see :meth:`Run.rate`).

Import this module only after :func:`inputs.use_checkout_source`.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
import time
from collections import defaultdict
from typing import Any, Callable

from repro.core.base import MappingStrategy
from repro.experiments.executor import ParallelConfig
from repro.experiments.runner import RunSpec, run_matrix
from repro.registry import resolve_strategy
from repro.serve.client import ServeClient
from repro.serve.protocol import encode_frame
from repro.sim.simulator import SimulationConfig, simulate

import checks
import daemon
import inputs
import spans


class Run:
    """One benchmark run's settings and results."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.makeup = inputs.MAKEUP[workload]
        self.tracer = spans.Tracer()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, float] = {}
        self.layer: dict[str, float] = {}
        #: (figure, untraced, traced) pairs of a traced run.
        self.overhead: list[tuple[str, float, float]] = []
        self.scratch = os.path.join(inputs.OUT, f"run-{os.getpid()}")
        self.traces: list = []
        self.platform: Any = None
        self.daemon: daemon.Daemon | None = None

    def problem(self, where: str, found: list[str]) -> None:
        for line in found[:5]:
            self.problems.append(f"{where}: {line}")
        if len(found) > 5:
            self.problems.append(f"{where}: ... {len(found) - 5} more")

    def phases(self) -> list[bool]:
        """Whether each measuring phase is traced: a traced run measures
        untraced and then traced, each for half the time."""
        return [False, True] if self.trace else [False]

    def phase_seconds(self) -> float:
        return self.seconds / 2 if self.trace else self.seconds

    def label(self, trace_index: int) -> str:
        per_group = self.makeup.traces_per_group
        group = inputs.GROUPS[trace_index // per_group]
        return f"{group}{trace_index % per_group}"

    def units(self) -> list[tuple[int, str]]:
        """(trace index, predictor) pairs in a fixed order."""
        return [
            (index, predictor)
            for predictor in self.makeup.predictors
            for index in range(len(self.traces))
        ]

    def rate(self, times: dict[tuple, list[float]]) -> float:
        """Decisions per second over the units, each timed by its
        median over rounds."""
        decisions = sum(len(self.traces[unit[0]]) for unit in times)
        return decisions / sum(statistics.median(t) for t in times.values())


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def rounds(seconds: float, body: Callable[[], None]) -> int:
    """Run ``body`` as whole rounds within ``seconds``: at least one,
    and no further round once the last one's time would not fit.
    Return how many rounds ran."""
    start = last = time.perf_counter()
    count = 0
    while True:
        body()
        count += 1
        now = time.perf_counter()
        if now + (now - last) > start + seconds:
            return count
        last = now


def predictor_arg(name: str) -> str | None:
    return None if name == "off" else name


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------


def set_up(run: Run) -> None:
    """Trace generation and, for the serve workloads, waiting for the
    daemon started at the top of ``run.py`` to boot: with the imports,
    the work ``setup_s`` times."""
    if run.trace:
        run.tracer.install(spans.GENERATE_POINTS)
    run.traces = inputs.make_traces(run.workload, run.seed)
    if run.trace:
        run.tracer.uninstall()
        generate = run.tracer.summary().get("workload.generate", {})
        run.layer["workload.generate_s"] = generate.get("self_s", 0.0)
        run.tracer.reset()
    run.platform = inputs.platform()
    if run.daemon is not None:
        run.daemon.wait_ready()


# ----------------------------------------------------------------------
# Layer metrics from a tracer summary
# ----------------------------------------------------------------------


def layer_metrics(
    summary: dict[str, dict[str, float]],
    counts: dict[str, float],
    repairs: int,
    n_rounds: int,
) -> dict[str, float]:
    """The simulator-side layer metrics, per round."""

    def get(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0.0) / n_rounds

    decides = get("core.decide", "calls")
    made = counts.get("forecasts_made", 0.0)
    return {
        "predict.calls": get("predict", "calls"),
        "predict.self_s": get("predict", "self_s"),
        "predict.used_ratio": (
            counts.get("forecasts_used", 0.0) / made if made else 0.0
        ),
        "core.decide.calls": decides,
        "core.decide.self_s": get("core.decide", "self_s"),
        "core.solves_per_decision": (
            counts.get("solver_calls", 0.0) / n_rounds / decides
            if decides
            else 0.0
        ),
        "core.heuristic.solve.self_s": get("core.heuristic.solve", "self_s"),
        "core.milp.build_s": get("core.milp.solve", "self_s"),
        "core.milp.repairs": repairs / n_rounds,
        "milp.highs.calls": get("milp.highs", "calls"),
        "milp.matrix_s": get("milp.matrix", "self_s"),
        "milp.highs_s": get("milp.highs", "self_s"),
        "sched.probe.calls": get("sched.probe", "calls"),
        "sched.probe.self_s": get("sched.probe", "self_s"),
        "sched.insert.self_s": get("sched.insert", "self_s"),
        "sim.advance.calls": get("sim.advance", "calls"),
        "sim.advance.self_s": get("sim.advance", "self_s"),
        "sim.views.self_s": get("sim.views", "self_s"),
        "sim.apply_mapping.self_s": get("sim.apply_mapping", "self_s"),
        "sim.loop.self_s": get("sim.run", "self_s"),
    }


def bench_layers(run: Run, n_rounds: int) -> None:
    tracer = run.tracer
    run.layer.update(
        layer_metrics(
            tracer.summary(), tracer.counts, tracer.milp_repairs(), n_rounds
        )
    )
    tracer.dump(spans_path(run), source="bench")


def spans_path(run: Run) -> str:
    return os.path.join(inputs.OUT, f"{run.workload}-seed{run.seed}-spans.jsonl.gz")


# ----------------------------------------------------------------------
# paper-heuristic
# ----------------------------------------------------------------------


def paper_heuristic(run: Run) -> None:
    """Serial in-process ``simulate()`` of every trace with the
    heuristic, once per predictor."""
    reference: dict[tuple, tuple] = {}
    accepted = 0
    energies = []
    # Check round, untimed (it is also the warm-up): (a) on every cell.
    for index, predictor in run.units():
        trace = run.traces[index]
        run.attempted += len(trace)
        result = simulate(
            trace,
            run.platform,
            "heuristic",
            predictor_arg(predictor),
            SimulationConfig(collect_execution_log=True),
        )
        run.problem(
            f"(a) {run.label(index)}/{predictor}",
            checks.check_schedule(trace, result),
        )
        reference[index, predictor] = (result.accepted, result.total_energy)
        accepted += result.n_accepted
        energies.append(result.normalized_energy)
    run.metrics["admitted_requests"] = accepted
    run.metrics["energy_norm"] = statistics.fmean(energies)

    for traced in run.phases():
        times: dict[tuple, list[float]] = defaultdict(list)

        def one_round() -> None:
            for unit in run.units():
                trace = run.traces[unit[0]]
                run.attempted += len(trace)
                start = time.perf_counter()
                try:
                    result = simulate(
                        trace, run.platform, "heuristic", predictor_arg(unit[1])
                    )
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    run.failed += len(trace)
                    run.problems.append(f"{unit}: {exc!r}")
                    continue
                times[unit].append(time.perf_counter() - start)
                want_accepted, want_energy = reference[unit]
                run.failed += len(set(result.accepted) ^ set(want_accepted))
                if result.total_energy != want_energy:
                    run.problems.append(f"{unit}: energy differs between rounds")

        if traced:
            run.tracer.install(spans.DECISION_POINTS)
        try:
            n_rounds = rounds(run.phase_seconds(), one_round)
        finally:
            run.tracer.uninstall()
        total = run.rate(times)
        log(f"{'traced' if traced else 'untraced'}: {n_rounds} rounds, "
            f"{total:.0f} decisions/s")
        if not traced:
            run.metrics["decisions_per_s"] = total
            for predictor in run.makeup.predictors:
                run.layer[f"sim.{predictor}_decisions_per_s"] = run.rate(
                    {u: t for u, t in times.items() if u[1] == predictor}
                )
        else:
            run.overhead.append(
                ("decisions_per_s", run.metrics["decisions_per_s"], total)
            )
            bench_layers(run, n_rounds)


# ----------------------------------------------------------------------
# paper-grid
# ----------------------------------------------------------------------


class RecordingStrategy(MappingStrategy):
    """Keeps every context it is asked to solve; delegates the solve."""

    def __init__(self, inner: MappingStrategy) -> None:
        self.inner = inner
        self.name = inner.name
        self.contexts: list = []

    def solve(self, context: Any) -> Any:
        self.contexts.append(context)
        return self.inner.solve(context)


#: Contexts cross-checked against the exact search in one run.
CROSS_CHECK_CONTEXTS = 24


def grid_specs(run: Run, sim_config: SimulationConfig | None = None) -> list:
    return [
        RunSpec.from_names(
            f"{strategy}/{predictor}",
            strategy,
            predictor_arg(predictor),
            sim_config=sim_config,
        )
        for strategy in run.makeup.strategies
        for predictor in run.makeup.predictors
    ]


def paper_grid(run: Run) -> None:
    """The fig2/fig3 cell matrix through ``run_matrix`` on a process
    pool of ``inputs.pool_width()`` workers."""
    specs = grid_specs(run)
    per_round = len(specs) * sum(len(t) for t in run.traces)

    # Untimed: (a) on the heuristic cells, run serially, and the
    # activation contexts (b) cross-checks.
    serial_heuristic = {}
    contexts: list = []
    for predictor in run.makeup.predictors:
        rejections, energies = [], []
        for index, trace in enumerate(run.traces):
            recorder = RecordingStrategy(resolve_strategy("heuristic"))
            result = simulate(
                trace,
                run.platform,
                recorder,
                predictor_arg(predictor),
                SimulationConfig(collect_execution_log=True),
            )
            run.problem(
                f"(a) {run.label(index)}/heuristic/{predictor}",
                checks.check_schedule(trace, result),
            )
            rejections.append(result.rejection_percentage)
            energies.append(result.normalized_energy)
            if predictor != "off":
                contexts.extend(
                    c for c in recorder.contexts
                    if len(c.tasks) <= checks.EXACT_MAX_TASKS
                )
        serial_heuristic[f"heuristic/{predictor}"] = (
            tuple(rejections), tuple(energies), 0
        )
    step = max(1, len(contexts) // CROSS_CHECK_CONTEXTS)
    triples = checks.solve_contexts(contexts[::step][:CROSS_CHECK_CONTEXTS])
    run.problem("(b)", checks.check_strategies(triples))
    log(f"(b) cross-checked {len(triples)} contexts")

    walls: list[float] = []
    first: dict[str, tuple] = {}
    last: dict[str, Any] = {}

    def one_round() -> None:
        run.attempted += per_round
        start = time.perf_counter()
        aggregates = run_matrix(
            run.traces,
            run.platform,
            specs,
            parallel=ParallelConfig(jobs=inputs.pool_width()),
        )
        walls.append(time.perf_counter() - start)
        for aggregate in aggregates.values():
            for failure in aggregate.failures:
                run.failed += len(run.traces[failure.trace_index])
                run.problems.append(f"cell failed: {failure.error}")
        digest = checks.aggregate_digest(aggregates)
        if first:
            run.problem(
                "(d) rounds", checks.check_aggregates(digest, first, "grid")
            )
        else:
            first.update(digest)
            run.problem(
                "(d) heuristic cells, pool vs serial",
                checks.check_aggregates(
                    {k: first[k] for k in serial_heuristic},
                    serial_heuristic,
                    "grid",
                ),
            )
        last.clear()
        last.update(aggregates)

    n_rounds = rounds(run.phase_seconds(), one_round)
    run.metrics["decisions_per_s"] = per_round / statistics.median(walls)
    run.metrics["admitted_requests"] = sum(
        round(len(trace) * (1 - rejection / 100))
        for aggregate in last.values()
        for trace, rejection in zip(run.traces, aggregate.rejection_percentages)
    )
    run.metrics["energy_norm"] = statistics.fmean(
        e for aggregate in last.values() for e in aggregate.normalized_energies
    )
    log(f"{n_rounds} pool rounds, median grid wall "
        f"{statistics.median(walls):.2f} s")
    if not run.trace:
        return

    cells = [s for aggregate in last.values() for s in aggregate.cell_stats]
    busy = sum(s.wall_time for s in cells)
    run.layer.update(
        {
            "experiments.cells": len(cells),
            "experiments.retries": sum(s.attempts - 1 for s in cells),
            "experiments.cell_busy_s": busy,
            "experiments.pool_efficiency": busy
            / (inputs.pool_width() * walls[-1]),
        }
    )
    # Wrappers do not follow into pool workers, so the traced pass runs
    # the same cells serially in-process, with the execution log on so
    # that (a) covers the MILP cells too.
    logged = grid_specs(run, SimulationConfig(collect_execution_log=True))
    run.attempted += per_round
    run.tracer.install(spans.DECISION_POINTS)
    start = time.perf_counter()
    try:
        serial = run_matrix(run.traces, run.platform, logged, keep_results=True)
    finally:
        run.tracer.uninstall()
    run.overhead.append(
        ("serial grid s (untraced: cell busy)", busy, time.perf_counter() - start)
    )
    run.problem(
        "(d) pool vs serial traced pass",
        checks.check_aggregates(checks.aggregate_digest(serial), first, "grid"),
    )
    for spec_label, aggregate in serial.items():
        for index, result in enumerate(aggregate.results):
            run.problem(
                f"(a) {run.label(index)}/{spec_label}",
                checks.check_schedule(run.traces[index], result),
            )
    bench_layers(run, 1)


# ----------------------------------------------------------------------
# serve-closed / serve-pipelined
# ----------------------------------------------------------------------


def _frames(trace: Any) -> list[bytes]:
    last = len(trace.requests) - 1
    frames = []
    for request in trace.requests:
        payload = {
            "op": "admit",
            "tenant": "t0",
            "task": request.type_id,
            "deadline": request.deadline,
            "arrival": request.arrival,
        }
        if request.index == last:
            payload["final"] = True
        frames.append(encode_frame(payload))
    return frames


def stream_closed(
    client: ServeClient, frames: list[bytes]
) -> tuple[list[dict], list[float], list[float]]:
    """One admit in flight at a time.  Returns the responses and each
    admit's send and response times."""
    responses, sent, received = [], [], []
    for frame in frames:
        sent.append(time.perf_counter())
        client.send_raw(frame)
        responses.append(client.read_response())
        received.append(time.perf_counter())
    return responses, sent, received


def stream_pipelined(
    client: ServeClient, frames: list[bytes]
) -> tuple[list[dict], list[float], list[float]]:
    """``PIPELINE_WINDOW`` admits in flight on one connection."""
    responses: list[dict] = []
    sent: list[float] = []
    received: list[float] = []

    def receive() -> None:
        responses.append(client.read_response())
        received.append(time.perf_counter())

    for frame in frames:
        if len(sent) - len(responses) == inputs.PIPELINE_WINDOW:
            receive()
        sent.append(time.perf_counter())
        client.send_raw(frame)
    while len(responses) < len(sent):
        receive()
    return responses, sent, received


def serve(run: Run) -> None:
    """Each trace replayed with declared arrivals into the daemon with
    the fsync'd journal on, once per predictor; ``serve-closed`` then
    restarts the server over the journal."""
    pipe = run.daemon
    assert pipe is not None
    closed = run.workload == "serve-closed"
    stream = stream_closed if closed else stream_pipelined
    frames = [_frames(trace) for trace in run.traces]
    reference = {}
    for index, predictor in run.units():
        result = simulate(
            run.traces[index], run.platform, "heuristic",
            predictor_arg(predictor),
        )
        reference[index, predictor] = (
            checks.statuses(result), result.total_energy
        )
    os.makedirs(run.scratch, exist_ok=True)
    journal = os.path.join(run.scratch, "journal.jsonl")

    def host(index: int, predictor: str) -> ServeClient:
        pipe.send(
            {"op": "host", "trace": index, "predictor": predictor,
             "journal": journal}
        )
        return ServeClient("127.0.0.1", pipe.read()["port"], timeout=60.0)

    def stop(client: ServeClient) -> dict:
        client.shutdown()
        client.close()
        return pipe.read()

    for traced in run.phases():
        walls: dict[tuple, list[float]] = defaultdict(list)
        latencies: list[float] = []
        recoveries: list[float] = []
        journal_bytes = 0
        outcome: dict[tuple, tuple] = {}

        def one_round() -> None:
            nonlocal journal_bytes
            for unit in run.units():
                index, predictor = unit
                where = f"(c) {run.label(index)}/{predictor}"
                if os.path.exists(journal):
                    os.remove(journal)
                client = host(index, predictor)
                run.attempted += len(frames[index])
                responses, sent, received = stream(client, frames[index])
                walls[unit].append(received[-1] - sent[0])
                latencies.extend(b - a for a, b in zip(sent, received))
                before = client.stats()["fingerprint"]
                done = stop(client)
                journal_bytes += done["journal_bytes"]
                served = [
                    r["status"] if r.get("ok") else "error" for r in responses
                ]
                want, want_energy = reference[unit]
                mismatched = checks.check_served(served, want)
                run.failed += len(mismatched)
                if not mismatched and not math.isclose(
                    done["energy"], want_energy,
                    rel_tol=checks.ENERGY_REL, abs_tol=1e-9,
                ):
                    run.problems.append(
                        f"{where}: served energy {done['energy']!r} != "
                        f"simulated {want_energy!r}"
                    )
                if closed:
                    start = time.perf_counter()
                    client = host(index, predictor)
                    after = client.stats()["fingerprint"]
                    recoveries.append(time.perf_counter() - start)
                    stop(client)
                    run.problem(where, checks.check_fingerprints(before, after))
                outcome[unit] = (
                    served.count("accepted"),
                    done["energy"] / run.traces[index].stats().energy_demand,
                )

        if traced:
            pipe.send({"op": "trace", "on": True})
            pipe.read()
        n_rounds = rounds(run.phase_seconds(), one_round)
        total = run.rate(walls)
        log(f"{'traced' if traced else 'untraced'}: {n_rounds} rounds, "
            f"{total:.0f} decisions/s")
        if not traced:
            run.metrics["decisions_per_s"] = total
            run.metrics["admitted_requests"] = sum(
                a for a, _ in outcome.values()
            )
            run.metrics["energy_norm"] = statistics.fmean(
                e for _, e in outcome.values()
            )
            percentiles = statistics.quantiles(latencies, n=100)
            run.layer["serve.latency_p50_ms"] = 1e3 * percentiles[49]
            run.layer["serve.latency_p99_ms"] = 1e3 * percentiles[98]
            run.layer["serve.recover_s"] = (
                statistics.median(recoveries) if recoveries else 0.0
            )
            continue
        run.overhead.append(
            ("decisions_per_s", run.metrics["decisions_per_s"], total)
        )
        pipe.send({"op": "trace", "on": False, "spans": spans_path(run)})
        report = pipe.read()
        serve_layers(run, report, n_rounds, sum(latencies), journal_bytes)


def serve_layers(
    run: Run,
    report: dict,
    n_rounds: int,
    round_trip_s: float,
    journal_bytes: int,
) -> None:
    """Per-round layer metrics from the daemon's spans."""
    summary = report["summary"]

    def get(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0.0) / n_rounds

    server_side = sum(
        get(name, "total_s")
        for name in ("serve.execute", "serve.wire.decode", "serve.wire.encode")
    )
    admits = get("serve.execute", "calls")
    run.layer.update(layer_metrics(summary, report["counts"], 0, n_rounds))
    run.layer.update(
        {
            "serve.wire.decode_s": get("serve.wire.decode", "self_s"),
            "serve.wire.encode_s": get("serve.wire.encode", "self_s"),
            "serve.engine.decide_s": get("serve.engine.decide", "self_s"),
            "serve.journal.appends": get("serve.journal.append", "calls"),
            "serve.journal.append_s": get("serve.journal.append", "self_s"),
            "serve.journal.fsyncs": get("serve.journal.fsync", "calls"),
            "serve.journal.fsync_s": get("serve.journal.fsync", "self_s"),
            "serve.journal.bytes_per_decision": (
                journal_bytes / n_rounds / admits if admits else 0.0
            ),
            "serve.wait_s": round_trip_s / n_rounds - server_side,
            "serve.recover.load_s": report["recover_load_s"] / n_rounds,
            "serve.recover.replay_s": get("serve.recover.replay", "total_s"),
        }
    )


WORKLOADS: dict[str, Callable[[Run], None]] = {
    "paper-heuristic": paper_heuristic,
    "paper-grid": paper_grid,
    "serve-closed": serve,
    "serve-pipelined": serve,
}
