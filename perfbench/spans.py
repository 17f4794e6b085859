"""In-memory span tracer that wraps the program's public callables.

A traced run patches each callable named in the ``*_POINTS`` tables
below (a class or module attribute) with a wrapper that
records one span per call: name, start, end, parent span and the id of
the admission decision it belongs to.  Spans stay in memory until the
run ends.  :meth:`Tracer.uninstall` restores every original attribute,
so the patching lasts for one run only.

A span's *self time* is its duration minus the time its direct child
spans cover.  Calls are synchronous and single-threaded in both the
benchmark process and the daemon's event loop, so children never
overlap and the subtraction is exact.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

#: (dotted owner, attribute, span name): trace generation, wrapped
#: during set-up.
GENERATE_POINTS = (
    ("repro.experiments.common", "generate_trace_group", "workload.generate"),
)

#: The admission decision's layers, wrapped in the benchmark process and
#: in the daemon.
DECISION_POINTS = (
    ("repro.predict.oracle.OraclePredictor", "predict_horizon", "predict"),
    ("repro.predict.markov.ComposedPredictor", "predict_horizon", "predict"),
    ("repro.core.admission.AdmissionController", "decide", "core.decide"),
    ("repro.core.heuristic.HeuristicResourceManager", "solve",
     "core.heuristic.solve"),
    ("repro.core.milp_rm.MilpResourceManager", "solve", "core.milp.solve"),
    ("repro.milp.scipy_backend", "solve_with_scipy", "milp.matrix"),
    ("repro.milp.scipy_backend", "milp", "milp.highs"),
    ("repro.sched.timeline.Timeline", "probe", "sched.probe"),
    ("repro.sched.timeline.Timeline", "insert", "sched.insert"),
    ("repro.sim.state.PlatformState", "advance", "sim.advance"),
    ("repro.sim.state.PlatformState", "active_views", "sim.views"),
    ("repro.sim.state.PlatformState", "apply_mapping", "sim.apply_mapping"),
    ("repro.sim.simulator.Simulator", "run", "sim.run"),
)

#: The daemon's own layers, wrapped in the daemon process.
SERVE_POINTS = (
    ("repro.serve.server", "decode_frame", "serve.wire.decode"),
    ("repro.serve.server", "encode_frame", "serve.wire.encode"),
    ("repro.serve.server.AdmissionServer", "_execute", "serve.execute"),
    ("repro.serve.server.AdmissionEngine", "decide", "serve.engine.decide"),
    ("repro.serve.journal.AdmissionJournal", "append_intent",
     "serve.journal.append"),
    ("repro.serve.journal.AdmissionJournal", "append_outcome",
     "serve.journal.append"),
    ("repro.serve.journal.AdmissionJournal", "append_shed",
     "serve.journal.append"),
    ("repro.serve.journal.AdmissionJournal", "append_snapshot",
     "serve.journal.append"),
    ("repro.serve.journal.os", "fsync", "serve.journal.fsync"),
    ("repro.serve.journal.AdmissionJournal", "__init__",
     "serve.recover.load"),
    ("repro.serve.server", "recover_engine", "serve.recover.replay"),
)

#: (span name, parent span name) pairs that open a new admission
#: decision: the simulator's per-request advance, a served admit, and
#: an admit re-decided by journal replay.
DECISION_STARTS = frozenset(
    {
        ("sim.advance", "sim.run"),
        ("serve.execute", None),
        ("serve.engine.decide", "serve.recover.replay"),
    }
)


def _resolve(dotted: str) -> Any:
    """Import ``a.b.C`` as module ``a.b`` attribute ``C`` (or a module)."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        module, _, attr = dotted.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """Collects spans from wrapped callables (one instance per run)."""

    def __init__(self) -> None:
        # Each span: [name, start, end, parent index, decision id].
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._decision = -1
        self._patched: list[tuple[Any, str, Any]] = []

    # -- patching ------------------------------------------------------

    def install(self, points: tuple[tuple[str, str, str], ...]) -> None:
        for owner_name, attr, span_name in points:
            owner = _resolve(owner_name)
            # An inherited method is patched onto the named class and
            # deleted again on uninstall; an own one is put back.
            own = attr in vars(owner) if isinstance(owner, type) else True
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original if own else None))
            setattr(owner, attr, self._wrap(original, span_name))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _open(self, name: str) -> list:
        stack = self._stack
        parent = stack[-1] if stack else None
        parent_name = self.spans[parent][0] if parent is not None else None
        if (name, parent_name) in DECISION_STARTS:
            self._decision += 1
        record = [name, time.perf_counter(), 0.0, parent, self._decision]
        stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn: Callable, name: str) -> Callable:
        observe = _OBSERVERS.get(name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if observe is not None:
                observe(self.counts, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code; recorded
        only while wrappers are installed."""
        if not self._patched:
            yield
            return
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    # -- reporting -----------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._decision = -1

    def _self_times(self) -> list[float]:
        self_times = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                self_times[parent] -= end - start
        return self_times

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        for (name, start, end, _, _), self_s in zip(
            self.spans, self._self_times()
        ):
            row = table[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += self_s
        return {name: dict(row) for name, row in table.items()}

    def self_time_under(self, name: str, parent_name: str) -> float:
        """Self time of ``name`` spans whose parent is ``parent_name``."""
        return sum(
            self_s
            for (span_name, _, _, parent, _), self_s in zip(
                self.spans, self._self_times()
            )
            if span_name == name
            and parent is not None
            and self.spans[parent][0] == parent_name
        )

    def milp_repairs(self) -> int:
        """No-good-cut re-solves: HiGHS matrix solves beyond the first
        inside one ``MilpResourceManager.solve``."""
        per_solve: dict[int, int] = defaultdict(int)
        for name, _, _, parent, _ in self.spans:
            if name == "milp.matrix" and parent is not None:
                per_solve[parent] += 1
        return sum(max(0, n - 1) for n in per_solve.values())

    def dump(self, path: str, *, source: str) -> None:
        """Append the spans to a gzip'd JSON-lines file, one
        ``[source, id, name, start, end, parent, decision]`` per line
        (times in ``perf_counter`` seconds; ``parent`` is an id)."""
        with gzip.open(path, "at", encoding="utf-8", compresslevel=1) as out:
            for index, (name, start, end, parent, decision) in enumerate(
                self.spans
            ):
                out.write(
                    json.dumps([source, index, name, start, end, parent, decision])
                    + "\n"
                )


def _count_forecasts(counts: dict[str, float], result: Any) -> None:
    if result:
        counts["forecasts_made"] += 1


def _count_solves(counts: dict[str, float], outcome: Any) -> None:
    counts["solver_calls"] += outcome.solver_calls


def _count_sim_used(counts: dict[str, float], result: Any) -> None:
    counts["forecasts_used"] += result.predictions_used


def _count_served_used(counts: dict[str, float], response: Any) -> None:
    if response.used_prediction:
        counts["forecasts_used"] += 1


_OBSERVERS: dict[str, Callable[[dict[str, float], Any], None]] = {
    "predict": _count_forecasts,
    "core.decide": _count_solves,
    "sim.run": _count_sim_used,
    "serve.engine.decide": _count_served_used,
}
