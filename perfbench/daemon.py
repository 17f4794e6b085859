"""Host ``repro.serve.AdmissionServer`` instances for the serve workloads.

Run as ``python3 perfbench/daemon.py --workload W --seed N``.  The
process makes the workload's traces from the seed, prints ``{"ready":
true}`` and then takes one JSON command per line on stdin, answering
each with one JSON line on stdout (logs go to stderr):

* ``{"op": "host", "trace": i, "predictor": p, "journal": path}`` boots
  a replay-mode server with trace ``i``'s own task catalog and an
  fsync'd journal at ``path``, answers ``{"port": ...}`` once it
  listens, serves until a client sends ``shutdown``, and then answers
  ``{"energy": ..., "journal_bytes": ...}``.  When
  the journal already holds records, construction recovers the engine
  from it first: that is the restart.
* ``{"op": "trace", "on": true|false, "spans": path}`` turns the span
  tracer on, or turns it off, appends the spans to ``path`` and
  answers with their summary.
* ``{"op": "exit"}`` ends the process.

:class:`Daemon` is the benchmark's side of that pipe.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import subprocess
import sys


class Daemon:
    """The benchmark's end of a daemon process: its command pipe."""

    def __init__(self, workload: str, seed: int) -> None:
        self.process = subprocess.Popen(
            [
                sys.executable,
                os.path.abspath(__file__),
                "--workload",
                workload,
                "--seed",
                str(seed),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def wait_ready(self) -> None:
        if not self.read().get("ready"):
            raise RuntimeError("daemon did not start")

    def send(self, command: dict) -> None:
        assert self.process.stdin is not None
        self.process.stdin.write(json.dumps(command) + "\n")
        self.process.stdin.flush()

    def read(self) -> dict:
        assert self.process.stdout is not None
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("daemon exited")
        return json.loads(line)

    def close(self) -> None:
        """Stop the process and wait until it has ended."""
        if self.process.poll() is None:
            try:
                self.send({"op": "exit"})
                self.process.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.process.kill()
        self.process.wait()
        for pipe in (self.process.stdin, self.process.stdout):
            if pipe is not None:
                pipe.close()


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def host(platform, trace, predictor: str, journal: str, tracer) -> None:
    from repro.serve.server import AdmissionServer, ServeConfig

    config = ServeConfig(
        host="127.0.0.1",
        port=0,
        mode="replay",
        journal_path=journal,
        # The reprovision trigger is a live-service extension that
        # simulate() does not have; decisions match only with it off.
        error_threshold=math.inf if predictor != "off" else 0.5,
    )

    async def serve() -> AdmissionServer:
        boot = "serve.restart" if os.path.exists(journal) else "serve.boot"
        with tracer.span(boot):
            server = AdmissionServer(
                platform,
                "heuristic",
                None if predictor == "off" else predictor,
                tasks=trace.tasks,
                config=config,
            )
            await server.start()
        _reply({"port": server.port})
        await server.serve_until_shutdown()
        return server

    server = asyncio.run(serve())
    _reply(
        {
            "energy": server.engine.state.total_energy,
            "journal_bytes": os.path.getsize(journal),
        }
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import inputs

    inputs.use_checkout_source()
    import repro.serve.server  # noqa: F401 - boot cost belongs to set-up
    import spans

    platform = inputs.platform()
    traces = inputs.make_traces(args.workload, args.seed)
    tracer = spans.Tracer()
    _reply({"ready": True})
    for line in sys.stdin:
        command = json.loads(line)
        op = command["op"]
        if op == "host":
            host(
                platform,
                traces[command["trace"]],
                command["predictor"],
                command["journal"],
                tracer,
            )
        elif op == "trace":
            if command["on"]:
                tracer.install(spans.DECISION_POINTS + spans.SERVE_POINTS)
                _reply({"tracing": True})
            else:
                tracer.uninstall()
                tracer.dump(command["spans"], source="daemon")
                _reply(
                    {
                        "summary": tracer.summary(),
                        "counts": dict(tracer.counts),
                        "recover_load_s": tracer.self_time_under(
                            "serve.recover.load", "serve.restart"
                        ),
                    }
                )
                tracer.reset()
        elif op == "exit":
            break
        else:
            raise ValueError(f"unknown command {op!r}")


if __name__ == "__main__":
    main()
