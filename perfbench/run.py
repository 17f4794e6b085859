"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload paper-heuristic --seed 1 \
        --seconds 18 --trace 0

Run it from the root of a checkout; it imports the program from that
checkout's ``src``.  ``--trace 0`` prints the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` measures untraced and then traced,
prints the per-layer metrics and writes the span dump and a report
under ``perfbench/out``.  The last line of stdout is the result; logs
go to stderr.  See README.md.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402 - set-up is timed from the first line
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import daemon  # noqa: E402
import inputs  # noqa: E402

#: Set-ups per run whose median is ``setup_s``: this run's own and
#: that many more in fresh processes.
SETUP_PROBES = 2


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.MAKEUP))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="only set up, then print the set-up time (used by the run)",
    )
    return parser.parse_args()


def setup_probes(workload: str, seed: int) -> list[float]:
    """Set-up times of fresh processes doing this run's set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [
                sys.executable,
                os.path.abspath(__file__),
                "--workload",
                workload,
                "--seed",
                str(seed),
                "--setup-probe",
            ],
            check=True,
            stdout=subprocess.PIPE,
            text=True,
        ).stdout
        times.append(float(out.split()[-1]))
    return times


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def write_report(run, per_layer: list[dict], spans_file: str) -> str:
    """The traced run's report: layer table and tracing overhead."""
    path = os.path.join(
        inputs.OUT, f"{run.workload}-seed{run.seed}-report.md"
    )
    lines = [
        f"# {run.workload}, seed {run.seed}, {run.seconds:g} s",
        "",
        "Per round of the workload's inputs; self time is a span's time",
        "minus its child spans'.",
        "",
        "| layer metric | value | unit |",
        "|---|---|---|",
    ]
    for metric in per_layer:
        value = run.layer.get(metric["name"])
        if value:
            lines.append(f"| {metric['name']} | {value:.6g} | {metric['unit']} |")
    lines += ["", "| tracing overhead | untraced | traced | overhead |",
              "|---|---|---|---|"]
    for name, untraced, traced in run.overhead:
        ratio = untraced / traced - 1 if "per_s" in name else traced / untraced - 1
        lines.append(f"| {name} | {untraced:.6g} | {traced:.6g} | {ratio:+.1%} |")
    lines += ["", f"Spans: {os.path.basename(spans_file)}"]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return "\n".join(lines)


def main() -> None:
    args = parse_args()
    inputs.use_checkout_source()
    if args.workload.startswith("serve-"):
        # Client and daemon share one CPU: on a virtual machine a wake-up
        # across CPUs can cost a time that varies with the host's load.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # The daemon boots while this process imports the program.
    pipe = (
        daemon.Daemon(args.workload, args.seed)
        if args.workload.startswith("serve-")
        else None
    )
    import workloads

    run = workloads.Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.daemon = pipe
    if args.setup_probe:
        try:
            workloads.set_up(run)
        finally:
            if run.daemon is not None:
                run.daemon.close()
        print(time.perf_counter() - T0)
        return

    with open(os.path.join(inputs.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    os.makedirs(inputs.OUT, exist_ok=True)
    if run.trace and os.path.exists(workloads.spans_path(run)):
        os.remove(workloads.spans_path(run))
    try:
        workloads.set_up(run)
        setup_s = time.perf_counter() - T0
        workloads.WORKLOADS[run.workload](run)
    finally:
        if run.daemon is not None:
            run.daemon.close()
        shutil.rmtree(run.scratch, ignore_errors=True)

    if run.trace:
        for metric in spec["per_layer"]:
            run.layer.setdefault(metric["name"], 0.0)
        workloads.log(
            write_report(run, spec["per_layer"], workloads.spans_path(run))
        )
        wanted, values = spec["per_layer"], run.layer
    else:
        run.metrics["setup_s"] = statistics.median(
            [setup_s, *setup_probes(run.workload, run.seed)]
        )
        run.metrics["peak_rss_mb"] = peak_rss_mb()
        wanted, values = spec["end_to_end"], run.metrics
    for line in run.problems:
        workloads.log(f"CHECK FAILED {line}")
    print(
        json.dumps(
            {
                "correct": not run.problems,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted
                },
            }
        )
    )


if __name__ == "__main__":
    main()
