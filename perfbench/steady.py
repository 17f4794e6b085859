"""Run workloads repeatedly and show how steady each end-to-end metric is.

    python3 perfbench/steady.py --seeds 10 [--workloads serve-closed ...]

Runs ``run.py`` once per seed (1, 2, ...) for each workload, one run at
a time, and prints for each end-to-end metric the median, the first and
third quartiles (``statistics.quantiles(n=4)``), their distance as a
share of the median, and the bound ``BENCHMARK.json`` gives it.  A
spread above a third of the bound is flagged.  Every result is also
written to ``perfbench/out/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, check=True, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True,
            ).stdout
            result = json.loads(out.strip().splitlines()[-1])
            result["seed"] = seed
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}",
                  file=sys.stderr, flush=True)
        with open(os.path.join(HERE, "out", f"steady-{workload}.json"), "w",
                  encoding="utf-8") as f:
            json.dump(results, f, indent=1)
        print(f"\n{workload}: {len(results)} runs, failed share "
              f"{sorted({r['failed'] / r['attempted'] for r in results})}, "
              f"all correct: {all(r['correct'] for r in results)}")
        print(f"{'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            flag = "  > bound/3" if spread > metric["bound"] / 3 else ""
            print(f"{metric['name']:<20} {median:>12.6g} {q1:>12.6g} "
                  f"{q3:>12.6g} {spread:>8.3f} {metric['bound']:>6}{flag}")


if __name__ == "__main__":
    main()
