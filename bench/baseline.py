"""Run the benchmark over several seeds and summarize every metric.

    python3 bench/baseline.py --seeds 1-10 --traced-seeds 1-2 --out bench/baseline.json

runs ``bench/run.py`` once per workload and seed untraced, and once per
traced seed traced, one run at a time, each measuring BENCHMARK.json's
``run_seconds``. It writes per workload the median and quartiles of each
metric, the failure counts and the per-run values. Before and after
figures for a change come from the same command on both commits.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import gen  # noqa: E402


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results) -> dict:
    metrics = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        median = statistics.median(values)
        metrics[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "iqr_over_median": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return {
        "runs": len(results),
        "attempted": [r["attempted"] for r in results],
        "failed": [r["failed"] for r in results],
        "correct": all(r["correct"] for r in results),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--traced-seeds", default="1",
                        help="seeds for the traced runs that give per-layer metrics")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    report = {
        "claim": None,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "arch": platform.machine()},
        "run_seconds": seconds,
        "workloads": {},
    }
    for workload in gen.GENERATORS:
        plain = [one_run(workload, s, seconds, 0) for s in seed_list(args.seeds)]
        traced = [one_run(workload, s, seconds, 1) for s in seed_list(args.traced_seeds)]
        report["workloads"][workload] = {
            "why": gen.WHY[workload],
            "end_to_end": summarize(plain),
            "per_layer": summarize(traced),
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
