"""Steadiness runs: two sets of the benchmark on seeds 1-10, summarised.

    python3 bench/steady.py

Runs ``bench/run.py --trace 0`` once per (set, workload, seed), one run at
a time, for every workload in ``BENCHMARK.json`` and its ``run_seconds``.
The second set starts after the first has ended, as a later set of runs on
the same code would. For every end-to-end metric it prints each set's
median, first and third quartiles (``statistics.quantiles(values, n=4)``)
and their distance as a share of the median, then the second median's
change against the first, next to the metric's bound. The summary is also
written to ``bench/out/steady.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
SETS = 2


def run_set(spec: dict) -> dict:
    """One run per (workload, seed); the results by workload."""
    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            runs.append(json.loads(done.stdout.splitlines()[-1]))
            print(workload, seed, done.stdout.splitlines()[-1], flush=True)
        results[workload] = runs
    return results


def summarise(runs: list[dict], name: str) -> dict:
    values = [run["metrics"][name]["value"] for run in runs]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sets = [run_set(spec) for _ in range(SETS)]

    summary = {}
    for workload in sets[0]:
        rows = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = [summarise(results[workload], name) for results in sets]
            change = per_set[-1]["median"] / per_set[0]["median"] - 1
            rows[name] = {"sets": per_set, "median_change": change, "bound": bound}
            for i, row in enumerate(per_set, 1):
                print(f"{workload:6} {name:12} set {i}  median {row['median']:.6g}  "
                      f"q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  spread {row['spread']:.3f}",
                      flush=True)
            print(f"{workload:6} {name:12} median change {change:+.3f}  bound {bound}",
                  flush=True)
        summary[workload] = {
            "seeds": list(SEEDS),
            "correct": all(run["correct"] for results in sets for run in results[workload]),
            "failed_share": [[run["failed"] / run["attempted"] for run in results[workload]]
                             for results in sets],
            "metrics": rows,
        }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
