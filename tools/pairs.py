"""Interleaved benchmark pairs of this checkout against another revision.

    python tools/pairs.py --parent REV --out BENCH_<n>.json

Runs ``bench/run.py`` on every workload of ``BENCHMARK.json`` for seeds
1-10, once from a tree holding ``src`` of the revision ``REV`` (the parent)
and once from a tree holding this checkout's ``src`` (the change), each for
``BENCHMARK.json``'s ``run_seconds``. Both trees are temporary, and both
take this checkout's ``bench/`` and ``BENCHMARK.json``, so the benchmark
code is the same on each side. Odd seeds run the parent first and even
seeds the change first; within a seed, ``wide`` runs before ``batch``. It
then makes one traced 1-second seed-1 run per side and workload, the
parent first.

Each end-to-end metric gets, per side, the median, the quartiles
(``statistics.quantiles(..., method="inclusive")``) and the runs, and
across the pairs:

- ``change_wins``, the pairs in which the change is strictly better;
- ``relative_change``, (change median - parent median) / parent median;
- ``worse_by``, the relative change in the direction that is worse;
- ``within_bound``, whether ``worse_by`` is at most the metric's bound;
- ``median_gap_over_parent_iqr``, the gap between the medians over the
  parent's interquartile range, or null where the parent's runs have none.

The output holds the keys of the committed ``BENCH_*.json`` files.
``change``, ``claim`` and ``notes`` are written as null, for the author to
fill in.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from differential import _extract

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
TRACE_SECONDS = 1
SIDES = ("parent", "change")


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric's summary over paired runs, ``parent[i]`` against ``change[i]``."""
    def side(runs):
        q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
        return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}

    old, new = side(parent), side(change)
    gap, spread = abs(new["median"] - old["median"]), old["q3"] - old["q1"]
    relative = (new["median"] - old["median"]) / old["median"]
    lower = better == "lower"
    worse_by = relative if lower else -relative
    return {
        "parent": old,
        "change": new,
        "change_wins": sum((b < a) if lower else (b > a) for a, b in zip(parent, change)),
        "relative_change": relative,
        "worse_by": worse_by,
        "within_bound": worse_by <= bound,
        "median_gap_over_parent_iqr": gap / spread if spread else None,
    }


def workload_summary(results: dict[str, list[dict]], seeds: list[int],
                     end_to_end: list[dict]) -> dict:
    """One workload's summary from each side's ``bench/run.py`` results, seed by seed.

    ``end_to_end`` is ``BENCHMARK.json``'s list of end-to-end metrics.
    """
    metrics = {}
    for spec in end_to_end:
        name = spec["name"]
        runs = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        metrics[name] = {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                         **summarize(runs["parent"], runs["change"], spec["better"],
                                     spec["bound"])}
    return {
        "pairs": len(seeds),
        "seeds": seeds,
        "correct": all(r["correct"] for side in SIDES for r in results[side]),
        "failed": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
        "attempted": {side: sum(r["attempted"] for r in results[side]) for side in SIDES},
        "metrics": metrics,
    }


def _command(workload: str, seed: int | str, seconds: float, trace: int) -> list[str]:
    return ["python3", "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]


def _tree(into: Path, parent: str | None) -> Path:
    """A tree with this checkout's ``bench/`` and ``BENCHMARK.json``, and ``src`` of ``parent``.

    Without ``parent``, ``src`` is this checkout's, as it is on disk.
    """
    into.mkdir()
    junk = shutil.ignore_patterns("__pycache__", "out")
    shutil.copytree(ROOT / "bench", into / "bench", ignore=junk)
    shutil.copy2(ROOT / "BENCHMARK.json", into / "BENCHMARK.json")
    if parent is None:
        shutil.copytree(ROOT / "src", into / "src", ignore=junk)
    else:
        _extract(parent, into)
    return into


def _run(tree: Path, argv: list[str]) -> dict:
    """The result ``bench/run.py`` prints on its last line, run in ``tree``."""
    print(f"{tree.name}: {' '.join(argv[1:])}", file=sys.stderr, flush=True)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    done = subprocess.run([sys.executable, *argv[1:]], cwd=tree, env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{tree.name}: {' '.join(argv[1:])} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def _traced(result: dict) -> dict:
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            **{name: m["value"] for name, m in result["metrics"].items()}}


def run_pairs(spec: dict, parent: str) -> dict:
    """Every interleaved pair and traced run, summarized under the committed keys.

    ``spec`` is ``BENCHMARK.json`` as loaded.
    """
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = list(SEEDS)
    results = {w: {side: [] for side in SIDES} for w in workloads}
    traces = {}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": _tree(Path(tmp, "parent"), parent),
                 "change": _tree(Path(tmp, "change"), None)}
        for seed in seeds:
            order = SIDES if seed % 2 else SIDES[::-1]
            for workload in workloads:
                for side in order:
                    results[workload][side].append(
                        _run(trees[side], _command(workload, seed, seconds, 0)))
        for workload in workloads:
            argv = _command(workload, 1, TRACE_SECONDS, 1)
            traces[f"trace_{workload}_seed_1"] = {
                "command": " ".join(argv),
                **{side: _traced(_run(trees[side], argv)) for side in SIDES}}
    short = subprocess.run(["git", "rev-parse", "--short", parent], cwd=ROOT, check=True,
                           capture_output=True, text=True).stdout.strip()
    return {
        "change": None,
        "parent_commit": short,
        "command": " ".join(_command("{" + ",".join(workloads) + "}", "N", seconds, 0)),
        "pairs": (f"seeds {seeds[0]}-{seeds[-1]} on each workload, one pair per seed; odd "
                  "seeds run the parent first, even seeds the change first; per seed "
                  + " then ".join(workloads) + "; each side runs from its own copy of the "
                  "tree, with this checkout's bench/ and BENCHMARK.json"),
        "host": (f"{platform.system()} host with {os.cpu_count()} CPUs, Python "
                 f"{platform.python_version()}, PYTHONDONTWRITEBYTECODE=1 for every run, "
                 "each run pinned to one CPU by bench/run.py"),
        "workloads": {w: workload_summary(results[w], seeds, spec["end_to_end"])
                      for w in workloads},
        "claim": None,
        **traces,
        "notes": None,
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", metavar="REV", required=True,
                        help="the git revision to compare against")
    parser.add_argument("--out", metavar="PATH", type=Path, required=True,
                        help="where to write the summary JSON")
    args = parser.parse_args(argv)
    summary = run_pairs(spec, args.parent)
    args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
