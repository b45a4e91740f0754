"""Benchmark of the exact planner on one seeded workload.

    python3 bench/run.py --workload {wide,batch} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout: the package is imported from the
checkout's ``src``. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; ``--trace 0``
reports the end-to-end metrics and ``--trace 1`` the per-layer ones. Each
run also writes its samples to ``bench/out/``.

One operation loads a scenario from its JSON text and plans it. The timed
part repeats whole rounds (one pass over the workload's scenarios) until
``--seconds`` have passed. Set-up time and peak memory come from fresh
child processes, one at a time; every answer is then checked outside the
timed part against computations made apart from the solver (see
``checks.py``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "rebalplan"
OUT = HERE / "out"

# the package under test is always the checkout's own source; functions
# import it only when called, after main() has checked that it is there
sys.path.insert(0, str(SRC))

# fresh starts per run, their median being setup_s, as one start is too
# short to repeat: this many before and again after the timed part, and one
# between rounds each time this much more of it has passed. On a shared host
# the CPU's speed can change for seconds at a time; starts spread over the
# run make the median follow the whole run rather than one moment of it.
SETUP_STARTS = 3
SETUP_EVERY_S = 5.0
CHILD_TIMEOUT_S = 120

# metric names and units, as BENCHMARK.json lists them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {kind: {m["name"]: m["unit"] for m in SPEC[kind]}
         for kind in ("end_to_end", "per_layer")}


def _child(what: str, inputs: Path, env: dict) -> str:
    done = subprocess.run(
        [sys.executable, str(HERE / "child.py"), what, str(inputs)],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return done.stdout.split()[-1]


def fresh_setup_s(inputs: Path, env: dict) -> float:
    """Seconds from starting an interpreter to every scenario loaded."""
    start = time.monotonic()  # CLOCK_MONOTONIC, shared with the child
    return float(_child("setup", inputs, env)) - start


def setup_starts(inputs: Path, env: dict) -> list[float]:
    """One batch of fresh starts, see SETUP_STARTS."""
    return [fresh_setup_s(inputs, env) for _ in range(SETUP_STARTS)]


def peak_rss_kib(inputs: Path, env: dict) -> int:
    """Peak RSS of a fresh process that loads and plans the workload once."""
    return int(_child("peak", inputs, env))


def first_round(texts: list[str]) -> list:
    """One untimed warm-up round: (scenario, policy, table, trace) per input.

    An input whose plan raises a ``RebalplanError`` gives ``None``. These
    answers are the ones checked, and every timed round must repeat them.
    """
    import plan
    from rebalplan import RebalplanError

    first: list = []
    for text in texts:
        try:
            scenario = plan.load(text)
            policy, table, trace, _ = plan.plan(scenario)
        except RebalplanError:
            first.append(None)
            continue
        first.append((scenario, policy, table, trace))
    return first


def timed_rounds(texts: list[str], first: list, seconds: float, between=None):
    """Whole rounds of load-and-plan until ``seconds`` of them have passed.

    Returns the operation counts, the timed seconds, the per-plan seconds,
    per-round span sums and how many answers differ from ``first``. Between
    rounds the clock stops: the answers are compared and dropped, the
    round's garbage is collected, so every round starts from the same heap,
    and ``between(timed_so_far)`` runs if given. What the run holds itself
    is frozen out of the collector for the timed part, so the program's
    collections do not walk the benchmark's objects.
    """
    import plan
    from rebalplan import RebalplanError

    reference = [None if result is None else (result[1], result[3]) for result in first]
    attempted = failed = mismatches = 0
    plan_s: list[float] = []
    rounds: list[dict] = []
    elapsed = 0.0
    gc.collect()
    gc.freeze()
    try:
        while not rounds or elapsed < seconds:
            spans = dict.fromkeys(("wall", "load", "reduce", "solve", "trace"), 0.0)
            answers = []
            r0 = perf_counter()
            for text in texts:
                attempted += 1
                t0 = perf_counter()
                try:
                    scenario = plan.load(text)
                    t1 = perf_counter()
                    policy, _, trace, (reduce_s, solve_s, trace_s) = plan.plan(scenario)
                except RebalplanError:
                    failed += 1
                    answers.append(None)
                    continue
                plan_s.append(perf_counter() - t1)
                spans["load"] += t1 - t0
                spans["reduce"] += reduce_s
                spans["solve"] += solve_s
                spans["trace"] += trace_s
                answers.append((policy, trace))
            spans["wall"] = perf_counter() - r0
            elapsed += spans["wall"]
            rounds.append(spans)
            mismatches += sum(a != b for a, b in zip(reference, answers))
            del answers
            gc.collect()
            if between is not None:
                between(elapsed)
    finally:
        gc.unfreeze()
    return attempted, failed, elapsed, plan_s, rounds, mismatches


def verify(workload: str, docs: list[dict], first: list) -> tuple[list[str], int]:
    """Check every answer of the warm-up round; return the problems and successors."""
    import checks
    from rebalplan import brute_force_solve

    problems: list[str] = []
    successors = 0
    for i, (doc, result) in enumerate(zip(docs, first)):
        if result is None:
            continue
        scenario, policy, _, trace = result
        inst = checks.instance(doc)
        try:
            cash = checks.replay(inst, policy.trades, policy.terminal_wealth)
            checks.check_trace(inst, trace, cash)
            best, count = checks.reference_dp(inst)
            successors += count
            if best != cash:
                raise checks.CheckFailed(f"reference optimum {best} != planned {cash}")
            if workload == "batch":
                oracle, wealth = brute_force_solve(scenario)
                if oracle.trades != policy.trades or wealth != policy.terminal_wealth:
                    raise checks.CheckFailed(f"brute force gives {oracle.trades} at {wealth}")
        except checks.CheckFailed as exc:
            problems.append(f"{workload} scenario {i}: {exc}")
    return problems, successors


def layer_metrics(texts: list[str], first: list, rounds: list[dict], successors: int,
                  peak_kib: int) -> dict:
    """Per-layer metrics: spans per round, value-table counts, one profiled round."""
    import layers
    import plan
    from rebalplan import RebalplanError

    def per_round(key: str) -> float:
        return statistics.median(r[key] for r in rounds)

    tables = [result[2] for result in first if result is not None]
    sizes = [len(layer) for table in tables for layer in table.layers]
    states = sum(sizes)
    with layers.ModuleProfile(PACKAGE) as profile:
        p0 = perf_counter()
        for text in texts:
            try:
                plan.plan(plan.load(text))
            except RebalplanError:
                pass
        profiled = perf_counter() - p0
    metrics = {
        "scenario.load_s": per_round("load"),
        "scenario.bytes": sum(len(text.encode()) for text in texts),
        "expectation.reduce_s": per_round("reduce"),
        "dp.solve_s": per_round("solve"),
        "trace.text_s": per_round("trace"),
        "dp.stages": sum(len(table.layers) - 1 for table in tables),
        "dp.states_kept": states,
        "dp.frontier_max": max(sizes),
        "dp.kb_per_state": peak_kib / states,
        "dp.successors": successors,
        "dp.successors_per_s": successors / per_round("solve"),
        "profile.overhead_s": profiled - per_round("wall"),
    }
    metrics.update(profile.totals())
    return metrics


def end_to_end_metrics(setup: list[float], plan_s: list[float], plans: int,
                       elapsed: float, peak_kib: int) -> dict:
    """End-to-end metrics from the set-up starts, the timed part and the child."""
    return {
        "setup_s": statistics.median(setup),
        "plan_s": statistics.median(plan_s),
        "plans_per_s": plans / elapsed,
        "peak_rss_mb": peak_kib / 1024,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # The solver's expansion threads contend for the interpreter lock; on a
    # shared 2-vCPU machine, lock hand-offs between CPUs made plan times swing
    # by up to 2x from run to run, while on one CPU they repeat. Children
    # inherit the pinning. This is a property of this process only.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    docs = workloads.generate(args.workload, args.seed)
    texts = [json.dumps(doc) for doc in docs]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    inputs = OUT / f"{stem}.jsonl"
    inputs.write_text("\n".join(texts) + "\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))

    first = first_round(texts)
    setup = setup_starts(inputs, env)
    due = [SETUP_EVERY_S]

    def between(timed: float) -> None:
        if timed >= due[0]:
            setup.append(fresh_setup_s(inputs, env))
            due[0] = timed + SETUP_EVERY_S

    attempted, failed, elapsed, plan_s, rounds, mismatches = timed_rounds(
        texts, first, args.seconds, between)
    setup += setup_starts(inputs, env)
    peak_kib = peak_rss_kib(inputs, env)
    problems, successors = verify(args.workload, docs, first)
    if mismatches:
        problems.append(f"{mismatches} answers differ from the warm-up round's")

    if args.trace:
        values = layer_metrics(texts, first, rounds, successors, peak_kib)
        units = UNITS["per_layer"]
    else:
        values = end_to_end_metrics(setup, plan_s, attempted - failed, elapsed, peak_kib)
        units = UNITS["end_to_end"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  problems=problems, setup_s=setup, plan_s=plan_s, rounds=rounds)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    inputs.unlink()
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
