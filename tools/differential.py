"""Differential check of the package against another revision of it.

Runs the same inputs through two source trees, each in its own Python
process so neither tree's import order or caches touch the other, and
compares what each records for every input:

- the load: the scenario's ``repr`` and its dump, or each issue (code,
  message, security, time, broker), or the error type and message;
- the solve: the policy, the layer sizes, the trace and the replayed
  wealth, or the error type and message;
- for a scenario with a price or fee distribution, the ``repr`` and dump of
  its expected-mode reduction, and the probability of each joint outcome
  with the solved policy's wealth replayed on it, or each error; and, as
  exact sums weighted by those probabilities, ``ws``, the outcomes' own
  optima (perfect foresight), and ``eev``, the replayed wealth, where the
  policy is admissible in every outcome;
- the oracle's policy and wealth, for the examples, ``batch`` and ``ties``;
- the CLI's exit code, stdout and stderr for ``validate``, ``solve`` and
  ``oracle`` on each example, as written and with ``--mode exp``.

Inputs: the documented examples; ``batch`` seeds 1 and 3 and ``wide`` seed
1 from ``bench/workloads.py``; 300 ``random_scenario(Random(2024))``, 100
``random_audit_scenario(Random(5))`` and the tie-heavy ``ties_doc(2,
"40.0000")`` and ``ties_doc(3, "12.0000")`` from ``tests/scenariogen.py``;
and a fixed set of documents whose amounts are written in malformed ways. The
generators are always this checkout's, so both trees see the same inputs.

Every well-formed input must record the same on both sides, but for the
solve's layer sizes: an input whose records differ in those alone, as when
a change prunes more nodes and keeps every answer, is counted apart and
does not fail the run. A malformed amount may change from loading to
rejected, or be rejected with other issues, but never go from rejected to
loading. The exit status is 0 when that holds and 1 otherwise.

    python tools/differential.py --parent HEAD~1
    python tools/differential.py --parent-src path/to/src --limit 5

``--parent`` extracts the revision's ``src`` with ``git archive``;
``--parent-src`` takes a tree already on disk. ``--limit N`` keeps the
first N inputs of each set, for a quick run.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from decimal import Context, Decimal, Inexact
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "docs" / "examples"

RANDOM_SEED, RANDOM_COUNT = 2024, 300
AUDIT_SEED, AUDIT_COUNT = 5, 100
TIES = ((2, "40.0000"), (3, "12.0000"))  # (securities, capital)
MUTATION_SEED, MUTATION_COUNT = 19, 3000
SHOWN_DIFFERENCES = 10


# ---------------------------------------------------------------------------
# inputs, built once by the comparing process


def _malformed(text: str) -> list[object]:
    """Ways to write the amount ``text`` that no document amount may take."""
    digits = "".join(chr(0x660 + int(c)) if c.isdigit() else c for c in text)
    sign, unsigned = ("-", text[1:]) if text.startswith("-") else ("", text)
    whole, _, fraction = unsigned.partition(".")
    forms = [f"+{text}", f" {text} ", f"{text}e0", digits, f"{sign}{whole}.", "NaN", "inf",
             True, None, [text]]
    if len(whole) > 1:
        forms.append(f"{sign}{whole[0]}_{unsigned[1:]}")
    if fraction:
        forms.append(f"{sign}.{fraction}")
    number = float(text)
    forms += [int(number) if number == int(number) else number]
    return forms


def _amount_sites(doc: dict) -> list[tuple]:
    """The path of every amount in ``doc``, ``lot_size`` included."""
    sites: list[tuple] = [("initial_capital",), ("options", "lot_size")]
    for i, sec in enumerate(doc.get("securities", [])):
        for t in sec.get("quotes", {}):
            sites.append(("securities", i, "quotes", t))
        for t, outcomes in sec.get("distributions", {}).items():
            for j in range(len(outcomes)):
                sites += [("securities", i, "distributions", t, j, 0),
                          ("securities", i, "distributions", t, j, 1)]
    for i, broker in enumerate(doc.get("brokers", [])):
        for sid, by_time in broker.get("fees", {}).items():
            for t, fee in by_time.items():
                if isinstance(fee, list):
                    for j in range(len(fee)):
                        sites += [("brokers", i, "fees", sid, t, j, 0),
                                  ("brokers", i, "fees", sid, t, j, 1)]
                else:
                    sites.append(("brokers", i, "fees", sid, t))
    return sites


def _mutations(docs: list[dict], count: int) -> list[dict]:
    """``count`` documents, each one of ``docs`` with one amount malformed."""
    rng = random.Random(MUTATION_SEED)
    found = []
    while len(found) < count:
        doc = copy.deepcopy(rng.choice(docs))
        doc.setdefault("options", {}).setdefault("lot_size", "1.0000")
        path = rng.choice(_amount_sites(doc))
        *head, last = path
        target = doc
        for step in head:
            target = target[step]
        value = rng.choice(_malformed(str(target[last])))
        target[last] = value
        found.append({"doc": doc, "site": list(path), "value": value})
    return found


def build_inputs(limit: int | None) -> list[dict]:
    """Every document input, in order, as JSON-ready records."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    inputs = []
    examples = sorted(EXAMPLES.glob("*.json"))
    for path in examples:
        inputs.append({"id": f"example:{path.name}", "path": str(path),
                       "doc": json.loads(path.read_text(encoding="utf-8")),
                       "oracle": True, "cli": True})
    batch_1 = workloads.batch(1)
    for seed, docs in ((1, batch_1), (3, workloads.batch(3))):
        for i, doc in enumerate(docs[:limit]):
            inputs.append({"id": f"batch:{seed}:{i}", "doc": doc, "oracle": True})
    for i, doc in enumerate(workloads.wide(1)):
        inputs.append({"id": f"wide:1:{i}", "doc": doc})
    bases = [item["doc"] for item in inputs[:len(examples)]] + batch_1[:100]
    count = MUTATION_COUNT if limit is None else min(limit, MUTATION_COUNT)
    for i, item in enumerate(_mutations(bases, count)):
        inputs.append({"id": f"malformed:{i}", **item})
    return inputs


# ---------------------------------------------------------------------------
# one tree's records, in a process of its own


def _error(exc: Exception) -> dict:
    issues = getattr(exc, "issues", None)
    if issues is not None:
        return {"issues": [[i.code, i.message, i.security, i.time, i.broker] for i in issues]}
    return {"error": [type(exc).__name__, str(exc)]}


def _solve_record(scenario) -> tuple[dict, object]:
    """The solve's record, and its policy, or None if any of it raised."""
    from rebalplan import replay_terminal_wealth, solve_deterministic, trace_text

    try:
        policy, table = solve_deterministic(scenario)
        return {"policy": repr(policy.trades), "wealth": str(policy.terminal_wealth),
                "layers": [len(layer) for layer in table.layers],
                "trace": trace_text(scenario, policy),
                "replayed": str(replay_terminal_wealth(scenario, policy))}, policy
    except Exception as exc:  # recorded, to be compared with the other tree's
        return _error(exc), None


def _has_distribution(scenario) -> bool:
    from rebalplan import DiscreteDistribution

    return (any(sec.distributions for sec in scenario.market.securities)
            or any(isinstance(fee, DiscreteDistribution)
                   for broker in scenario.fees.brokers for fee in broker.fees.values()))


def _expected_record(scenario, policy) -> dict:
    """The expected-mode reduction, and ``policy`` replayed on each joint outcome."""
    from rebalplan import build_expected_market, dump_scenario, enumerate_joint_outcomes

    try:
        reduced = build_expected_market(scenario)
        record = {"reduced": {"repr": repr(reduced), "dump": dump_scenario(reduced)}}
    except Exception as exc:
        record = {"reduced": _error(exc)}
    try:
        outcomes = enumerate_joint_outcomes(scenario)
    except Exception as exc:  # past JOINT_CAP, among others
        record["outcomes"] = _error(exc)
        return record
    record["outcomes"] = [[str(prob), None if policy is None else _replayed(outcome, policy)]
                          for outcome, prob in outcomes]
    record["ws"] = _weighted([[str(prob), _optimum(outcome)] for outcome, prob in outcomes])
    replayed = _weighted(record["outcomes"])
    if isinstance(replayed, str):
        record["eev"] = replayed
    return record


def _optimum(outcome) -> object:
    from rebalplan import solve_deterministic

    try:
        return str(solve_deterministic(outcome)[0].terminal_wealth)
    except Exception as exc:
        return _error(exc)


def _weighted(pairs: list) -> object:
    """The exact sum of probability times wealth over ``[prob, wealth]`` pairs of strings.

    The first wealth that is not a string (an error, or no policy) is returned instead.
    """
    exact = Context(prec=200, traps=[Inexact])
    total = Decimal(0)
    for prob, wealth in pairs:
        if not isinstance(wealth, str):
            return wealth
        total = exact.add(total, exact.multiply(Decimal(prob), Decimal(wealth)))
    return str(total)


def _replayed(outcome, policy) -> object:
    from rebalplan import replay_terminal_wealth

    try:
        return str(replay_terminal_wealth(outcome, policy))
    except Exception as exc:  # an outcome the mean policy cannot afford, among others
        return _error(exc)


def _oracle_record(scenario) -> dict:
    from rebalplan import brute_force_solve

    try:
        policy, value = brute_force_solve(scenario)
        return {"policy": repr(policy.trades), "wealth": str(value)}
    except Exception as exc:
        return _error(exc)


def _cli_record(path: str) -> list:
    import rebalplan.cli as cli

    runs = []
    for mode in ([], ["--mode", "exp"]):
        for command in ("validate", "solve", "oracle"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.main([command, "--scenario", path, *mode])
            runs.append([command, *mode, status, out.getvalue(), err.getvalue()])
    return runs


def _scenario_record(scenario) -> dict:
    from rebalplan import dump_scenario

    try:
        loaded = {"repr": repr(scenario), "dump": dump_scenario(scenario)}
    except Exception as exc:
        loaded = _error(exc)
    record = {"load": loaded}
    record["solve"], policy = _solve_record(scenario)
    if _has_distribution(scenario):
        record["expected"] = _expected_record(scenario, policy)
    return record


def _document_record(item: dict) -> dict:
    from rebalplan import scenario_from_dict

    try:
        scenario = scenario_from_dict(item["doc"])
    except Exception as exc:
        return {"load": _error(exc)}
    record = _scenario_record(scenario)
    if item.get("oracle"):
        record["oracle"] = _oracle_record(scenario)
    return record


def run_tree(inputs_path: str, limit: int | None) -> None:
    """Print one JSON record per input, in order, for the tree on the path."""
    import rebalplan

    tree = Path(os.environ["PYTHONPATH"]).resolve()
    if tree not in Path(rebalplan.__file__).resolve().parents:
        sys.exit(f"rebalplan was imported from {rebalplan.__file__}, not from {tree}")
    sys.path.insert(0, str(ROOT / "tests"))
    from scenariogen import random_audit_scenario, random_scenario, ties_doc

    with open(inputs_path, encoding="utf-8") as lines:
        for line in lines:
            item = json.loads(line)
            record = {"id": item["id"], **_document_record(item)}
            if item.get("cli"):
                record["cli"] = _cli_record(item["path"])
            print(json.dumps(record, sort_keys=True))
    for name, make, seed, count in (("random", random_scenario, RANDOM_SEED, RANDOM_COUNT),
                                    ("audit", random_audit_scenario, AUDIT_SEED, AUDIT_COUNT)):
        rng = random.Random(seed)
        for i in range(count)[:limit]:
            record = {"id": f"{name}:{seed}:{i}", **_scenario_record(make(rng))}
            print(json.dumps(record, sort_keys=True))
    for securities, capital in TIES[:limit]:
        item = {"doc": ties_doc(securities, capital), "oracle": True}
        record = {"id": f"ties:{securities}:{capital}", **_document_record(item)}
        print(json.dumps(record, sort_keys=True))


# ---------------------------------------------------------------------------
# comparing two trees


def _start_tree(src: Path, inputs_path: str, limit: int | None,
                out_path: Path) -> subprocess.Popen:
    """A process printing the records of the tree ``src`` into ``out_path``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, str(Path(__file__).resolve()), "--run", inputs_path]
    if limit is not None:
        argv += ["--limit", str(limit)]
    with open(out_path, "w", encoding="utf-8") as out:
        return subprocess.Popen(argv, env=env, stdout=out, cwd=ROOT)


def _loads(record: dict) -> bool:
    return "repr" in record["load"]


def _without_layers(record: dict) -> dict:
    """``record`` with the solve's layer sizes left out."""
    solve = record.get("solve")
    if solve is None or "layers" not in solve:
        return record
    return {**record, "solve": {k: v for k, v in solve.items() if k != "layers"}}


def compare(parent_src: Path, limit: int | None) -> int:
    """Run both trees over the inputs, print the counts and differences; the exit status."""
    inputs = build_inputs(limit)
    with tempfile.TemporaryDirectory() as tmp:
        inputs_path = os.path.join(tmp, "inputs.jsonl")
        with open(inputs_path, "w", encoding="utf-8") as out:
            for item in inputs:
                out.write(json.dumps(item) + "\n")
        paths = {side: Path(tmp, f"{side}.jsonl") for side in ("parent", "change")}
        runs = [_start_tree(parent_src, inputs_path, limit, paths["parent"]),
                _start_tree(ROOT / "src", inputs_path, limit, paths["change"])]
        statuses = [run.wait() for run in runs]
        if any(statuses):
            print("a tree's run failed", file=sys.stderr)
            return 1
        with open(paths["parent"], encoding="utf-8") as a, \
                open(paths["change"], encoding="utf-8") as b:
            pairs = [(json.loads(x), json.loads(y)) for x, y in zip(a, b, strict=True)]
    return report(pairs)


def report(pairs: list[tuple[dict, dict]]) -> int:
    """Print the counts and differences of the (parent, change) record pairs; the exit status."""
    counts: dict[str, int] = {}
    malformed = {"newly rejected": 0, "rejected differently": 0, "newly loading": 0,
                 "other": 0}
    differences = []
    layers_only = []
    for old, new in pairs:
        if old["id"] != new["id"]:
            print(f"records out of step: {old['id']} against {new['id']}", file=sys.stderr)
            return 1
        kind = old["id"].split(":")[0]
        counts[kind] = counts.get(kind, 0) + 1
        if old == new:
            continue
        if _without_layers(old) == _without_layers(new):
            layers_only.append((kind, old, new))
            continue
        differences.append((kind, old, new))
        if kind == "malformed":
            if _loads(old) and not _loads(new):
                malformed["newly rejected"] += 1
            elif not _loads(old) and _loads(new):
                malformed["newly loading"] += 1
            elif not _loads(old):
                malformed["rejected differently"] += 1
            else:
                malformed["other"] += 1

    well_formed = [d for d in differences if d[0] != "malformed"]
    malformed_shown = [d for d in differences if d[0] == "malformed"]
    print(f"{len(pairs)} inputs: " + ", ".join(f"{k} {n}" for k, n in sorted(counts.items())))
    print(f"well-formed inputs that differ: {len(well_formed)}")
    print(f"inputs that differ in layer sizes only: {len(layers_only)}")
    print("malformed inputs that differ: "
          + ", ".join(f"{k} {n}" for k, n in malformed.items()))
    for _, old, new in (well_formed + malformed_shown + layers_only)[:SHOWN_DIFFERENCES]:
        print(f"--- {old['id']}")
        for field in sorted(set(old) | set(new)):
            if old.get(field) != new.get(field):
                print(f"  {field}: parent {json.dumps(old.get(field))[:300]}")
                print(f"  {field}: change {json.dumps(new.get(field))[:300]}")
    failed = well_formed or malformed["newly loading"] or malformed["other"]
    return 1 if failed else 0


def _extract(rev: str, into: Path) -> Path:
    """``src`` of the revision ``rev``, extracted under ``into``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--parent", metavar="REV", help="the git revision to compare against")
    which.add_argument("--parent-src", metavar="DIR", type=Path,
                       help="a source tree to compare against")
    which.add_argument("--run", metavar="INPUTS", help=argparse.SUPPRESS)
    parser.add_argument("--limit", type=int, metavar="N",
                        help="keep the first N inputs of each set")
    args = parser.parse_args(argv)
    if args.run is not None:
        run_tree(args.run, args.limit)
        return 0
    if args.parent_src is not None:
        return compare(args.parent_src.resolve(), args.limit)
    with tempfile.TemporaryDirectory() as tmp:
        return compare(_extract(args.parent, Path(tmp)), args.limit)


if __name__ == "__main__":
    sys.exit(main())
