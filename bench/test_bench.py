"""Tests of the benchmark itself: its checks, its traced counts, its spec."""

from __future__ import annotations

import json
from decimal import Decimal
from pathlib import Path

import pytest

import run  # puts the checkout's src on sys.path

import checks
import plan
import workloads
from rebalplan import Policy

EXAMPLES = sorted((run.ROOT / "docs" / "examples").glob("*.json"))


def _planned(doc: dict):
    return plan.plan(plan.load(json.dumps(doc)))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_checks_pass_on_examples(path: Path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    scenario = plan.load(json.dumps(doc))
    policy, table, trace, _ = plan.plan(scenario)
    first = [(scenario, policy, table, trace)]
    problems, successors = run.verify("batch", [doc], first)
    assert problems == []
    assert successors > 0


def _buy_then_liquidate() -> dict:
    return json.loads((run.ROOT / "docs" / "examples" / "buy_then_liquidate.json")
                      .read_text(encoding="utf-8"))


def test_replay_rejects_perturbed_wealth():
    doc = _buy_then_liquidate()
    policy = _planned(doc)[0]
    inst = checks.instance(doc)
    checks.replay(inst, policy.trades, policy.terminal_wealth)
    with pytest.raises(checks.CheckFailed, match="terminal cash"):
        checks.replay(inst, policy.trades, policy.terminal_wealth + Decimal("0.0001"))


def test_replay_rejects_overdraft():
    # 10 lots at 10.00 + 0.50 cost 105.00 against a capital of 100.00
    doc = _buy_then_liquidate()
    overdraw = Policy(((1, {"A": 10}), (2, {"A": -10})), Decimal("105.0000"))
    with pytest.raises(checks.CheckFailed, match="negative"):
        checks.replay(checks.instance(doc), overdraw.trades, overdraw.terminal_wealth)


def test_reference_dp_matches_expected_mode_rounding():
    # a mean of 10.00005 rounds half-even down to 10.0000, not up
    doc = _buy_then_liquidate()
    doc["options"]["mode"] = "expected"
    doc["securities"][0]["quotes"].pop("1")
    doc["securities"][0]["distributions"] = {
        "1": [["10.0000", "0.500000"], ["10.0001", "0.500000"]]}
    inst = checks.instance(doc)
    assert inst.buy[0]["A"] == (100000 + 5000) * 10000
    policy = _planned(doc)[0]
    assert checks.replay(inst, policy.trades, policy.terminal_wealth) == \
        checks.reference_dp(inst)[0]


def test_traced_counts_repeat_exactly(monkeypatch):
    monkeypatch.setattr(workloads, "BATCH_SIZE", 40)
    # a small wide instance: frontiers of 32 and more expand on the pool's threads
    small_wide = workloads.wide(1)[0]
    small_wide["initial_capital"] = "50.0000"
    docs = [small_wide] + workloads.batch(7)
    texts = [json.dumps(doc) for doc in docs]

    def counts() -> dict:
        first = run.first_round(texts)
        _, _, _, _, rounds, mismatches = run.timed_rounds(texts, first, 0)
        assert mismatches == 0
        # the brute force would take far too long on the wide instance
        problems, successors = run.verify("wide", docs[:1], first[:1])
        more, successors_batch = run.verify("batch", docs[1:], first[1:])
        assert problems + more == []
        successors += successors_batch
        metrics = run.layer_metrics(texts, first, rounds, successors, 1)
        assert set(metrics) == set(run.UNITS["per_layer"])
        return {name: metrics[name] for name, unit in run.UNITS["per_layer"].items()
                if unit in ("count", "bytes")}

    first = counts()
    assert first["dp.frontier_max"] >= 32
    # every successor replays through the ledger, on whichever thread made it
    assert first["ledger.apply_rebalance.calls"] >= first["dp.successors"]
    assert first["expectation.calls"] > 0
    assert counts() == first


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workloads_are_seeded_and_valid(workload: str, monkeypatch):
    monkeypatch.setattr(workloads, "BATCH_SIZE", 100)
    docs = workloads.generate(workload, 3)
    assert docs == workloads.generate(workload, 3)
    assert docs != workloads.generate(workload, 4)
    for doc in docs:
        plan.load(json.dumps(doc))


def test_run_produces_every_listed_end_to_end_metric():
    assert [w["name"] for w in run.SPEC["workloads"]] == list(workloads.WORKLOADS)
    values = run.end_to_end_metrics([0.5], [1.0], 3, 2.0, 2048)
    assert set(values) == set(run.UNITS["end_to_end"])
