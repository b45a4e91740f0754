"""The package's records: what they keep as values, and what importing them costs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rebalplan import (
    Broker,
    DiscreteDistribution,
    FeeTable,
    LedgerState,
    Market,
    Policy,
    Scenario,
    Security,
    SolverOptions,
    TimeGrid,
    ValueTable,
    build_expected_market,
    load_scenario,
    solve_deterministic,
)
from rebalplan.dp import ValueNode
from rebalplan.errors import ValidationIssue
from rebalplan.market import Deals
from rebalplan.scenario import MODE_EXPECTED

ROOT = Path(__file__).resolve().parent.parent
DOCS = ROOT / "docs" / "examples"
EXAMPLES = sorted(DOCS.glob("*.json"))

FIELDS = {
    TimeGrid: ("points",),
    DiscreteDistribution: ("outcomes",),
    Security: ("security_id", "issue_time", "maturity", "quotes", "distributions"),
    Broker: ("broker_id", "fees"),
    FeeTable: ("brokers",),
    Market: ("grid", "securities"),
    Deals: ("time", "active", "carried", "per_lot", "floor", "forced_sale"),
    LedgerState: ("time_index", "holdings", "cash"),
    ValueNode: ("state", "parent", "trade", "lots"),
    Policy: ("trades", "terminal_wealth"),
    ValueTable: ("grid", "layers"),
    SolverOptions: ("mode", "lot_size", "allow_short", "short_cap", "hold_to_end",
                    "max_states", "price_scale", "prob_scale"),
    Scenario: ("initial_capital", "market", "fees", "options"),
}


def _reduced(scenario):
    if scenario.options.mode == MODE_EXPECTED:
        return build_expected_market(scenario)
    return scenario


def _records(path):
    """Every kind of record one loaded, reduced and solved document makes."""
    loaded = load_scenario(path)
    reduced = _reduced(loaded)
    policy, table = solve_deterministic(reduced)
    records = [loaded, reduced, loaded.options, loaded.fees, loaded.market,
               loaded.market.grid, reduced.market, reduced.fees, reduced.deal_book()[0],
               reduced.initial_state(), policy, table]
    records += loaded.fees.brokers + loaded.market.securities
    for sec in loaded.market.securities:
        records += sec.distributions.values()
    for layer in table.layers:
        records += [node for node in layer] + [node.state for node in layer]
    return records


_FRESH_REPRS = """
import json, sys
sys.path.insert(0, sys.argv[1])
from test_records import EXAMPLES, _records
print(json.dumps([[repr(r) for r in _records(path)] for path in EXAMPLES]))
"""


def test_importing_the_package_loads_no_dataclass_machinery():
    # a fresh start pays for every module the package's import pulls in
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, rebalplan; "
         "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_the_records_are_read_only_values(path):
    records = _records(path)
    assert {type(r) for r in records} <= set(FIELDS)
    for record in records:
        if isinstance(record, ValueTable):
            continue  # the one record that was never frozen
        for name in FIELDS[type(record)]:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))

    # two loads compare equal, also once one has been solved
    first, second = load_scenario(path), load_scenario(path)
    solved = _reduced(second)
    solve_deterministic(solved)
    assert first == second
    assert _reduced(first) == solved
    assert _reduced(first).market == solved.market


def test_the_records_repr_as_in_a_fresh_process():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _FRESH_REPRS, str(Path(__file__).resolve().parent)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    records = [_records(path) for path in EXAMPLES]
    assert {type(r) for rs in records for r in rs} == set(FIELDS)
    assert json.loads(done.stdout) == [[repr(r) for r in rs] for rs in records]


def test_validation_issues_are_read_only_values():
    issue = ValidationIssue("BadValue", "fee must be non-negative", security="A", time=1)
    assert issue == ValidationIssue("BadValue", "fee must be non-negative", security="A", time=1)
    assert issue != issue._replace(broker="b1")
    assert str(issue) == "BadValue: fee must be non-negative [security=A, time=1]"
    assert repr(issue) == f"ValidationIssue({issue})"
    with pytest.raises(AttributeError):
        issue.code = "BadGrid"
