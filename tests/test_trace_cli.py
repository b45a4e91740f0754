import csv
import io
import json
from decimal import Decimal
from pathlib import Path

import pytest

import rebalplan.bruteforce as bruteforce
import rebalplan.cli as cli
import rebalplan.expectation as expectation
from rebalplan import (
    Policy,
    brute_force_solve,
    build_expected_market,
    build_trace_rows,
    load_scenario,
    solve_deterministic,
    trace_text,
)
from rebalplan.trace import TRACE_HEADER

from scenariogen import fee_050_scenario, random_scenario, twenty_nine_digit_doc

D = Decimal

DOCS = Path(__file__).resolve().parent.parent / "docs" / "examples"


def test_trace_layout_for_the_documented_example():
    scn = fee_050_scenario()
    policy, _ = solve_deterministic(scn)
    rows = list(csv.reader(io.StringIO(trace_text(scn, policy))))
    assert rows[0] == list(TRACE_HEADER)
    assert rows[1] == ["1", "A", "0", "9", "90.0000", "4.5000", "5.5000", "95.5000"]
    assert rows[2] == ["2", "A", "9", "0", "-103.5000", "4.5000", "104.5000", "104.5000"]
    assert rows[3] == ["3", "", "", "", "", "", "104.5000", "104.5000"]


def replay_cash_column(scn, rows):
    cash = scn.initial_capital
    for row in rows:
        if row[1] == "":  # terminal summary row
            assert D(row[6]) == cash
            continue
        cash = cash - D(row[4]) - D(row[5])
        assert D(row[6]) == cash


def test_trace_cash_column_replays_from_the_trade_columns():
    import random
    rng = random.Random(55)
    for _ in range(25):
        scn = random_scenario(rng)
        policy, _ = solve_deterministic(scn)
        rows = build_trace_rows(scn, policy)
        replay_cash_column(scn, rows)
        # cash never shown negative: sells settle before buys
        for row in rows:
            if row[6]:
                assert D(row[6]) >= 0


def test_wealth_column_leaks_only_fees_within_a_time():
    scn = fee_050_scenario()
    policy, _ = solve_deterministic(scn)
    rows = build_trace_rows(scn, policy)
    by_time = {}
    for row in rows:
        if row[1]:
            by_time.setdefault(row[0], []).append(row)
    for rows_at_t in by_time.values():
        for prev, cur in zip(rows_at_t, rows_at_t[1:]):
            assert D(cur[7]) == D(prev[7]) - D(cur[5])


def test_cli_solve_writes_the_trace(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = cli.main(["solve", "--scenario", str(DOCS / "buy_then_liquidate.json"),
                     "--output", str(out)])
    assert code == 0
    assert "terminal wealth 104.5000" in capsys.readouterr().out
    assert out.read_text(encoding="utf-8").startswith(",".join(TRACE_HEADER))


def test_cli_exit_validation_on_mode_mismatch(capsys):
    code = cli.main(["solve", "--scenario", str(DOCS / "two_point_upside.json"),
                     "--mode", "det"])
    assert code == 2
    assert "QuoteMissing" in capsys.readouterr().err


def test_cli_exit_validation_on_broken_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert cli.main(["validate", "--scenario", str(bad)]) == 2


def test_cli_exit_budget_when_the_frontier_cap_bites(capsys):
    code = cli.main(["solve", "--scenario", str(DOCS / "buy_then_liquidate.json"),
                     "--max-states", "2"])
    assert code == 3


def test_cli_exit_io_on_missing_input(capsys):
    assert cli.main(["solve", "--scenario", "/no/such/file.json"]) == 4


def test_cli_exit_io_on_unwritable_output(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "trace.csv"
    code = cli.main(["solve", "--scenario", str(DOCS / "buy_then_liquidate.json"),
                     "--output", str(out)])
    assert code == 4


def test_cli_validate_accepts_the_examples(capsys):
    for name in ("buy_then_liquidate.json", "two_point_upside.json"):
        assert cli.main(["validate", "--scenario", str(DOCS / name)]) == 0


def test_cli_oracle_agrees_on_the_examples(capsys):
    for name in ("buy_then_liquidate.json", "round_trip_too_costly.json",
                 "two_point_upside.json"):
        assert cli.main(["oracle", "--scenario", str(DOCS / name)]) == 0
        assert "oracle check OK" in capsys.readouterr().out


def test_cli_oracle_mismatch_exits_five(monkeypatch, capsys):
    def wrong_oracle(scenario, **kwargs):
        policy, value = brute_force_solve(scenario, **kwargs)
        return Policy(policy.trades, value + 1), value + 1

    monkeypatch.setattr(cli, "brute_force_solve", wrong_oracle)
    code = cli.main(["oracle", "--scenario", str(DOCS / "buy_then_liquidate.json")])
    assert code == 5
    assert "oracle mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_cli_reduces_an_expected_scenario_once(command, monkeypatch, capsys):
    reductions = []

    def counted(scenario):
        reductions.append(scenario)
        return build_expected_market(scenario)

    for module in (cli, bruteforce, expectation):
        monkeypatch.setattr(module, "build_expected_market", counted)
    assert cli.main([command, "--scenario", str(DOCS / "two_point_upside.json")]) == 0
    assert len(reductions) == 1


def test_cli_validate_rejects_capital_too_long_to_hold(tmp_path, capsys):
    doc = json.loads((DOCS / "buy_then_liquidate.json").read_text(encoding="utf-8"))
    doc["initial_capital"] = "1234567890123456789012345.6789"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["validate", "--scenario", str(path)]) == 2
    assert "BadCapital" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_cli_reports_a_result_that_would_round(command, tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text(json.dumps(twenty_nine_digit_doc()), encoding="utf-8")
    assert cli.main([command, "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert "more than 28 significant digits" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_cli_prints_an_exact_result_longer_than_28_digits(command, tmp_path, capsys):
    # exact at 28 significant digits, 29 once padded to price scale 12
    path = tmp_path / "long.json"
    doc = twenty_nine_digit_doc("5000000000000000.000000000001")
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main([command, "--scenario", str(path)]) == 0
    out = capsys.readouterr().out
    assert "terminal wealth 10000000000000000.000000000000" in out
