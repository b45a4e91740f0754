import csv
import io
import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

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

from scenariogen import (
    fee_050_scenario,
    flat_doc,
    many_lots_doc,
    random_scenario,
    twenty_nine_digit_doc,
)

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


def test_trace_refuses_a_policy_shifted_off_the_grid():
    # the rows would price the buy at time 2 while the ledger trades at 1
    scn = load_scenario(DOCS / "buy_then_liquidate.json")
    shifted = Policy(((2, {"A": 9}), (3, {"A": -9})), D("104.5000"))
    with pytest.raises(ValueError, match="policy trades at 2 but the next decision time is 1"):
        trace_text(scn, shifted)


def test_trace_refuses_a_policy_that_stops_early():
    # no summary row for the horizon end while 9 lots are still held
    scn = load_scenario(DOCS / "buy_then_liquidate.json")
    stopped = Policy(((1, {"A": 9}),), D("5.5000"))
    with pytest.raises(ValueError, match="does not cover every decision time"):
        trace_text(scn, stopped)


# Replays the documented example with the cash reached at time 1 one quantum
# too high, then prints the trace; exits 3 if the trace refuses it.
_OFF_BY_ONE_QUANTUM = """
import sys
from decimal import Decimal
import rebalplan.replay as replay
from rebalplan import LedgerState, load_scenario, solve_deterministic, trace_text
scn = load_scenario(sys.argv[1])
policy, _ = solve_deterministic(scn)
ledger_step = replay.apply_rebalance
def off_by_one(state, trade, market, fees, rules):
    reached = ledger_step(state, trade, market, fees, rules)
    if state.time_index == 0:
        reached = LedgerState(1, reached.holdings, reached.cash + Decimal("0.0001"))
    return reached
replay.apply_rebalance = off_by_one
try:
    print(trace_text(scn, policy))
except AssertionError as exc:
    print(f"refused: {exc}")
    sys.exit(3)
"""


def test_trace_cash_check_holds_under_python_O():
    # the per-time cash check is not an assert statement, which -O would strip
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-O", "-c", _OFF_BY_ONE_QUANTUM, str(DOCS / "buy_then_liquidate.json")],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 3, done.stdout + done.stderr
    assert "at time 1" in done.stdout


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


@pytest.mark.parametrize("cap", ["0", "-5"])
@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_cli_rejects_a_node_cap_below_one_as_a_usage_error(command, cap, capsys):
    # a file's max_states below 1 is a BadOption; the flag's must not reach the solver
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--scenario", str(DOCS / "buy_then_liquidate.json"),
                  "--max-states", cap])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--max-states" in err and "over the cap" not in err


@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_cli_rejects_a_node_cap_that_is_no_integer(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--scenario", str(DOCS / "buy_then_liquidate.json"),
                  "--max-states", "abc"])
    assert exc.value.code == 2
    assert "--max-states: invalid int value: 'abc'" in capsys.readouterr().err


def test_cli_oracle_takes_no_output_path(tmp_path, capsys):
    # the oracle writes no trace, so a trace destination is a usage error
    out = tmp_path / "trace.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle", "--scenario", str(DOCS / "buy_then_liquidate.json"),
                  "--output", str(out)])
    assert exc.value.code == 2
    assert "--output" in capsys.readouterr().err
    assert not out.exists()


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

    monkeypatch.setattr(expectation, "build_expected_market", counted)
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
def test_cli_reports_a_lot_count_too_long_to_hold(command, tmp_path, capsys):
    path = tmp_path / "many.json"
    path.write_text(json.dumps(many_lots_doc()), encoding="utf-8")
    assert cli.main(["validate", "--scenario", str(path)]) == 0
    assert cli.main([command, "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert "more than 28 significant digits" in err
    assert "Traceback" not in err


# the CLI with the C decimal module blocked, so decimal is the pure-Python
# _pydecimal, which reports a quotient too long to hold otherwise
_WITHOUT_C_DECIMAL = """
import sys
sys.modules["_decimal"] = None
import rebalplan.cli as cli
if "_pydecimal" not in sys.modules:
    sys.exit("the C decimal module was not blocked")
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_cli_reports_a_lot_count_too_long_to_hold_in_pure_python_decimal(command, tmp_path):
    path = tmp_path / "many.json"
    path.write_text(json.dumps(many_lots_doc()), encoding="utf-8")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_C_DECIMAL, command, "--scenario", str(path)],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, done.stdout + done.stderr
    assert "more than 28 significant digits" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_cli_prints_an_exact_result_longer_than_28_digits(command, tmp_path, capsys):
    # exact at 28 significant digits, 29 once padded to price scale 12
    path = tmp_path / "long.json"
    doc = twenty_nine_digit_doc("5000000000000000.000000000001")
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main([command, "--scenario", str(path)]) == 0
    out = capsys.readouterr().out
    assert "terminal wealth 10000000000000000.000000000000" in out


def test_cli_solves_a_document_with_many_securities(tmp_path, capsys):
    # one walk level per security: more securities than the recursion limit
    path = tmp_path / "many.json"
    path.write_text(json.dumps(flat_doc(1200, "0")), encoding="utf-8")
    assert cli.main(["solve", "--scenario", str(path),
                     "--output", str(tmp_path / "trace.csv")]) == 0
    captured = capsys.readouterr()
    assert "terminal wealth 0.0000" in captured.out
    assert captured.err == ""


def test_cli_solve_reports_a_trace_row_that_would_round(tmp_path, capsys):
    # (price + fee) * lot fits in 28 digits, but a trace row's price * lot
    # needs 29: the trace must refuse it rather than print a rounded figure
    doc = {
        "initial_capital": "2000000000000000",
        "times": [1, 2, 3],
        "securities": [{"id": "A", "issue_time": 1, "maturity": 2, "quotes": {
            "1": "3999999999999999.999999999999", "2": "5000000000000000",
            "3": "5000000000000000"}}],
        "brokers": [{"id": "b1", "fees": {"A": {"1": "0.000000000001", "2": "0", "3": "0"}}}],
        "options": {"price_scale": 12, "lot_size": "0.5"},
    }
    path = tmp_path / "row.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["solve", "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert "more than 28 significant digits" in captured.err
    assert "terminal wealth" not in captured.out


def test_cli_oracle_refuses_a_grid_too_deep_to_walk(tmp_path, capsys):
    # the solver handles 1,199 stages; the oracle's walk recurses per stage
    doc = {"initial_capital": "0", "times": list(range(1, 1201)),
           "securities": [], "brokers": []}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["solve", "--scenario", str(path),
                     "--output", str(tmp_path / "trace.csv")]) == 0
    assert "terminal wealth 0.0000" in capsys.readouterr().out
    assert cli.main(["oracle", "--scenario", str(path)]) == 3
    assert "1199 stages" in capsys.readouterr().err


def _lone_surrogate_doc(where: str) -> dict:
    """The documented example with one id written as the JSON escape "\\ud800"."""
    doc = json.loads((DOCS / "buy_then_liquidate.json").read_text(encoding="utf-8"))
    if where == "security":
        doc["securities"][0]["id"] = "\ud800"
        doc["brokers"][0]["fees"] = {"\ud800": doc["brokers"][0]["fees"]["A"]}
    else:
        doc["brokers"][0]["id"] = "\ud800"
    return doc


@pytest.mark.parametrize("where, code", [("security", "BadSecurity"), ("broker", "BadBroker")])
@pytest.mark.parametrize("command", ["validate", "solve", "oracle"])
def test_cli_rejects_an_id_that_is_not_utf8(command, where, code, tmp_path, capsys):
    # the file is valid UTF-8; the surrogate comes from the escape, and a trace
    # naming it could not be written
    path = tmp_path / "surrogate.json"
    path.write_text(json.dumps(_lone_surrogate_doc(where)), encoding="utf-8")
    extra = ["--output", str(tmp_path / "trace.csv")] if command == "solve" else []
    assert cli.main([command, "--scenario", str(path), *extra]) == 2
    assert code in capsys.readouterr().err


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("command", ["validate", "solve", "oracle"])
def test_cli_exits_io_when_the_reader_of_stdout_has_gone(command, unbuffered):
    # a pipe whose read end is closed, as "| head" leaves it once it has read
    # enough: buffered, the write fails at the last flush, unbuffered at once
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED=unbuffered)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "rebalplan.cli", command,
             "--scenario", str(DOCS / "buy_then_liquidate.json")],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == cli.EXIT_IO, done.stderr
    assert done.stderr.startswith("error: cannot write output")
    assert done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr
