"""Acceptance suite: every exit criterion at its stated tolerance.

All comparisons are exact fixed-point equality; there are no float
tolerances anywhere. Run with ``pytest tests/test_acceptance.py -v -s`` to
see one pass/fail line per criterion.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

import rebalplan.cli as cli
from rebalplan import (
    Broker,
    FeeTable,
    LedgerState,
    Market,
    Scenario,
    apply_rebalance,
    brute_force_solve,
    build_expected_market,
    dump_scenario,
    effective_fee,
    enumerate_joint_outcomes,
    is_active,
    load_scenario,
    price_at,
    replay_terminal_wealth,
    scenario_from_dict,
    solve_deterministic,
    wealth,
)
from rebalplan.errors import (
    InadmissibleTradeError,
    InstanceTooLargeError,
    RebalplanError,
    ShortCapExceededError,
)
from rebalplan.expectation import priced_instance
from rebalplan.money import EXACT_CONTEXT
from rebalplan.scenario import validate_scenario
from rebalplan.trace import trace_text

from scenariogen import (
    degenerate_twin,
    fee_050_scenario,
    fee_100_scenario,
    random_audit_scenario,
    random_scenario,
    simple_scenario,
    ties_doc,
)

D = Decimal

SWEEP_SIZE = 200
ORACLE_WORK_CAP = 60_000  # trade applications per instance; larger draws re-roll
DOCS = Path(__file__).resolve().parent.parent / "docs" / "examples"


@contextmanager
def report(num: int, name: str):
    info = {"detail": ""}
    try:
        yield info
    except BaseException:
        print(f"[criterion {num}] {name}: FAIL")
        raise
    print(f"[criterion {num}] {name}: PASS {info['detail']}".rstrip())


@pytest.fixture(scope="module")
def sweep_bank():
    """Randomized small instances with their oracle solutions, pre-solved."""
    rng = random.Random(20260809)
    bank = []
    rerolls = 0
    t0 = time.time()
    while len(bank) < SWEEP_SIZE:
        scn = random_scenario(rng)
        assert validate_scenario(scn) == []
        try:
            oracle = brute_force_solve(scn, cap=ORACLE_WORK_CAP)
        except InstanceTooLargeError:
            rerolls += 1
            continue
        bank.append((scn, oracle))
    return bank, time.time() - t0, rerolls


def test_criterion_1_oracle_equivalence_sweep(sweep_bank):
    bank, build_seconds, rerolls = sweep_bank
    with report(1, "oracle equivalence sweep") as info:
        t0 = time.time()
        shorted = 0
        for scn, (oracle_policy, oracle_value) in bank:
            policy, _ = solve_deterministic(scn)
            assert policy.terminal_wealth == oracle_value
            # repr, not ==: the key order of each trade is what the CLI prints
            assert repr(policy.trades) == repr(oracle_policy.trades)
            shorted += scn.options.allow_short
        elapsed = build_seconds + time.time() - t0
        assert elapsed < 60
        assert shorted > 10 and shorted < len(bank) - 10  # both regimes present
        info["detail"] = (f"({len(bank)} scenarios, {shorted} with shorts, "
                          f"{rerolls} re-rolls, {elapsed:.1f}s)")


def test_criterion_2_hand_derived_instances():
    with report(2, "hand-derived instances") as info:
        policy, _ = solve_deterministic(fee_050_scenario())
        assert policy.terminal_wealth == D("104.50")
        assert policy.trades == ((1, {"A": 9}), (2, {"A": -9}))
        _, oracle_value = brute_force_solve(fee_050_scenario())
        assert oracle_value == D("104.50")

        policy, _ = solve_deterministic(fee_100_scenario())
        assert policy.terminal_wealth == D("100.00")
        assert all(trade == {} for _, trade in policy.trades)
        _, oracle_value = brute_force_solve(fee_100_scenario())
        assert oracle_value == D("100.00")
        info["detail"] = "(104.50 and 100.00, oracle-confirmed)"


def _zero_fee_clone(scn: Scenario) -> Scenario:
    brokers = tuple(
        Broker(b.broker_id, {key: D(0) for key in b.fees}) for b in scn.fees.brokers
    )
    return scn._replace(fees=FeeTable(brokers))


def _random_state(rng, scn, lo_index=0):
    grid = scn.market.grid
    idx = rng.randint(lo_index, len(grid) - 2)
    t = grid.points[idx]
    page = scn.deal_book()[idx]
    holdings = {}
    for sid in page.active:
        qty = rng.randint(page.floor, 6)
        if qty:
            holdings[sid] = qty
    cash = D(rng.randint(0, 5000)) / 100
    return LedgerState(idx, holdings, cash), t


def test_criterion_3_self_financing_identity():
    with report(3, "self-financing identity under zero fees") as info:
        rng = random.Random(333)
        checked = 0
        while checked < 1000:
            scn = _zero_fee_clone(random_scenario(rng))
            market = scn.market
            book = scn.deal_book()
            state, t = _random_state(rng, scn)
            next_t = market.grid.points[state.time_index + 1]
            # the identity is about trade accounting; positions expiring
            # across the step lose value by forfeiture, not by trading
            if any(market.security(s).window_end < next_t for s in state.holdings):
                continue
            trade = {
                sid: rng.randint(-3, 3)
                for sid in book[state.time_index].active
                if market.security(sid).window_end >= next_t and rng.random() < 0.8
            }
            try:
                after = apply_rebalance(state, trade, book)
            except (InadmissibleTradeError, ShortCapExceededError):
                continue
            lot = scn.options.lot_size
            assert wealth(after, market, t, lot) == wealth(state, market, t, lot)
            checked += 1
        info["detail"] = f"({checked} state/trade pairs, exact)"


def test_criterion_4_admissibility_fuzz():
    with report(4, "cash never goes negative") as info:
        rng = random.Random(444)
        attempts = 0
        successes = 0
        while attempts < 10_000:
            scn = random_scenario(rng)
            market = scn.market
            book = scn.deal_book()
            for _ in range(25):
                attempts += 1
                state, t = _random_state(rng, scn)
                trade = {
                    sid: rng.randint(-6, 6)
                    for sid in book[state.time_index].active
                    if rng.random() < 0.8
                }
                try:
                    after = apply_rebalance(state, trade, book)
                except (InadmissibleTradeError, ShortCapExceededError):
                    continue
                assert after.cash >= 0
                successes += 1
        info["detail"] = f"({attempts} trades, {successes} admissible, 0 violations)"


def test_criterion_5_stochastic_reduction():
    with report(5, "degenerate distributions reduce to the deterministic solve") as info:
        rng = random.Random(555)
        for _ in range(100):
            scn = random_scenario(rng)
            det_policy, _ = solve_deterministic(scn)
            twin = degenerate_twin(scn)
            sto_policy, _ = solve_deterministic(build_expected_market(twin))
            sto_value = sto_policy.terminal_wealth
            assert sto_value == det_policy.terminal_wealth
            assert sto_policy.trades == det_policy.trades
            assert trace_text(build_expected_market(twin), sto_policy) == \
                trace_text(scn, det_policy)
        info["detail"] = "(100 scenarios, bit-identical policies, values, traces)"


def test_criterion_6_linearity_audit():
    with report(6, "certainty equivalent equals the outcome-weighted replay") as info:
        rng = random.Random(666)
        checked = 0
        multi = 0
        while checked < 50:
            scn = random_audit_scenario(rng)
            assert validate_scenario(scn) == []
            policy, _ = solve_deterministic(build_expected_market(scn))
            ce_value = policy.terminal_wealth
            outcomes = enumerate_joint_outcomes(scn)
            with localcontext(EXACT_CONTEXT):
                total = D(0)
                for outcome_scn, prob in outcomes:
                    total += prob * replay_terminal_wealth(outcome_scn, policy)
            assert total == ce_value
            checked += 1
            multi += len(outcomes) > 1
        assert multi >= 25  # most instances carry genuine randomness
        info["detail"] = f"({checked} scenarios, {multi} with multi-point joints, exact)"


def test_criterion_7_dominance_soundness(sweep_bank):
    bank, _, _ = sweep_bank
    with report(7, "pruning never changes the terminal wealth") as info:
        for scn, (_, oracle_value) in bank:
            policy, _ = solve_deterministic(scn, prune=False)
            assert policy.terminal_wealth == oracle_value
        info["detail"] = f"({len(bank)} scenarios re-solved without pruning)"


def test_criterion_8_monotonicity_in_capital():
    with report(8, "terminal wealth is monotone in the initial capital") as info:
        rng = random.Random(888)
        for _ in range(20):
            scn = random_scenario(rng)
            base, _ = solve_deterministic(scn)
            richer = scn._replace(initial_capital=scn.initial_capital + 10)
            more, _ = solve_deterministic(richer)
            assert more.terminal_wealth >= base.terminal_wealth
        info["detail"] = "(20 scenarios at S0 and S0+10)"


def test_criterion_9_state_budget_bounds_the_widest_layer(tmp_path, capsys):
    with report(9, "a cap at the widest layer changes nothing; one less exits 3") as info:
        scn = scenario_from_dict(ties_doc(3, "12.0000"))
        _, table = solve_deterministic(scn)
        sizes = [len(layer) for layer in table.layers]
        widest = max(sizes)
        layer = sizes.index(widest)
        path = tmp_path / "wide.json"
        path.write_text(dump_scenario(scn), encoding="utf-8")
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        solve = ["solve", "--scenario", str(path)]
        assert cli.main(solve + ["--output", str(out_a)]) == 0
        assert cli.main(solve + ["--output", str(out_b),
                                 "--max-states", str(widest)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        capsys.readouterr()
        assert cli.main(solve + ["--max-states", str(widest - 1)]) == 3
        assert f"layer {layer} reached {widest} states" in capsys.readouterr().err
        info["detail"] = f"(layer {layer} holds {widest} nodes)"


def _root_bound(scn: Scenario) -> Fraction:
    """``U_0 = m_0 · capital``, an upper bound on a long-only instance's answer.

    Read backwards from the horizon end, where ``m = 1`` and every lot is
    worth 0. At the decision time ``t_j``, ``v'_s`` is the next time's worth
    of a lot of ``s``, 0 if ``s`` leaves circulation. At a forced last sale,
    ``m_j = 1`` and a lot is worth its sale. Otherwise cash turns into lots
    at the best rate ``max_s v'_s / buy_s`` if that beats ``m_{j+1}``, and a
    lot is worth the better of keeping it and selling it into cash,
    ``max(v'_s, sell_s · m_j)``. Neither the deal book nor the walk is read.
    """
    scn = priced_instance(scn)
    points = scn.market.grid.points
    lot = Fraction(scn.options.lot_size)
    m, worth = Fraction(1), {}
    for j in reversed(range(len(points) - 1)):
        t = points[j]
        terms = {}
        for sec in scn.market.securities:
            if is_active(sec, t):
                price = Fraction(price_at(sec, t))
                fee = Fraction(effective_fee(sec, t, scn.fees))
                terms[sec.security_id] = ((price + fee) * lot, (price - fee) * lot)
        if j == len(points) - 2 and not scn.options.hold_to_end:
            m, worth = Fraction(1), {sid: sell for sid, (_, sell) in terms.items()}
        else:
            # a security not active at t_{j+1} has no worth there: it reads 0
            m = max([m] + [worth.get(sid, 0) / buy for sid, (buy, _) in terms.items()])
            worth = {sid: max(worth.get(sid, 0), sell * m) for sid, (_, sell) in terms.items()}
    return m * Fraction(scn.initial_capital)


def test_no_long_only_answer_exceeds_the_root_bound():
    rng7, rng11, rng5 = random.Random(7), random.Random(11), random.Random(5)
    instances = (
        [random_scenario(rng7, allow_short=False, hold_to_end=True) for _ in range(300)]
        + [random_scenario(rng11, allow_short=False) for _ in range(300)]
        + [random_audit_scenario(rng5) for _ in range(100)]
        + [load_scenario(path) for path in sorted(DOCS.glob("*.json"))]
    )
    checked = tight = 0
    for scn in instances:
        if scn.options.allow_short:
            continue
        try:
            policy, _ = solve_deterministic(scn)
        except RebalplanError:
            continue
        bound = _root_bound(scn)
        assert policy.terminal_wealth <= bound, scn
        checked += 1
        tight += policy.terminal_wealth == bound
    # a bound loose everywhere, or a sweep that skipped everything, certifies nothing
    assert tight > checked // 2, (tight, checked)


def _flat(scn: Scenario, zero_fees: bool) -> Scenario:
    """``scn`` with each security quoted at its first quote throughout, and with no fee if asked."""
    securities = tuple(sec._replace(quotes=dict.fromkeys(sec.quotes, sec.quotes[min(sec.quotes)]))
                       for sec in scn.market.securities)
    fees = scn.fees
    if zero_fees:
        fees = FeeTable(tuple(b._replace(fees=dict.fromkeys(b.fees, D(0))) for b in fees.brokers))
    return scn._replace(market=Market(scn.market.grid, securities), fees=fees)


def test_with_flat_prices_a_long_only_plan_trades_nothing():
    """Where no price moves, no long-only plan ends above the capital.

    A lot bought costs at least what it brings when sold, and one still held
    when it matures, or at the horizon end, is lost. So the best wealth is
    the capital, and the plan that reaches it with the fewest lots trades
    nothing. Checked against the capital alone, apart from the ledger, with
    the drawn fees and with none, under the forced last sale and under
    ``hold_to_end``.
    """
    rng2024, rng7 = random.Random(2024), random.Random(7)
    instances = ([random_scenario(rng2024, allow_short=False) for _ in range(300)]
                 + [random_scenario(rng7, allow_short=False, hold_to_end=True) for _ in range(300)])
    assert 0 < sum(scn.options.hold_to_end for scn in instances[:300]) < 300
    for scn in instances:
        for zero_fees in (False, True):
            flat = _flat(scn, zero_fees)
            policy, _ = solve_deterministic(flat)
            assert policy.terminal_wealth == flat.initial_capital, flat
            assert all(trade == {} for _, trade in policy.trades), flat


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a short left open when its security matures is forfeited at zero "
                          "value, never bought back: ROADMAP item 1, and the FOUND line on "
                          "forfeited shorts in CHANGES.md")
def test_with_flat_prices_and_no_fees_a_short_plan_ends_at_the_capital():
    # the FOUND line's document: shorting 5 lots of A at 10 before it matures
    # ends at 50 from no capital
    found = simple_scenario(capital="0.0000", times=(1, 2, 3, 4), maturity=1,
                            quotes={1: "10.0000", 2: "10.0000"}, fee="0.0000",
                            allow_short=True, short_cap=5)
    rng = random.Random(2024)
    instances = [found] + [_flat(random_scenario(rng, allow_short=True), True) for _ in range(300)]
    gains = [scn for scn in instances
             if solve_deterministic(scn)[0].terminal_wealth != scn.initial_capital]
    assert gains == []
