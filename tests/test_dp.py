import random
from decimal import Decimal

import pytest

from rebalplan import (
    Broker,
    FeeTable,
    LedgerState,
    Market,
    Policy,
    Scenario,
    Security,
    SolverOptions,
    TimeGrid,
    apply_rebalance,
    brute_force_solve,
    enumerate_controls,
    extract_policy,
    price_at,
    scenario_from_dict,
    solve_deterministic,
    wealth,
)
from rebalplan.dp import ValueTable
from rebalplan.errors import EmptyTableError, InexactArithmeticError, StateBudgetExceededError
from rebalplan.replay import replay_policy, replay_terminal_wealth

from scenariogen import (
    fee_050_scenario,
    fee_100_scenario,
    random_scenario,
    simple_scenario,
    twenty_nine_digit_doc,
)

D = Decimal


def test_enumerate_controls_budget_bound():
    scn = fee_050_scenario()
    controls = enumerate_controls(scn.initial_state(), scn.market, scn.fees,
                                  scn.trade_rules())
    got = sorted(trade.get("A", 0) for trade in controls)
    # independent check: filter every lot count by cost <= cash
    expected = sorted(
        h for h in range(0, 50)
        if D("10.50") * h <= D("100.00")
    )
    assert got == expected == list(range(0, 10))
    assert {} in controls


def test_enumerate_controls_can_only_sell_without_cash():
    scn = fee_050_scenario()
    state = LedgerState(0, {"A": 2}, D("0.00"))
    controls = enumerate_controls(state, scn.market, scn.fees, scn.trade_rules())
    assert sorted(t.get("A", 0) for t in controls) == [-2, -1, 0]


def test_enumerate_controls_without_active_securities():
    scn = simple_scenario(issue_time=2, maturity=1)
    controls = enumerate_controls(scn.initial_state(), scn.market, scn.fees,
                                  scn.trade_rules())
    assert controls == ({},)


def test_enumerate_controls_allows_selling_to_fund_buying():
    grid = TimeGrid((1, 2, 3))
    a = Security("A", 1, 2, {1: D("10.00"), 2: D("10.00"), 3: D("10.00")}, {})
    b = Security("B", 1, 2, {1: D("10.00"), 2: D("10.00"), 3: D("10.00")}, {})
    market = Market(grid, (a, b))
    fees = FeeTable((Broker("b1", {(s, t): D("0.00") for s in "AB" for t in (1, 2, 3)}),))
    scn = Scenario(D("0.00"), market, fees, SolverOptions())
    state = LedgerState(0, {"B": 3}, D("0.00"))
    controls = enumerate_controls(state, market, fees, scn.trade_rules())
    # with no cash at all, buying A is only reachable through selling B
    assert {"A": 3, "B": -3} in controls
    assert {"A": 1, "B": -1} in controls
    assert {"A": 1} not in controls


def test_delta_wealth():
    def delta(prev, nxt, market):
        """Wealth increment between two states, each valued at its own time."""
        def at(state):
            return wealth(state, market, market.grid.points[state.time_index])
        return at(nxt) - at(prev)

    scn = fee_050_scenario()
    market = scn.market
    prev = LedgerState(0, {}, D("100.00"))
    nxt = LedgerState(1, {"A": 9}, D("5.50"))
    # W(t2) = 5.50 + 9 * 11.50 = 109.00
    assert delta(prev, nxt, market) == D("9.00")
    same_prices = simple_scenario(quotes={1: "10.0000", 2: "10.0000", 3: "10.0000"})
    held = LedgerState(0, {"A": 5}, D("50.00"))
    still = LedgerState(1, {"A": 5}, D("50.00"))
    assert delta(held, still, same_prices.market) == D("0.00")
    dropped = simple_scenario(quotes={1: "10.0000", 2: "9.0000", 3: "9.0000"})
    assert delta(held, still, dropped.market) == D("-5.00")


def test_solver_buys_nine_lots_then_liquidates():
    policy, table = solve_deterministic(fee_050_scenario())
    assert policy.terminal_wealth == D("104.50")
    assert policy.trades == ((1, {"A": 9}), (2, {"A": -9}))
    # independent brute force over the one-security lot grid
    best = max(
        D("100.00") - D("10.50") * h + D("11.00") * h
        for h in range(0, 10)
    )
    assert policy.terminal_wealth == best


def test_solver_stays_in_cash_when_fees_eat_the_spread():
    policy, _ = solve_deterministic(fee_100_scenario())
    assert policy.terminal_wealth == D("100.00")
    assert policy.trades == ((1, {}), (2, {}))
    best = max(
        D("100.00") - D("11.00") * h + D("10.50") * h
        for h in range(0, 10)
    )
    assert policy.terminal_wealth == best


def test_flat_prices_and_zero_fees_tie_break_to_no_trading():
    scn = simple_scenario(fee="0.0000",
                          quotes={1: "10.0000", 2: "10.0000", 3: "10.0000"})
    policy, _ = solve_deterministic(scn)
    assert policy.terminal_wealth == D("100.00")
    assert policy.trades == ((1, {}), (2, {}))


def test_extract_policy_replays_to_the_reported_wealth():
    scn = fee_050_scenario()
    policy, table = solve_deterministic(scn)
    assert extract_policy(table).trades == policy.trades
    assert replay_terminal_wealth(scn, policy) == policy.terminal_wealth


def test_single_point_grid_returns_the_initial_capital():
    grid = TimeGrid((1,))
    scn = Scenario(D("42.00"), Market(grid, ()), FeeTable(()), SolverOptions())
    policy, _ = solve_deterministic(scn)
    assert policy.trades == ()
    assert policy.terminal_wealth == D("42.00")


def test_two_point_grid_is_the_base_case():
    scn = simple_scenario(times=(1, 2), maturity=1,
                          quotes={1: "10.0000", 2: "11.0000"})
    policy, _ = solve_deterministic(scn)
    assert policy.trades == ((1, {}),)
    assert policy.terminal_wealth == D("100.00")


def test_extract_policy_rejects_an_empty_table():
    with pytest.raises(EmptyTableError):
        extract_policy(ValueTable(TimeGrid((1, 2)), []))


def test_state_budget_cap_bites():
    with pytest.raises(StateBudgetExceededError):
        solve_deterministic(fee_050_scenario(), max_states=3)


def test_state_budget_trips_inside_the_layer_being_built():
    # unpruned, layer 1 would hold all 10 lot counts; the cap stops it at 4
    with pytest.raises(StateBudgetExceededError) as caught:
        solve_deterministic(fee_050_scenario(), prune=False, max_states=3)
    assert (caught.value.layer, caught.value.frontier) == (1, 4)
    assert "layer 1" in str(caught.value)


def test_value_nodes_replay_to_their_own_state():
    scn = fee_050_scenario()
    policy, table = solve_deterministic(scn)
    market, rules = scn.market, scn.trade_rules()
    for layer in table.layers:
        for node in layer:
            # replay the parent chain through the ledger
            chain = []
            cursor = node
            while cursor.parent is not None:
                chain.append((market.grid.points[cursor.state.time_index - 1],
                              cursor.trade))
                cursor = cursor.parent
            state = scn.initial_state()
            for t, trade in reversed(chain):
                state = apply_rebalance(state, trade, market, scn.fees, rules)
            assert state == node.state
    assert max(node.state.cash for node in table.layers[-1]) == policy.terminal_wealth


def test_disabling_pruning_changes_nothing():
    rng = random.Random(123)
    for _ in range(25):
        scn = random_scenario(rng)
        pruned, _ = solve_deterministic(scn)
        free, _ = solve_deterministic(scn, prune=False)
        assert pruned.terminal_wealth == free.terminal_wealth
        assert pruned.trades == free.trades


def test_terminal_wealth_monotone_in_capital():
    rng = random.Random(124)
    for _ in range(15):
        scn = random_scenario(rng)
        richer = Scenario(scn.initial_capital + 10, scn.market, scn.fees, scn.options)
        base, _ = solve_deterministic(scn)
        more, _ = solve_deterministic(richer)
        assert more.terminal_wealth >= base.terminal_wealth


def test_rising_prices_with_zero_fees_hold_the_maximum():
    scn = simple_scenario(
        fee="0.0000",
        times=(1, 2, 3, 4),
        quotes={1: "10.0000", 2: "11.0000", 3: "12.0000", 4: "13.0000"},
    )
    policy, _ = solve_deterministic(scn)
    states = replay_policy(scn, policy)
    for state in states[1:-1]:
        t = scn.market.grid.points[state.time_index]
        price = price_at(scn.market.security("A"), t)
        assert state.holdings.get("A", 0) == 10
        assert state.cash < price  # cannot afford one more lot
    # ten lots bought at 10.00, sold into the forced liquidation at 12.00
    assert policy.terminal_wealth == D("120.00")


def test_a_result_that_would_round_raises():
    # at 28 significant digits the round trip is exact and breaks even
    exact = scenario_from_dict(twenty_nine_digit_doc("5000000000000000"))
    policy, _ = solve_deterministic(exact)
    assert repr(policy.terminal_wealth) == "Decimal('9999999999999999.999999999999')"
    assert brute_force_solve(exact)[1] == policy.terminal_wealth

    scn = scenario_from_dict(twenty_nine_digit_doc())
    round_trip = Policy(((1, {"A": 1}), (2, {"A": -1})), D(0))
    with pytest.raises(InexactArithmeticError):
        solve_deterministic(scn)
    with pytest.raises(InexactArithmeticError):
        solve_deterministic(scn, prune=False)
    with pytest.raises(InexactArithmeticError):
        replay_policy(scn, round_trip)
    with pytest.raises(InexactArithmeticError):
        brute_force_solve(scn)
