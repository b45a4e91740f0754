import itertools
import json
import random
import tracemalloc
from decimal import Context, Decimal, localcontext
from pathlib import Path

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
    build_expected_market,
    enumerate_controls,
    extract_policy,
    price_at,
    replay_policy,
    replay_terminal_wealth,
    scenario_from_dict,
    solve_deterministic,
    trace_text,
    wealth,
)
from rebalplan.dp import ValueNode, ValueTable, _expand
from rebalplan.errors import (
    EmptyTableError,
    InadmissibleTradeError,
    InexactArithmeticError,
    RebalplanError,
    StateBudgetExceededError,
)
from rebalplan.market import deal_book

from scenariogen import (
    fee_050_scenario,
    fee_100_scenario,
    flat_doc,
    many_lots_doc,
    random_scenario,
    simple_scenario,
    ties_doc,
    twenty_nine_digit_doc,
)

D = Decimal

DOCS = Path(__file__).resolve().parent.parent / "docs" / "examples"


def test_enumerate_controls_budget_bound():
    scn = fee_050_scenario()
    controls = tuple(enumerate_controls(scn.initial_state(), scn.deal_book()))
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
    controls = tuple(enumerate_controls(state, scn.deal_book()))
    assert sorted(t.get("A", 0) for t in controls) == [-2, -1, 0]


def test_enumerate_controls_is_exact_in_a_narrow_caller_context():
    # one lot of 5e15 is affordable; at 6 digits a cash of 1e16 would also afford two
    scn = scenario_from_dict(twenty_nine_digit_doc())
    with localcontext(Context(prec=6)):
        controls = list(enumerate_controls(scn.initial_state(), scn.deal_book()))
    assert controls == [{}, {"A": 1}]


def _answers(scn):
    policy, table = solve_deterministic(scn)
    oracle, value = brute_force_solve(scn)
    return (policy.trades, repr(policy.terminal_wealth),
            [[repr(node.state) for node in layer] for layer in table.layers],
            oracle.trades, repr(value), repr(replay_terminal_wealth(scn, policy)),
            trace_text(scn, policy))


@pytest.mark.parametrize("path", sorted(DOCS.glob("*.json")), ids=lambda path: path.stem)
def test_every_answer_is_the_same_in_a_narrow_caller_context(path):
    scn = scenario_from_dict(json.loads(path.read_text(encoding="utf-8")))
    expected = _answers(scn)
    with localcontext(Context(prec=6)):
        assert _answers(scn) == expected


def test_enumerate_controls_with_nothing_in_circulation():
    scn = simple_scenario(issue_time=2, maturity=1)
    controls = tuple(enumerate_controls(scn.initial_state(), scn.deal_book()))
    assert controls == ({},)


def test_enumerate_controls_allows_selling_to_fund_buying():
    grid = TimeGrid((1, 2, 3))
    a = Security("A", 1, 2, {1: D("10.00"), 2: D("10.00"), 3: D("10.00")}, {})
    b = Security("B", 1, 2, {1: D("10.00"), 2: D("10.00"), 3: D("10.00")}, {})
    market = Market(grid, (a, b))
    fees = FeeTable((Broker("b1", {(s, t): D("0.00") for s in "AB" for t in (1, 2, 3)}),))
    scn = Scenario(D("0.00"), market, fees, SolverOptions())
    state = LedgerState(0, {"B": 3}, D("0.00"))
    controls = tuple(enumerate_controls(state, scn.deal_book()))
    # with no cash at all, buying A is only reachable through selling B
    assert {"A": 3, "B": -3} in controls
    assert {"A": 1, "B": -1} in controls
    assert {"A": 1} not in controls


def test_enumerate_controls_yields_each_vector_once_in_its_own_dict():
    # many vectors end on a zero delta, and the walk hands those out as the
    # prefix dict itself: no later vector may change one already yielded.
    # The second input charges 6.00 on B, quoted 5.00: a sale of B pays out cash.
    for fee_b in ("0.50", "6.00"):
        _check_each_vector_once_in_its_own_dict(fee_b)


def _check_each_vector_once_in_its_own_dict(fee_b):
    grid = TimeGrid((1, 2))
    prices = {"A": "3.00", "B": "5.00", "C": "7.00"}
    market = Market(grid, tuple(Security(sid, 1, 1, {1: D(p), 2: D(p)}, {})
                                for sid, p in prices.items()))
    fee = {"A": "0.50", "B": fee_b, "C": "0.50"}
    fees = FeeTable((Broker("b1", {(sid, t): D(fee[sid]) for sid in prices for t in (1, 2)}),))
    state = LedgerState(0, {"A": 2, "B": 1}, D("20.00"))
    book = deal_book(market, fees, D(1), floor=-1)
    # each vector is snapshot as it comes and compared once the walk is done
    taken = [(trade, dict(trade)) for trade in enumerate_controls(state, book)]
    assert all(trade == snapshot for trade, snapshot in taken)
    assert len({id(trade) for trade, _ in taken}) == len(taken)

    vectors = [tuple(sorted(snapshot.items())) for _, snapshot in taken]
    assert len(set(vectors)) == len(vectors)
    admissible = set()
    # cash 20 plus every sale (at most 7.50 + 9.00 + 6.50) buys at most 12 A, 7 B, 5 C
    for deltas in itertools.product(range(-3, 13), range(-2, 8), range(-1, 6)):
        trade = {sid: delta for sid, delta in zip("ABC", deltas) if delta}
        try:
            apply_rebalance(state, trade, book)
        except RebalplanError:
            continue
        admissible.add(tuple(sorted(trade.items())))
    assert set(vectors) == admissible
    assert any(len(v) < 3 for v in vectors) and any(len(v) == 3 for v in vectors)


def test_enumerate_controls_yields_nothing_when_cash_cannot_be_recovered():
    # a direct call on a state no solve builds: cash is negative, and selling
    # A (quoted 5.00, fee 6.00) only costs more
    market = Market(TimeGrid((1, 2)), (Security("A", 1, 1, {1: D("5.00"), 2: D("5.00")}),))
    fees = FeeTable((Broker("b1", {("A", t): D("6.00") for t in (1, 2)}),))
    state = LedgerState(0, {"A": 1}, D("-1.00"))
    assert list(enumerate_controls(state, deal_book(market, fees, D(1)))) == []


def test_the_scenario_marks_only_its_last_page_a_forced_sale():
    scn = simple_scenario(times=(1, 2, 3, 4))
    assert [page.forced_sale for page in scn.deal_book()] == [False, False, True]
    held = simple_scenario(times=(1, 2, 3, 4), hold_to_end=True)
    assert [page.forced_sale for page in held.deal_book()] == [False, False, False]
    bare = deal_book(scn.market, scn.fees, scn.options.lot_size)
    assert [page.forced_sale for page in bare] == [False, False, False]


def _short_cap_2(**options):
    """'A' at 10.00 then 11.50 then 12.00, fee 0.50, no capital, shorts to 2 lots."""
    return simple_scenario(capital="0.0000", allow_short=True, short_cap=2, **options)


def test_a_forced_page_yields_the_full_sale_alone_affordable_or_not():
    book = _short_cap_2().deal_book()
    assert book[1].forced_sale
    nothing = LedgerState(1, {}, D("5.00"))
    assert list(enumerate_controls(nothing, book)) == [{}]
    # buying back 2 lots at 11.50 + 0.50 needs 24.00, and the state has none
    short = LedgerState(1, {"A": -2}, D("0.00"))
    assert list(enumerate_controls(short, book)) == [{"A": 2}]
    with pytest.raises(InadmissibleTradeError):
        apply_rebalance(short, {"A": 2}, book)
    # so the expansion skips it, and keeps the node that can pay
    frontier = [ValueNode(short, None, None, 0), ValueNode(nothing, None, None, 0)]
    layer = _expand(frontier, book, prune=True, cap=10)
    assert [node.state for node in layer] == [LedgerState(2, {}, D("5.00"))]


def test_with_hold_to_end_the_last_page_enumerates_like_any_other():
    long_two = LedgerState(1, {"A": 2}, D("0.00"))
    assert list(enumerate_controls(long_two, _short_cap_2().deal_book())) == [{"A": -2}]
    book = _short_cap_2(hold_to_end=True).deal_book()
    assert not book[1].forced_sale
    # no cash to buy at 12.00; sales down to the floor of -2 lots
    assert list(enumerate_controls(long_two, book)) == [{"A": d} for d in (-4, -3, -2, -1)] + [{}]


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


def _capped(scn, max_states):
    return scn._replace(options=scn.options._replace(max_states=max_states))


def test_state_budget_cap_bites():
    # the 41 ways to invest all 40 lots tie, so even an exact bound keeps more than 3
    with pytest.raises(StateBudgetExceededError):
        solve_deterministic(_capped(scenario_from_dict(ties_doc(2, "40.0000")), 3))


def test_state_budget_trips_inside_the_layer_being_built():
    # unpruned, layer 1 would hold all 10 lot counts; the cap stops it at 4
    with pytest.raises(StateBudgetExceededError) as caught:
        solve_deterministic(_capped(fee_050_scenario(), 3), prune=False)
    assert (caught.value.layer, caught.value.frontier) == (1, 4)
    assert "layer 1" in str(caught.value)


def test_the_budget_bounds_memory_inside_one_node():
    # the root alone has 501,501 trades; the cap must trip after 11 of them
    scn = scenario_from_dict(ties_doc(2, "1000.0000"))
    tracemalloc.start()
    try:
        with pytest.raises(StateBudgetExceededError) as caught:
            solve_deterministic(_capped(scn, 10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert caught.value.layer == 1
    assert peak < 1 << 20


def _solved(scn):
    """Policy and layers, cash by repr, or the error a solve raises."""
    try:
        policy, table = solve_deterministic(scn)
    except InexactArithmeticError as exc:
        return type(exc), str(exc)
    layers = [[(tuple(node.state.holdings.items()), repr(node.state.cash)) for node in layer]
              for layer in table.layers]
    return policy.trades, repr(policy.terminal_wealth), layers


def _fractional_lot_doc():
    # (price + fee) * lot needs 29 significant digits: no exact per-lot amount
    doc = twenty_nine_digit_doc("999999999999999.999999999999")
    doc["initial_capital"] = "1"
    doc["securities"][0]["quotes"]["1"] = "999999999999999.999999999999"
    doc["options"]["lot_size"] = "1.5"
    return doc


@pytest.mark.parametrize("first_use", ["apply_rebalance", "trace_text"])
@pytest.mark.parametrize("doc", [
    twenty_nine_digit_doc(),
    twenty_nine_digit_doc("5000000000000000"),
    _fractional_lot_doc(),
    flat_doc(2, "3"),
], ids=["rounds", "exact", "fractional-lot", "flat"])
def test_the_deal_book_does_not_depend_on_its_first_caller(doc, first_use):
    fresh = _solved(scenario_from_dict(doc))
    scn = scenario_from_dict(doc)
    hold = Policy(((1, {}), (2, {})), D(0))
    # a first use in the default decimal context, which rounds silently
    if first_use == "apply_rebalance":
        state = scn.initial_state()
        for _ in hold.trades:
            state = apply_rebalance(state, {}, scn.deal_book())
    else:
        trace_text(scn, hold)
    assert _solved(scn) == fresh


def test_a_solve_sees_quotes_and_fees_edited_in_place_after_an_earlier_solve():
    # each public call builds its own deal book, so no call keeps a price
    scn = scenario_from_dict(json.loads((DOCS / "buy_then_liquidate.json").read_text()))
    first = solve_deterministic(scn)[0]
    assert first.terminal_wealth == D("104.50000000")
    assert brute_force_solve(scn)[1] == D("104.50000000")
    assert replay_terminal_wealth(scn, first) == D("104.50000000")
    assert "2,A,9,0,-103.5000,4.5000,104.5000,104.5000" in trace_text(scn, first).splitlines()
    # a loaded scenario's quotes and fees are plain dicts
    scn.market.security("A").quotes[2] = D("20.0000")
    scn.fees.brokers[0].fees[("A", 1)] = D("0.0000")
    # the replay and the trace of the first policy price it on the edits
    assert replay_terminal_wealth(scn, first) == D("185.50000000")
    assert "2,A,9,0,-180.0000,4.5000,185.5000,185.5000" in trace_text(scn, first).splitlines()
    assert solve_deterministic(scn)[0].terminal_wealth == D("195.00000000")
    assert brute_force_solve(scn)[1] == D("195.00000000")
    # as a fresh load of the same edits solves it
    doc = json.loads((DOCS / "buy_then_liquidate.json").read_text())
    doc["securities"][0]["quotes"]["2"] = "20.0000"
    doc["brokers"][0]["fees"]["A"]["1"] = "0.0000"
    assert solve_deterministic(scenario_from_dict(doc))[0].terminal_wealth == D("195.00000000")


def test_value_nodes_replay_to_their_own_state():
    scn = fee_050_scenario()
    policy, table = solve_deterministic(scn)
    market, book = scn.market, scn.deal_book()
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
                state = apply_rebalance(state, trade, book)
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


def test_a_cash_and_lots_tie_breaks_on_the_trade_sequence():
    # buying the ten lots at time 1 or at time 2, or any split of them, ends
    # with the same cash and lots; the smallest flattened sequence wins
    scn = simple_scenario(
        fee="0.0000",
        times=(1, 2, 3, 4),
        quotes={1: "10.0000", 2: "10.0000", 3: "12.0000", 4: "12.0000"},
    )
    for prune in (True, False):
        policy, _ = solve_deterministic(scn, prune=prune)
        assert policy.trades == ((1, {"A": 1}), (2, {"A": 9}), (3, {"A": -10}))
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


def test_a_lot_count_too_long_to_hold_raises():
    # valid, but about 10**40 lots are affordable: cash // cost cannot be held
    scn = scenario_from_dict(many_lots_doc())
    with pytest.raises(InexactArithmeticError):
        solve_deterministic(scn)
    with pytest.raises(InexactArithmeticError):
        brute_force_solve(scn)


def test_the_records_keep_no_instance_dict():
    # every loaded document and every kept node pays for these records
    doc = json.loads((DOCS / "two_point_upside.json").read_text(encoding="utf-8"))
    loaded = scenario_from_dict(doc)
    scn = build_expected_market(loaded)
    policy, table = solve_deterministic(scn)
    sec = loaded.market.securities[0]
    node = table.layers[-1][0]
    records = [loaded.market.grid, next(iter(sec.distributions.values())), sec,
               scn.fees.brokers[0], scn.fees, scn.market, scn.deal_book()[0],
               scn.initial_state(), node.state, node, policy, table,
               scn.options, scn]
    assert [type(r).__name__ for r in records if hasattr(r, "__dict__")] == []
