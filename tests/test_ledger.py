import json
import random
from decimal import Context, Decimal, localcontext
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rebalplan import (
    Broker,
    DiscreteDistribution,
    FeeTable,
    LedgerState,
    Market,
    Security,
    TimeGrid,
    apply_rebalance,
    effective_fee,
    scenario_from_dict,
    solve_deterministic,
    wealth,
)
from rebalplan.errors import (
    FeeMissingError,
    InactiveSecurityError,
    InadmissibleTradeError,
    InexactArithmeticError,
    QuoteMissingError,
    ShortCapExceededError,
)
from rebalplan.ledger import full_sale, opening_state
from rebalplan.market import deal_book
from scenariogen import twenty_nine_digit_doc

D = Decimal

DOCS = Path(__file__).resolve().parent.parent / "docs" / "examples"


def two_security_market():
    grid = TimeGrid((1, 2, 3))
    a = Security("A", 1, 2, {1: D("10.00"), 2: D("11.50"), 3: D("12.00")}, {})
    m = Security("M", 1, 0, {1: D("5.00")}, {})  # matures immediately after t=1
    return Market(grid, (a, m))


def flat_fees(fee):
    quotes = {}
    for sid, times in (("A", (1, 2, 3)), ("M", (1,))):
        for t in times:
            quotes[(sid, t)] = D(fee)
    return FeeTable((Broker("b1", quotes),))


MARKET = two_security_market()
FEES = flat_fees("0.50")
BOOK = deal_book(MARKET, FEES, D(1))


def test_holdings_are_kept_in_id_order_without_zeros():
    state = LedgerState(0, {"B": 1, "A": 2, "C": 0}, D("1.00"))
    assert list(state.holdings.items()) == [("A", 2), ("B", 1)]
    assert tuple(state.holdings.items()) == (("A", 2), ("B", 1))
    assert state == LedgerState(0, {"A": 2, "B": 1}, D("1.00"))


def test_a_state_that_holds_nothing_shares_the_opening_mapping():
    opening = opening_state(D("100.00"))
    bought = apply_rebalance(opening, {"A": 2}, BOOK)
    sold = apply_rebalance(bought, {"A": -2}, BOOK)
    forfeited = apply_rebalance(opening, {"M": 1}, BOOK)  # M matures after t=1
    built = LedgerState(1, {"A": 0}, D("1.00"))
    for state in (sold, forfeited, built):
        assert state.holdings == {} and state.holdings is opening.holdings
    assert bought.holdings is not opening.holdings


def test_wealth_marks_holdings_to_market():
    state = LedgerState(0, {"A": 5}, D("100.00"))
    assert wealth(state, MARKET, 1) == D("150.00")


def test_wealth_of_pure_cash():
    state = LedgerState(0, {}, D("100.00"))
    assert wealth(state, MARKET, 1) == D("100.00")


def test_wealth_ignores_matured_positions():
    state = LedgerState(1, {"M": 5}, D("50.00"))
    assert wealth(state, MARKET, 2) == D("50.00")


def test_wealth_that_would_round_raises_in_any_context():
    # the exact 10000000000000000.999999999999 needs 29 digits
    scn = scenario_from_dict(twenty_nine_digit_doc())
    bought = apply_rebalance(scn.initial_state(), {"A": 1}, scn.deal_book())
    with pytest.raises(InexactArithmeticError):
        wealth(bought, scn.market, 2)


def test_wealth_is_exact_in_a_narrow_caller_context():
    state = LedgerState(0, {"A": 5}, D("12345.67"))
    with localcontext(Context(prec=6)):
        assert wealth(state, MARKET, 1) == D("12395.67")


@pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                   reason="a direct apply_rebalance call computes cash in the caller's context: "
                          "ROADMAP item 11, and the FOUND line on direct apply_rebalance calls "
                          "in CHANGES.md")
def test_a_direct_round_trip_that_would_round_raises():
    # outside any exact block the sale rounds to 10000000000000001.00000000000
    scn = scenario_from_dict(twenty_nine_digit_doc())
    book = scn.deal_book()
    bought = apply_rebalance(scn.initial_state(), {"A": 1}, book)
    with pytest.raises(InexactArithmeticError):
        apply_rebalance(bought, {"A": -1}, book)


def test_apply_rebalance_charges_price_plus_fee():
    state = LedgerState(0, {}, D("100.00"))
    after = apply_rebalance(state, {"A": 2}, BOOK)
    assert after.cash == D("79.00")
    assert dict(after.holdings) == {"A": 2}
    assert after.time_index == 1


def test_apply_rebalance_reports_the_deficit():
    state = LedgerState(0, {}, D("10.00"))
    with pytest.raises(InadmissibleTradeError) as info:
        apply_rebalance(state, {"A": 2}, BOOK)
    assert info.value.deficit == D("11.00")


def test_zero_trade_is_always_admissible():
    state = LedgerState(0, {"A": 2}, D("79.00"))
    after = apply_rebalance(state, {}, BOOK)
    assert after.cash == D("79.00")
    assert dict(after.holdings) == {"A": 2}


def test_apply_rebalance_enforces_the_position_floor():
    state = LedgerState(0, {"A": 1}, D("100.00"))
    with pytest.raises(ShortCapExceededError):
        apply_rebalance(state, {"A": -2}, BOOK)
    book = deal_book(MARKET, FEES, D(1), floor=-3)
    after = apply_rebalance(state, {"A": -2}, book)
    assert dict(after.holdings) == {"A": -1}
    with pytest.raises(ShortCapExceededError):
        apply_rebalance(state, {"A": -5}, book)


def test_the_scenario_works_out_the_position_floor():
    doc = json.loads((DOCS / "buy_then_liquidate.json").read_text())
    doc["options"]["short_cap"] = 3
    # a short cap with shorting off holds positions to 0, as no cap does
    long_only = scenario_from_dict(doc)
    assert [page.floor for page in long_only.deal_book()] == [0, 0]
    doc["options"]["short_cap"] = 0
    assert solve_deterministic(long_only) == solve_deterministic(scenario_from_dict(doc))

    doc["options"].update(allow_short=True, short_cap=3)
    shorting = scenario_from_dict(doc)
    book = shorting.deal_book()
    assert [page.floor for page in book] == [-3, -3]
    state = shorting.initial_state()
    assert dict(apply_rebalance(state, {"A": -3}, book).holdings) == {"A": -3}
    with pytest.raises(ShortCapExceededError):
        apply_rebalance(state, {"A": -4}, book)


def test_apply_rebalance_rejects_unissued_or_matured():
    state = LedgerState(1, {}, D("100.00"))
    with pytest.raises(InactiveSecurityError):
        apply_rebalance(state, {"M": 1}, BOOK)


def test_expiring_positions_are_forfeited_on_advance():
    state = LedgerState(0, {"M": 4}, D("10.00"))
    after = apply_rebalance(state, {}, BOOK)
    assert dict(after.holdings) == {}  # M's window closed before t=2


def liquidate_all(state, market, fees):
    """Cash after selling every position still in circulation."""
    book = deal_book(market, fees, D(1))
    return apply_rebalance(state, full_sale(state, book[state.time_index]), book).cash


def test_liquidate_all_books_proceeds_minus_fees():
    grid = TimeGrid((1, 2, 3))
    a = Security("A", 1, 2, {1: D("10.00"), 2: D("12.00"), 3: D("12.00")}, {})
    market = Market(grid, (a,))
    state = LedgerState(1, {"A": 2}, D("79.00"))
    # 79.00 + 2 * 12.00 - 2 * 0.50
    assert liquidate_all(state, market, FEES) == D("102.00")


def test_liquidate_all_with_nothing_to_sell():
    state = LedgerState(1, {}, D("100.00"))
    assert liquidate_all(state, MARKET, FEES) == D("100.00")


def test_liquidate_all_forfeits_matured_positions():
    state = LedgerState(1, {"M": 3}, D("50.00"))
    assert full_sale(state, BOOK[1]) == {}
    assert liquidate_all(state, MARKET, FEES) == D("50.00")


def test_fractional_lot_size_scales_cash_flows():
    state = LedgerState(0, {}, D("100.00"))
    after = apply_rebalance(state, {"A": 3}, deal_book(MARKET, FEES, D("0.5")))
    # 3 half-lots at 10.00 plus 0.50 fee per unit: 1.5 * 10.50
    assert after.cash == D("100.00") - D("15.75")


# ---------------------------------------------------------------------------
# properties


def random_state_and_trade(rng, fees):
    cash = D(rng.randint(0, 20000)) / 100
    holdings = {"A": rng.randint(0, 8)}
    state = LedgerState(0, holdings, cash)
    delta = rng.randint(-holdings["A"], 6)
    return state, {"A": delta}


def test_self_financing_identity_with_zero_fees():
    rng = random.Random(7)
    zero_fees = flat_fees("0.00")
    book = deal_book(MARKET, zero_fees, D(1))
    checked = 0
    for _ in range(300):
        state, trade = random_state_and_trade(rng, zero_fees)
        try:
            after = apply_rebalance(state, trade, book)
        except InadmissibleTradeError:
            continue
        assert wealth(after, MARKET, 1) == wealth(state, MARKET, 1)
        checked += 1
    assert checked > 100


def test_fees_only_ever_reduce_cash():
    rng = random.Random(8)
    cheap = flat_fees("0.10")
    costly = flat_fees("0.30")
    cheap_book, costly_book = deal_book(MARKET, cheap, D(1)), deal_book(MARKET, costly, D(1))
    for _ in range(200):
        state, trade = random_state_and_trade(rng, cheap)
        try:
            after_cheap = apply_rebalance(state, trade, cheap_book)
        except InadmissibleTradeError:
            continue
        try:
            after_costly = apply_rebalance(state, trade, costly_book)
        except InadmissibleTradeError:
            continue
        assert after_costly.cash <= after_cheap.cash


def test_inverse_trade_leaks_exactly_the_fees():
    rng = random.Random(9)
    for _ in range(200):
        qty = rng.randint(1, 5)
        state = LedgerState(0, {"A": 3}, D("500.00"))
        trade = {"A": qty}
        mid = apply_rebalance(state, trade, BOOK)
        # undo at the same prices: rewind the clock but keep the new book
        mid_at_t1 = LedgerState(0, dict(mid.holdings), mid.cash)
        back = apply_rebalance(mid_at_t1, {"A": -qty}, BOOK)
        assert dict(back.holdings) == dict(state.holdings)
        leak = D("0.50") * 2 * qty
        assert back.cash == state.cash - leak


def test_successful_rebalances_never_go_negative():
    rng = random.Random(10)
    for _ in range(500):
        state, trade = random_state_and_trade(rng, FEES)
        try:
            after = apply_rebalance(state, trade, BOOK)
        except InadmissibleTradeError:
            continue
        assert after.cash >= 0


# ---------------------------------------------------------------------------
# the market and fee indexes against the raw quotes and fees

IDS = ("A", "B", "C")


# equal fees at different exponents: the index must keep the first in
# broker order, as min() does
FEES_DRAWN = st.sampled_from(("0.50", "0.5", "0.30", "0.3", "0", "0.00", "1.25"))


def amount(draw, lo, hi):
    # the same value may come at different exponents (5, 5.0, 5.00)
    digits = draw(st.integers(0, 2))
    return D(hi - draw(st.integers(0, hi - lo))).scaleb(-digits)


@st.composite
def rebalance_cases(draw):
    """A small market with gaps, a state on its grid and a trade.

    Each choice shrinks towards a complete market and a trade that applies.
    """
    times = tuple(range(1, draw(st.integers(2, 4)) + 1))
    securities = []
    for sid in IDS[:draw(st.integers(1, 3))]:
        # mostly in circulation over the whole grid
        issue = draw(st.sampled_from((1, 1, 1) + times))
        maturity = draw(st.sampled_from((len(times),) * 3 + tuple(range(len(times)))))
        quotes = {t: amount(draw, 1, 30) for t in times if draw(st.integers(0, 5)) < 5}
        securities.append(Security(sid, issue, maturity, quotes, {}))
    brokers = []
    for b in range(draw(st.integers(1, 3))):
        fees = {}
        for sec in securities:
            for t in times:
                kind = draw(st.sampled_from(("scalar", "scalar", "none", "dist")))
                if kind == "scalar":
                    fees[(sec.security_id, t)] = D(draw(FEES_DRAWN))
                elif kind == "dist":
                    fees[(sec.security_id, t)] = DiscreteDistribution(
                        ((D(draw(FEES_DRAWN)), D(1)),))
        brokers.append(Broker(f"b{b}", fees))
    market = Market(TimeGrid(times), tuple(securities))
    ids = [sec.security_id for sec in securities]
    deltas = st.sampled_from((1, -1, 2, -2, 3, 4, -3, 0))
    state = LedgerState(
        draw(st.integers(0, len(times) - 2)),
        {sid: draw(deltas) for sid in ids if not draw(st.booleans())},
        amount(draw, 0, 300),
    )
    trade = {sid: draw(deltas) for sid in ids if not draw(st.booleans())}
    short_cap = draw(st.integers(0, 3))
    lot = draw(st.sampled_from((D(1), D("0.5"), D("2.00"))))
    return market, FeeTable(tuple(brokers)), state, trade, lot, -short_cap


def circulating(sec, t):
    return sec.issue_time <= t <= sec.issue_time + sec.maturity


def reference_fee(sec, t, fees):
    """The first smallest scalar fee in broker order, or None."""
    scalar = [broker.fees[(sec.security_id, t)] for broker in fees.brokers
              if isinstance(broker.fees.get((sec.security_id, t)), Decimal)]
    return min(scalar) if scalar else None


def reference_rebalance(state, trade, market, fees, lot, floor):
    """The successor state, or the error class, from the raw quotes and fees."""
    t = market.grid.points[state.time_index]
    next_t = market.grid.points[state.time_index + 1]
    spend = fee_total = D(0)
    holdings = dict(state.holdings)
    for sid, delta in sorted(trade.items()):
        if delta == 0:
            continue
        sec = market.security(sid)
        if not circulating(sec, t):
            return InactiveSecurityError
        if t not in sec.quotes:
            return QuoteMissingError
        fee = reference_fee(sec, t, fees)
        if fee is None:
            return FeeMissingError
        spend += sec.quotes[t] * lot * delta
        fee_total += fee * lot * abs(delta)
        holdings[sid] = holdings.get(sid, 0) + delta
        if holdings[sid] < floor:
            return ShortCapExceededError
    cash = state.cash - spend - fee_total
    if cash < 0:
        return InadmissibleTradeError
    return LedgerState(state.time_index + 1, {
        sid: qty for sid, qty in holdings.items()
        if circulating(market.security(sid), next_t)
    }, cash)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rebalance_cases())
def test_indexed_rebalance_matches_the_raw_quotes_and_fees(case):
    market, fees, state, trade, lot, floor = case
    expected = reference_rebalance(state, trade, market, fees, lot, floor)
    try:
        got = apply_rebalance(state, trade, deal_book(market, fees, lot, floor))
    except (InactiveSecurityError, QuoteMissingError, FeeMissingError,
            ShortCapExceededError, InadmissibleTradeError) as exc:
        assert type(exc) is expected
    else:
        assert got == expected
        assert repr(got.cash) == repr(expected.cash)
    for sec in market.securities:
        for t in market.grid.points:
            fee = reference_fee(sec, t, fees)
            if circulating(sec, t) and fee is not None:
                assert repr(effective_fee(sec, t, fees)) == repr(fee)
