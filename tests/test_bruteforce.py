import random
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    enumerate_joint_outcomes,
    replay_policy,
    replay_terminal_wealth,
    scenario_from_dict,
    solve_deterministic,
    trace_text,
    validate_scenario,
)
from rebalplan.bruteforce import _stage_candidates
from rebalplan.errors import (
    EmptyTableError,
    FeeMissingError,
    InexactArithmeticError,
    InstanceTooLargeError,
    NegativeFeeError,
    NonpositivePriceError,
    QuoteMissingError,
)
from rebalplan.market import lot_terms
from rebalplan.scenario import MODE_DETERMINISTIC

from scenariogen import (
    degenerate_twin,
    fee_050_scenario,
    fee_100_scenario,
    random_audit_scenario,
    random_scenario,
    simple_scenario,
    twenty_nine_digit_doc,
)

D = Decimal


def test_oracle_finds_the_profitable_round_trip():
    policy, value = brute_force_solve(fee_050_scenario())
    # by hand: 100 - 9 * 10.50 + 9 * 11.00
    assert value == D("100.00") - D("94.50") + D("99.00") == D("104.50")
    assert policy.trades == ((1, {"A": 9}), (2, {"A": -9}))


def test_oracle_refuses_the_losing_round_trip():
    policy, value = brute_force_solve(fee_100_scenario())
    assert value == D("100.00")
    assert policy.trades == ((1, {}), (2, {}))


def test_oracle_base_case_without_decisions():
    scn = simple_scenario(times=(1, 2), maturity=1,
                          quotes={1: "10.0000", 2: "12.0000"})
    policy, value = brute_force_solve(scn)
    assert value == scn.initial_capital
    assert policy.trades == ((1, {}),)


def test_oracle_beats_any_hand_written_policy():
    rng = random.Random(2024)
    for _ in range(20):
        scn = random_scenario(rng, hold_to_end=False)
        _, value = brute_force_solve(scn)
        # the laziest policy: never trade, liquidate nothing
        lazy = Policy(tuple((t, {}) for t in scn.market.grid.points[:-1]),
                      scn.initial_capital)
        assert value >= replay_terminal_wealth(scn, lazy)


def test_the_oracle_offers_only_the_full_sale_on_a_forced_page():
    # 'A' at 11.50, fee 0.50 at time 2: no cash buys back the short, and the
    # forced sale is offered all the same
    forced = simple_scenario(capital="0.0000", allow_short=True, short_cap=2)
    held = forced._replace(options=forced.options._replace(hold_to_end=True))
    # with hold_to_end, every sale down to the floor of -2 lots, and no buy
    for holdings, sale, sales in (({}, {}, (-2, -1)), ({"A": -2}, {"A": 2}, ()),
                                  ({"A": 2}, {"A": -2}, (-4, -3, -2, -1))):
        state = LedgerState(1, holdings, D("0.00"))
        page = forced.deal_book()[1]
        assert list(_stage_candidates(state, page, forced.market, forced.fees, D(1))) == [sale]
        page = held.deal_book()[1]
        assert list(_stage_candidates(state, page, held.market, held.fees, D(1))) == [
            {"A": d} for d in sales] + [{}]


BUY_A_AT_1 = Policy(((1, {"A": 1}), (2, {"A": -1})), D(0))


def apply_rebalance_at_open(scn):
    return apply_rebalance(scn.initial_state(), {"A": 1}, scn.deal_book())


def enumerate_controls_at_open(scn):
    return enumerate_controls(scn.initial_state(), scn.deal_book())


def replay_buying_a(scn):
    return replay_policy(scn, BUY_A_AT_1)


def trace_buying_a(scn):
    return trace_text(scn, BUY_A_AT_1)


@pytest.mark.parametrize("call", [solve_deterministic, brute_force_solve, apply_rebalance_at_open,
                                  enumerate_controls_at_open, replay_buying_a, trace_buying_a])
@pytest.mark.parametrize("quote,fee,error,bad", [
    ("1", "-1", NegativeFeeError, "fee"),
    ("1", "-2", NegativeFeeError, "fee"),
    ("-1", "0.5", NonpositivePriceError, "price"),
    ("0", "0.5", NonpositivePriceError, "price"),
    (None, "0.5", QuoteMissingError, "price"),
    ("1", None, FeeMissingError, "fee"),
    # as test_dp's fractional-lot document: (price + fee) * 1.5 needs 29 digits
    ("999999999999999.999999999999", "0", InexactArithmeticError, "lot"),
])
def test_a_quote_or_fee_out_of_range_raises_its_typed_error(call, quote, fee, error, bad):
    # built in code, so never validated; every time charges the fee, and None
    # leaves the quote or the fee at time 1 out
    quotes = {t: q for t, q in {1: quote, 2: "11.5000", 3: "12.0000"}.items() if q is not None}
    options = {"lot_size": D("1.5")} if bad == "lot" else {}
    scn = simple_scenario(capital="10", quotes=quotes, fee=fee or "0.5", **options)
    if fee is None:
        del scn.fees.brokers[0].fees[("A", 1)]
    assert bool(validate_scenario(scn)) is (bad != "lot")
    with pytest.raises(error) as direct:
        lot_terms(scn.market.security("A"), 1, scn.fees, scn.options.lot_size)
    with pytest.raises(error) as info:
        call(scn)
    assert str(info.value) == str(direct.value)
    if bad == "lot":
        return
    assert (info.value.security_id, info.value.time) == ("A", 1)
    if quote is not None and fee is not None:
        assert getattr(info.value, bad) == D(quote if bad == "price" else fee)


@pytest.mark.parametrize("capital", ["-5", "-50"])
def test_the_oracle_raises_a_typed_error_when_no_sequence_survives(capital):
    # a negative capital built in code: not even the all-zero trades are
    # admissible; below minus one lot's 10.50 every buy range is empty too,
    # so the oracle's stage yields no candidate at all
    scn = simple_scenario(capital=capital)
    with pytest.raises(EmptyTableError):
        solve_deterministic(scn)
    with pytest.raises(EmptyTableError):
        brute_force_solve(scn)


def test_oracle_work_cap():
    scn = fee_050_scenario()
    with pytest.raises(InstanceTooLargeError):
        brute_force_solve(scn, cap=3)


def test_oracle_work_cap_trips_inside_a_wide_stage():
    # about 10**16 affordable lots at price 1 at time 2: the cap must trip
    # before the stage's candidates are all made
    doc = twenty_nine_digit_doc("1")
    doc["options"]["hold_to_end"] = True
    with pytest.raises(InstanceTooLargeError):
        brute_force_solve(scenario_from_dict(doc), cap=1000)


def cents(draw, lo, hi):
    return D(draw(st.integers(lo, hi))) / 100


@st.composite
def small_scenarios(draw):
    """1-2 securities over 2-4 times, small enough for the oracle.

    Shorting, ``hold_to_end`` and maturities before the horizon end are all
    drawn; each choice shrinks towards one security living to the end, no
    shorting and liquidation at the last decision time.
    """
    times = tuple(range(1, draw(st.integers(2, 4)) + 1))
    securities = []
    fees = {}
    for i in range(draw(st.integers(1, 2))):
        issue = draw(st.integers(1, len(times) - 1))
        end = len(times) - draw(st.integers(0, len(times) - issue))
        quotes = {t: cents(draw, 500, 2000) for t in times[issue - 1:end]}
        securities.append(Security(f"S{i}", issue, end - issue, quotes, {}))
        for t in quotes:
            fees[(f"S{i}", t)] = cents(draw, 0, 100)
    short_cap = draw(st.integers(0, 2))
    options = SolverOptions(allow_short=short_cap > 0, short_cap=short_cap,
                            hold_to_end=draw(st.booleans()))
    return Scenario(cents(draw, 0, 2500), Market(TimeGrid(times), tuple(securities)),
                    FeeTable((Broker("b1", fees),)), options)


def sale_pays_out_scenario():
    """Shorting ``S0`` at time 1 costs cash: its fee of 6.00 is above its price of 5.00.

    No generator draws a fee above a price, so this is the one instance
    where a sale pays out.
    """
    times = (1, 2, 3)
    quotes = {"S0": ("5.00", "4.00", "4.00"), "S1": ("10.00", "11.00", "11.00")}
    fee = {"S0": ("6.00", "0.10", "0.10"), "S1": ("0.50", "0.50", "0.50")}
    securities = tuple(Security(sid, 1, 2, dict(zip(times, map(D, q))), {})
                       for sid, q in quotes.items())
    fees = {(sid, t): D(f) for sid, row in fee.items() for t, f in zip(times, row)}
    return Scenario(D("20.00"), Market(TimeGrid(times), securities),
                    FeeTable((Broker("b1", fees),)),
                    SolverOptions(allow_short=True, short_cap=2))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_scenarios())
@example(sale_pays_out_scenario())
def test_the_solver_agrees_with_the_oracle_and_with_itself_unpruned(scn):
    policy, _ = solve_deterministic(scn)
    oracle_policy, oracle_wealth = brute_force_solve(scn)
    # repr, not ==: the key order of each trade is what the CLI prints
    assert repr(policy.trades) == repr(oracle_policy.trades)
    assert policy.terminal_wealth == oracle_wealth
    unpruned, _ = solve_deterministic(scn, prune=False)
    assert unpruned.trades == policy.trades
    assert unpruned.terminal_wealth == policy.terminal_wealth


def test_joint_outcomes_two_point_distribution():
    scn = degenerate_twin(simple_scenario())
    # make one site genuinely random
    from rebalplan import DiscreteDistribution, Market, Security
    sec = scn.market.security("A")
    dists = dict(sec.distributions)
    dists[2] = DiscreteDistribution(((D("14.00"), D("0.5")), (D("10.00"), D("0.5"))))
    securities = (Security("A", sec.issue_time, sec.maturity, {}, dists),)
    scn = scn._replace(market=Market(scn.market.grid, securities))

    outcomes = enumerate_joint_outcomes(scn)
    assert len(outcomes) == 2
    assert sum(p for _, p in outcomes) == 1
    prices = sorted(o.market.security("A").quotes[2] for o, _ in outcomes)
    assert prices == [D("10.00"), D("14.00")]
    for outcome, prob in outcomes:
        assert prob == D("0.5")
        assert outcome.market.security("A").distributions == {}


def test_joint_outcomes_form_the_product_measure():
    rng = random.Random(31)
    seen_multi = 0
    for _ in range(40):
        scn = random_audit_scenario(rng)
        outcomes = enumerate_joint_outcomes(scn)
        assert sum(p for _, p in outcomes) == 1
        mean_fees = build_expected_market(scn).fees
        for outcome, _ in outcomes:
            assert outcome.options.mode == MODE_DETERMINISTIC
            assert validate_scenario(outcome) == []
            assert outcome.fees == mean_fees
        if len(outcomes) > 1:
            seen_multi += 1
        assert len(outcomes) <= 64
    assert seen_multi > 10


def test_joint_outcomes_degenerate_site_counts_once():
    scn = degenerate_twin(simple_scenario())
    outcomes = enumerate_joint_outcomes(scn)
    assert len(outcomes) == 1
    assert outcomes[0][1] == 1


def test_joint_outcomes_cap():
    scn = degenerate_twin(simple_scenario())
    with pytest.raises(InstanceTooLargeError):
        enumerate_joint_outcomes(scn, cap=0)
