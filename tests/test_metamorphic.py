"""The solver against itself on transformed inputs.

Each transform changes an instance in a way whose optimum follows from the
original's by arithmetic, so no oracle is needed and no size limit applies:

- scale: capital, every quote and every fee times 10 give the same trades
  and 10 times the wealth;
- time shift: every time plus 5 gives the same trades, 5 later, and the
  same wealth;
- costlier broker: an extra broker, listed first, charging the cheapest fee
  at each site plus 1.00 is never chosen, so the policy is the same;
- reversed ids: renaming the securities so that their id order reverses
  gives the same wealth and the same total lots (the tie-break on the
  trade sequence may pick another policy).

Each is checked on deterministic instances and on their expected-mode
twins, every quote a one-point distribution, whose policy is the
instance's own. Two more hold on long-only instances:

- copy: an identical copy of a security, with the same window, quotes and
  fees at every broker, gives the same wealth and the same total lots;
- dear security: one quoted 10,000,000.00 with zero fees at every time is
  never affordable, so the policy is the same.

With shorts, a copy would double the short capacity, and a dear security
could be shorted and then forfeited.

All of them, and the unpruned solve and the oracle, also run on tie-heavy
instances (``ties_doc``): every security doubles and then holds still, so
a great many plans tie on wealth and on lots, the case a bound or a
tie-break gets wrong first.

An input that fails must fail the same way once transformed.
"""

from __future__ import annotations

import random
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rebalplan import (
    Broker,
    DiscreteDistribution,
    FeeTable,
    Market,
    Scenario,
    Security,
    SolverOptions,
    TimeGrid,
    brute_force_solve,
    scenario_from_dict,
    solve_deterministic,
)
from rebalplan.errors import RebalplanError
from rebalplan.ledger import trade_lots

from scenariogen import degenerate_twin, random_scenario, ties_doc

D = Decimal


def _mapped(scn: Scenario, *, ids=None, shift=0, scale=1) -> Scenario:
    """``scn`` with its ids renamed by ``ids``, its times shifted and its amounts scaled."""
    ids = ids or {}
    rename = lambda sid: ids.get(sid, sid)  # noqa: E731
    securities = tuple(
        Security(rename(sec.security_id), sec.issue_time + shift, sec.maturity,
                 {t + shift: q * scale for t, q in sec.quotes.items()},
                 {t + shift: DiscreteDistribution(tuple((q * scale, p) for q, p in dist.outcomes))
                  for t, dist in sec.distributions.items()})
        for sec in scn.market.securities)
    brokers = tuple(
        Broker(broker.broker_id, {(rename(sid), t + shift): fee * scale
                                  for (sid, t), fee in broker.fees.items()})
        for broker in scn.fees.brokers)
    grid = TimeGrid(tuple(t + shift for t in scn.market.grid.points))
    return Scenario(scn.initial_capital * scale, Market(grid, securities), FeeTable(brokers),
                    scn.options)


def _with_costlier_broker(scn: Scenario) -> Scenario:
    cheapest: dict[tuple[str, int], Decimal] = {}
    for broker in scn.fees.brokers:
        for site, fee in broker.fees.items():
            cheapest[site] = min(cheapest.get(site, fee), fee)
    costly = Broker("costly", {site: fee + 1 for site, fee in cheapest.items()})
    return scn._replace(fees=FeeTable((costly, *scn.fees.brokers)))


def _with_copy(scn: Scenario) -> Scenario:
    """``scn`` with a copy of its first security, ``<id>c``, quoted and charged alike."""
    sec = scn.market.securities[0]
    sid, copy_id = sec.security_id, f"{sec.security_id}c"
    brokers = tuple(
        Broker(broker.broker_id,
               {**broker.fees, **{(copy_id, t): fee for (s, t), fee in broker.fees.items() if s == sid}})
        for broker in scn.fees.brokers)
    market = Market(scn.market.grid, (*scn.market.securities, sec._replace(security_id=copy_id)))
    return scn._replace(market=market, fees=FeeTable(brokers))


def _with_dear_security(scn: Scenario) -> Scenario:
    """``scn`` with ``DEAR``, quoted 10,000,000.00 at zero fee at every time."""
    points = scn.market.grid.points
    dear = Security("DEAR", points[0], points[-1] - points[0],
                    {t: D("10000000.00") for t in points})
    brokers = tuple(
        Broker(broker.broker_id, {**broker.fees, **{("DEAR", t): D(0) for t in points}})
        for broker in scn.fees.brokers)
    market = Market(scn.market.grid, (*scn.market.securities, dear))
    return scn._replace(market=market, fees=FeeTable(brokers))


def _solved(scn: Scenario):
    """The policy, or the type of the error the solve raised."""
    try:
        return solve_deterministic(scn)[0]
    except RebalplanError as exc:
        return type(exc)


def _lots(policy) -> int:
    return sum(trade_lots(trade) for _, trade in policy.trades)


def check_transforms(scn: Scenario) -> None:
    base = _solved(scn)
    scaled = _solved(_mapped(scn, scale=10))
    shifted = _solved(_mapped(scn, shift=5))
    costlier = _solved(_with_costlier_broker(scn))
    order = sorted(sec.security_id for sec in scn.market.securities)
    reversed_ids = _solved(_mapped(scn, ids=dict(zip(order, reversed(order)))))
    if isinstance(base, type):
        assert scaled is shifted is costlier is reversed_ids is base
        return
    assert scaled.trades == base.trades
    assert scaled.terminal_wealth == 10 * base.terminal_wealth
    assert shifted.trades == tuple((t + 5, trade) for t, trade in base.trades)
    assert shifted.terminal_wealth == base.terminal_wealth
    assert costlier == base
    assert reversed_ids.terminal_wealth == base.terminal_wealth
    assert _lots(reversed_ids) == _lots(base)


def check_long_only_transforms(scn: Scenario) -> None:
    base = _solved(scn)
    copied = _solved(_with_copy(scn))
    dear = _solved(_with_dear_security(scn))
    if isinstance(base, type):
        assert copied is dear is base
        return
    assert copied.terminal_wealth == base.terminal_wealth
    assert _lots(copied) == _lots(base)
    assert dear == base


def test_transforms_on_random_scenarios():
    rng = random.Random(2024)
    for _ in range(400):
        check_transforms(random_scenario(rng))


def test_transforms_on_the_expected_mode_twins_of_random_scenarios():
    rng = random.Random(2024)
    for _ in range(400):
        scn = random_scenario(rng)
        twin = degenerate_twin(scn)
        assert _solved(twin) == _solved(scn)
        check_transforms(twin)


def test_long_only_transforms_on_random_scenarios():
    rng = random.Random(2024)
    for _ in range(400):
        check_long_only_transforms(random_scenario(rng, allow_short=False))


# (securities, capital) of the tie-heavy instances: the oracle can take
# the first three, and the last two prune to layers of 861 and 455 nodes
ORACLE_TIES = [(2, "3.0000"), (2, "6.0000"), (3, "4.0000")]
WIDE_TIES = [(2, "40.0000"), (3, "12.0000")]


@pytest.mark.parametrize("securities,capital", ORACLE_TIES)
def test_the_oracle_agrees_on_ties(securities, capital):
    scn = scenario_from_dict(ties_doc(securities, capital))
    assert solve_deterministic(scn)[0] == brute_force_solve(scn)[0]


@pytest.mark.parametrize("securities,capital", ORACLE_TIES + WIDE_TIES)
def test_transforms_on_ties(securities, capital):
    scn = scenario_from_dict(ties_doc(securities, capital))
    assert solve_deterministic(scn, prune=False)[0] == solve_deterministic(scn)[0]
    check_transforms(scn)
    check_long_only_transforms(scn)


def cents(draw, lo, hi):
    return D(draw(st.integers(lo, hi))) / 100


@st.composite
def scenarios(draw):
    """1-3 securities over 2-4 times, quoted by two brokers, shorting and ``hold_to_end`` drawn."""
    times = tuple(range(1, draw(st.integers(2, 4)) + 1))
    securities = []
    fees: tuple[dict, dict] = ({}, {})
    for i in range(draw(st.integers(1, 3))):
        issue = draw(st.integers(1, len(times) - 1))
        end = draw(st.integers(issue, len(times)))
        quotes = {t: cents(draw, 500, 2000) for t in times[issue - 1:end]}
        securities.append(Security(f"S{i}", issue, end - issue, quotes))
        for t in quotes:
            for broker_fees in fees:
                broker_fees[(f"S{i}", t)] = cents(draw, 0, 100)
    short_cap = draw(st.integers(0, 2))
    options = SolverOptions(allow_short=short_cap > 0, short_cap=short_cap,
                            hold_to_end=draw(st.booleans()))
    brokers = tuple(Broker(f"b{i}", broker_fees) for i, broker_fees in enumerate(fees))
    return Scenario(cents(draw, 0, 2500), Market(TimeGrid(times), tuple(securities)),
                    FeeTable(brokers), options)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scenarios())
def test_transforms_on_drawn_scenarios(scn):
    check_transforms(scn)
