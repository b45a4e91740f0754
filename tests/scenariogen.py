"""Scenario builders shared by the test modules.

Everything here is deliberately independent of the solver internals: it
builds Scenario objects through the public constructors and keeps all
numbers on the fixed-point grid (2 decimal places for generated prices,
fees and probabilities) so expected values computed in tests are exact.
"""

from __future__ import annotations

import random
from decimal import Decimal

from rebalplan import (
    Broker,
    DiscreteDistribution,
    FeeTable,
    Market,
    Scenario,
    Security,
    SolverOptions,
    TimeGrid,
)
from rebalplan.scenario import MODE_DETERMINISTIC, MODE_EXPECTED

D = Decimal


def flat_fee_table(securities, times, fee, broker_id="b1"):
    fees = {}
    for sec in securities:
        for t in times:
            if sec.issue_time <= t <= sec.issue_time + sec.maturity:
                fees[(sec.security_id, t)] = D(fee)
    return FeeTable((Broker(broker_id, fees),))


def simple_scenario(*, capital="100.0000", times=(1, 2, 3), quotes=None,
                    fee="0.5000", issue_time=1, maturity=None, mode=MODE_DETERMINISTIC,
                    **option_overrides) -> Scenario:
    """One security 'A'; quotes default to 10.00 / 11.50 / 12.00."""
    times = tuple(times)
    if maturity is None:
        maturity = times[-1] - issue_time
    if quotes is None:
        base = {1: "10.0000", 2: "11.5000", 3: "12.0000"}
        quotes = {t: base.get(t, "10.0000") for t in times
                  if issue_time <= t <= issue_time + maturity}
    sec = Security("A", issue_time, maturity, {t: D(q) for t, q in quotes.items()}, {})
    options = SolverOptions(mode=mode, **option_overrides)
    return Scenario(
        initial_capital=D(capital),
        market=Market(TimeGrid(times), (sec,)),
        fees=flat_fee_table([sec], times, fee),
        options=options,
    )


def fee_050_scenario() -> Scenario:
    """Buy 9 lots at 10.00+0.50, liquidate at 11.50-0.50: wealth 104.50."""
    return simple_scenario(fee="0.5000")


def fee_100_scenario() -> Scenario:
    """Every round trip loses 0.50 per lot: best policy trades nothing."""
    return simple_scenario(fee="1.0000")


def twenty_nine_digit_doc(late_quote: str = "5000000000000001") -> dict:
    """One security, one affordable lot, capital with 28 significant digits.

    Buying the lot at 5e15 and selling it at ``late_quote`` at price scale 12
    ends on ``capital - 5e15 + late_quote``: at the default quote that needs
    29 significant digits, one more than the solver's decimal context holds.
    """
    return {
        "initial_capital": "9999999999999999.999999999999",
        "times": [1, 2, 3],
        "securities": [{
            "id": "A", "issue_time": 1, "maturity": 2,
            "quotes": {"1": "5000000000000000", "2": late_quote, "3": late_quote},
        }],
        "brokers": [{"id": "b1", "fees": {"A": {"1": "0", "2": "0", "3": "0"}}}],
        "options": {"price_scale": 12},
    }


def many_lots_doc() -> dict:
    """A valid document whose count of affordable lots needs more than 28 digits.

    Capital 9999999999999999.999999999999 buys about 10**40 lots of
    10**-12 units quoted 10**-12 each, so dividing the cash by a lot's cost,
    as the solver and the oracle do, gives a quotient no 28-digit context
    can hold.
    """
    tiny = "0.000000000001"
    return {
        "initial_capital": "9999999999999999.999999999999",
        "times": [1, 2, 3],
        "securities": [{"id": "A", "issue_time": 1, "maturity": 2,
                        "quotes": {"1": tiny, "2": tiny, "3": tiny}}],
        "brokers": [{"id": "b1", "fees": {"A": {"1": "0", "2": "0", "3": "0"}}}],
        "options": {"price_scale": 12, "lot_size": tiny},
    }


def fee_distribution_doc(mode: str) -> dict:
    """Broker ``b2`` charges a one-point fee distribution of 0.10 on ``A``.

    In expected mode its mean undercuts ``b1``'s 0.50, so buying 9 lots at
    10.10 and selling them at 10.90 ends on 107.20.
    """
    return {
        "initial_capital": "100.0000",
        "times": [1, 2, 3],
        "securities": [{"id": "A", "issue_time": 1, "maturity": 2,
                        "quotes": {"1": "10.0000", "2": "11.0000", "3": "11.0000"}}],
        "brokers": [
            {"id": "b1", "fees": {"A": {str(t): "0.5000" for t in (1, 2, 3)}}},
            {"id": "b2", "fees": {"A": {str(t): [["0.1000", "1.000000"]] for t in (1, 2, 3)}}},
        ],
        "options": {"mode": mode},
    }


def flat_doc(securities: int, capital: str) -> dict:
    """``securities`` securities quoted 1.0000 at times 1-3, with zero fees."""
    ids = [f"S{i:04d}" for i in range(securities)]
    flat = {"1": "1.0000", "2": "1.0000", "3": "1.0000"}
    return {
        "initial_capital": capital,
        "times": [1, 2, 3],
        "securities": [{"id": sid, "issue_time": 1, "maturity": 2, "quotes": flat}
                       for sid in ids],
        "brokers": [{"id": "b1", "fees": {sid: {"1": "0", "2": "0", "3": "0"}
                                          for sid in ids}}],
    }


def ties_doc(securities: int, capital: str) -> dict:
    """``securities`` securities quoted 1.0000 at time 1 and 2.0000 at times 2-3, with zero fees.

    Every security doubles and then holds still, so a great many plans tie
    on wealth and on lots, and only the sequence tie-break orders them.
    """
    doc = flat_doc(securities, capital)
    rising = {"1": "1.0000", "2": "2.0000", "3": "2.0000"}
    for sec in doc["securities"]:
        sec["quotes"] = rising
    return doc


# ---------------------------------------------------------------------------
# randomized instances


def _money2(rng: random.Random, lo_cents: int, hi_cents: int) -> Decimal:
    return D(rng.randint(lo_cents, hi_cents)) / 100


# probability splits at 2 decimal places, so products with 2-place prices
# stay exact within the default 4-place price scale
_PROB_SPLITS = (
    ("1.00",),
    ("0.50", "0.50"),
    ("0.25", "0.75"),
    ("0.10", "0.90"),
    ("0.20", "0.30", "0.50"),
)


def random_scenario(rng: random.Random, *, allow_short: bool | None = None,
                    hold_to_end: bool | None = None) -> Scenario:
    """Small deterministic instance sized for exhaustive cross-checking.

    1-3 securities, 2-4 grid times, prices in [1, 20], fees in [0, 1],
    capital sized so per-security trade ranges stay within about 10 lots.
    """
    f = rng.choice((2, 3, 3, 4))
    n_sec = rng.randint(1, 3)
    start = rng.randint(0, 3)
    times = [start]
    for _ in range(f - 1):
        times.append(times[-1] + rng.randint(1, 3))
    grid = TimeGrid(tuple(times))

    securities = []
    for i in range(n_sec):
        issue_idx = rng.randint(0, f - 2)
        end_idx = rng.randint(issue_idx, f - 1)
        issue = times[issue_idx]
        maturity = times[end_idx] - issue
        # drifting paths keep a good share of instances genuinely tradable
        drift = rng.choice((-1, 0, 0, 1, 1))
        price = _money2(rng, 200, 1500)
        quotes = {}
        for t in times[issue_idx:end_idx + 1]:
            quotes[t] = price
            step = _money2(rng, 0, 250) * drift + _money2(rng, -80, 80)
            price = min(max(price + step, D("1.00")), D("20.00"))
        securities.append(Security(f"S{i}", issue, maturity, quotes, {}))

    def fee_cents(): return rng.randint(0, 30 if rng.random() < 0.6 else 100)

    brokers = []
    for b in range(rng.randint(1, 2)):
        fees = {}
        for sec in securities:
            for t in times:
                if sec.issue_time <= t <= sec.issue_time + sec.maturity and rng.random() < 0.9:
                    fees[(sec.security_id, t)] = _money2(rng, 0, fee_cents())
        brokers.append(Broker(f"b{b}", fees))
    # guarantee coverage: the last broker quotes everything
    fallback = {}
    for sec in securities:
        for t in times:
            if sec.issue_time <= t <= sec.issue_time + sec.maturity:
                fallback[(sec.security_id, t)] = _money2(rng, 0, fee_cents())
    brokers.append(Broker("bz", fallback))

    if allow_short is None:
        allow_short = rng.random() < 0.25
    if hold_to_end is None:
        hold_to_end = rng.random() < 0.2
    lots_budget = rng.randint(0, 9 if f < 4 else 5)
    cheapest = min(min(sec.quotes.values()) for sec in securities)
    capital = cheapest * lots_budget + _money2(rng, 0, 99)

    options = SolverOptions(
        mode=MODE_DETERMINISTIC,
        allow_short=allow_short,
        short_cap=rng.randint(1, 2) if allow_short else 0,
        hold_to_end=hold_to_end,
    )
    return Scenario(
        initial_capital=capital,
        market=Market(grid, tuple(securities)),
        fees=FeeTable(tuple(brokers)),
        options=options,
    )


def degenerate_twin(scenario: Scenario) -> Scenario:
    """The same instance in expected mode, every quote wrapped as a one-point distribution.

    The distributions a security already has are kept.
    """
    securities = []
    for sec in scenario.market.securities:
        dists = dict(sec.distributions)
        for t, q in sec.quotes.items():
            dists[t] = DiscreteDistribution(((q, D(1)),))
        securities.append(Security(sec.security_id, sec.issue_time, sec.maturity,
                                   {}, dists))
    return Scenario(
        initial_capital=scenario.initial_capital,
        market=Market(scenario.market.grid, tuple(securities)),
        fees=scenario.fees,
        options=scenario.options._replace(mode=MODE_EXPECTED),
    )


def random_audit_scenario(rng: random.Random) -> Scenario:
    """Stochastic instance built so the linearity identity is exact.

    Nondegenerate price distributions sit only at the forced liquidation
    time, where the fixed policy can only sell; fees stay below the lowest
    outcome price, so every joint-outcome replay is admissible. Probability
    and price grids keep every mean exact at the price scale, and the joint
    outcome space stays at or below 64. A single broker may carry fee
    distributions: with no cross-broker minimum in play, expectations stay
    linear in the fee as well.
    """
    f = rng.choice((2, 3, 3, 4))
    times = tuple(range(1, f + 1))
    grid = TimeGrid(times)
    sell_time = times[-2]
    n_sec = rng.randint(1, 2)
    joint = 1  # running product of outcome counts, capped at 64

    def spread(lo_cents, hi_cents):
        split = rng.choice(_PROB_SPLITS[1:])
        return DiscreteDistribution(tuple(
            (_money2(rng, lo_cents, hi_cents), D(p)) for p in split
        ))

    securities = []
    for i in range(n_sec):
        issue_idx = rng.randint(0, f - 2)
        issue = times[issue_idx]
        end_idx = rng.randint(issue_idx, f - 1)
        maturity = times[end_idx] - issue
        quotes = {}
        dists = {}
        for t in times[issue_idx:end_idx + 1]:
            roll = rng.random()
            if t == sell_time and roll < 0.8:
                dist = spread(100, 2000)
                if joint * len(dist.outcomes) <= 64:
                    dists[t] = dist
                    joint *= len(dist.outcomes)
                else:
                    quotes[t] = _money2(rng, 100, 2000)
            elif roll < 0.2:
                # degenerate distribution: exercises the joint machinery for free
                dists[t] = DiscreteDistribution(((_money2(rng, 100, 2000), D(1)),))
            else:
                quotes[t] = _money2(rng, 100, 2000)
        securities.append(Security(f"S{i}", issue, maturity, quotes, dists))

    fees = {}
    for sec in securities:
        for t in times:
            if sec.issue_time <= t <= sec.issue_time + sec.maturity:
                if t == sell_time and rng.random() < 0.3:
                    fees[(sec.security_id, t)] = spread(0, 50)
                else:
                    fees[(sec.security_id, t)] = _money2(rng, 0, 50)
    brokers = (Broker("b0", fees),)

    lots_budget = rng.randint(0, 6 if f < 4 else 4)
    deterministic_quotes = [q for sec in securities for q in sec.quotes.values()]
    cheapest = min(deterministic_quotes) if deterministic_quotes else D("10.00")
    capital = cheapest * lots_budget + _money2(rng, 0, 99)

    options = SolverOptions(mode=MODE_EXPECTED)
    return Scenario(
        initial_capital=capital,
        market=Market(grid, tuple(securities)),
        fees=FeeTable(brokers),
        options=options,
    )
