"""Independent brute-force reference solver for small instances.

Enumerates every admissible trade sequence outright and replays each one
through the ledger, so it shares no enumeration or pruning logic with the
staged solver it validates. Per-stage candidate vectors come from a plain
Cartesian product of per-security delta ranges under a deliberately loose
affordability bound; the ledger's own admissibility check filters them.
Determinism over speed: serial, fixed iteration order, and the same
tie-break as the staged solver (fewest lots, then lexicographic sequence).
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from decimal import Decimal, localcontext

from .dp import Policy, TradeEntry, trade_entries
from .errors import InadmissibleTradeError, InstanceTooLargeError
from .expectation import build_expected_market, expected_fee_table
from .ledger import LedgerState, apply_rebalance, full_sale, trade_lots
from .market import Market, Security, effective_fee, price_at
from .money import EXACT_CONTEXT, exact_arithmetic
from .scenario import MODE_DETERMINISTIC, MODE_EXPECTED, Scenario

POLICY_CAP = 10_000_000
JOINT_CAP = 64


def brute_force_solve(scenario: Scenario, *,
                      cap: int = POLICY_CAP) -> tuple[Policy, Decimal]:
    """Exhaustive search for the tie-broken optimal policy.

    An expected-mode scenario is first reduced to mean prices and fees. ``cap`` bounds the number of trade vectors applied
    during the walk (a complete policy costs at least one application).
    The walk raises :class:`InexactArithmeticError` where a cash amount would
    need rounding; the expected-mode reduction rounds means before it.
    """
    if scenario.options.mode == MODE_EXPECTED:
        scenario = build_expected_market(scenario)
    market = scenario.market
    fees = scenario.fees
    rules = scenario.trade_rules()
    grid = market.grid
    stages = len(grid) - 1
    hold_to_end = scenario.options.hold_to_end

    applied = 0
    best_key: tuple[Decimal, int, tuple[TradeEntry, ...]] | None = None
    best_trades: tuple[tuple[int, dict[str, int]], ...] = ()

    def walk(state: LedgerState, stage: int,
             trades: list[tuple[int, dict[str, int]]], lots: int,
             seq: tuple[TradeEntry, ...]) -> None:
        nonlocal applied, best_key, best_trades
        if stage == stages:
            key = (-state.cash, lots, seq)
            if best_key is None or key < best_key:
                best_key = key
                best_trades = tuple((t, dict(trade)) for t, trade in trades)
            return
        t = grid.points[stage]
        if stage == stages - 1 and not hold_to_end:
            candidates: list[dict[str, int]] = [full_sale(state, market, t)]
        else:
            candidates = _stage_candidates(state, market, fees, rules, t)
        for trade in candidates:
            applied += 1
            if applied > cap:
                raise InstanceTooLargeError(applied, cap)
            try:
                successor = apply_rebalance(state, trade, market, fees, rules)
            except InadmissibleTradeError:
                continue
            trades.append((t, trade))
            walk(successor, stage + 1, trades, lots + trade_lots(trade),
                 seq + trade_entries(t, trade))
            trades.pop()

    with exact_arithmetic():
        walk(scenario.initial_state(), 0, [], 0, ())
    assert best_key is not None  # the all-zero-trades sequence always survives
    return Policy(best_trades, -best_key[0]), -best_key[0]


def _stage_candidates(state: LedgerState, market: Market, fees, rules,
                      t: int) -> list[dict[str, int]]:
    """Superset of the admissible vectors at one time, loosely bounded.

    Buying power for each security is capped by current cash plus the gross
    sale value of every other position (fees ignored), which can never
    exclude an admissible vector; exact filtering happens on application.
    """
    secs = market.active_securities(t)
    if not secs:
        return [{}]
    lot = rules.lot_size
    gross: list[Decimal] = []
    sellable: list[int] = []
    unit_cost: list[Decimal] = []
    for sec in secs:
        price = price_at(sec, t)
        fee = effective_fee(sec, t, fees)
        bound = state.holdings.get(sec.security_id, 0) - rules.position_floor
        sellable.append(bound)
        gross.append(price * lot * bound)
        unit_cost.append((price + fee) * lot)
    gross_total = sum(gross, Decimal(0))

    ranges = []
    for i, sec in enumerate(secs):
        budget = state.cash + gross_total - gross[i]
        hi = int(budget // unit_cost[i])
        ranges.append(range(-sellable[i], hi + 1))
    vectors = []
    for combo in itertools.product(*ranges):
        vectors.append({
            sec.security_id: delta
            for sec, delta in zip(secs, combo) if delta != 0
        })
    return vectors


def enumerate_joint_outcomes(scenario: Scenario, *,
                             cap: int = JOINT_CAP) -> list[tuple[Scenario, Decimal]]:
    """The full joint price-outcome space under independence.

    Every price distribution site expands independently; each combination
    yields a deterministic scenario with the outcome prices as quotes and a
    probability that is the exact product of the outcome weights. Fee
    distributions are not expanded: they enter through their per-broker
    means, matching how the expected-mode objective treats them.
    """
    sites: list[tuple[str, int]] = []
    dists = []
    for sec in scenario.market.securities:
        for t in sorted(sec.distributions):
            sites.append((sec.security_id, t))
            dists.append(sec.distributions[t])

    total = 1
    for dist in dists:
        total *= len(dist)
        if total > cap:
            raise InstanceTooLargeError(total, cap)

    fee_table = expected_fee_table(scenario.fees, scenario.options.price_scale)
    outcomes: list[tuple[Scenario, Decimal]] = []
    for combo in itertools.product(*(range(len(d)) for d in dists)):
        chosen = {
            site: dists[i].outcomes[combo[i]]
            for i, site in enumerate(sites)
        }
        with localcontext(EXACT_CONTEXT):
            prob = Decimal(1)
            for value_weight in chosen.values():
                prob *= value_weight[1]
        securities = []
        for sec in scenario.market.securities:
            quotes = dict(sec.quotes)
            for t in sorted(sec.distributions):
                quotes[t] = chosen[(sec.security_id, t)][0]
            securities.append(Security(sec.security_id, sec.issue_time,
                                       sec.maturity, quotes, {}))
        outcomes.append((
            Scenario(
                initial_capital=scenario.initial_capital,
                market=Market(scenario.market.grid, tuple(securities)),
                fees=fee_table,
                options=replace(scenario.options, mode=MODE_DETERMINISTIC),
            ),
            prob,
        ))
    return outcomes
