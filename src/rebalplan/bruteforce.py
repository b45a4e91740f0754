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

from decimal import Decimal
from typing import Iterable, Iterator

from .dp import Policy, TradeEntry, trade_entries
from .errors import EmptyTableError, InadmissibleTradeError, InstanceTooLargeError
from .expectation import priced_instance
from .ledger import LedgerState, apply_rebalance, full_sale, trade_lots
from .market import Market, effective_fee, price_at
from .money import exact_arithmetic, whole_lots
from .scenario import Scenario

POLICY_CAP = 10_000_000
# The walk recurses once per stage; a deeper one would exhaust the
# interpreter's stack.
STAGE_CAP = 500


def brute_force_solve(scenario: Scenario, *,
                      cap: int = POLICY_CAP) -> tuple[Policy, Decimal]:
    """Exhaustive search for the tie-broken optimal policy.

    An expected-mode scenario is first reduced to mean prices and fees.
    ``cap`` bounds the number of trade vectors applied during the walk (a
    complete policy costs at least one application); a grid of more than
    :data:`STAGE_CAP` stages raises :class:`InstanceTooLargeError` before
    the walk starts. The walk raises :class:`InexactArithmeticError` where
    a cash amount would need rounding; the expected-mode reduction rounds
    means before it. Where no trade sequence is admissible, it raises
    :class:`EmptyTableError`, as the staged solver does.
    """
    scenario = priced_instance(scenario)
    market = scenario.market
    fees = scenario.fees
    rules = scenario.trade_rules()
    grid = market.grid
    stages = len(grid) - 1
    if stages > STAGE_CAP:
        raise InstanceTooLargeError(stages, STAGE_CAP, "stages")
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
            candidates: Iterable[dict[str, int]] = [full_sale(state, market, t)]
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
    if best_key is None:
        raise EmptyTableError("no trade sequence reaches the horizon end")
    return Policy(best_trades, -best_key[0]), -best_key[0]


def _stage_candidates(state: LedgerState, market: Market, fees, rules,
                      t: int) -> Iterator[dict[str, int]]:
    """Superset of the admissible vectors at one time, loosely bounded.

    Buying power for each security is capped by current cash plus the gross
    sale value of every other position (fees ignored), which can never
    exclude an admissible vector; exact filtering happens on application.
    The vectors are yielded one at a time, in the lexicographic order of
    their deltas, by turning the per-security ranges as an odometer, so
    the caller's cap trips however wide a range is.
    """
    secs = market.active_securities(t)
    if not secs:
        yield {}
        return
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
        hi = whole_lots(budget, unit_cost[i])
        ranges.append(range(-sellable[i], hi + 1))
    if not all(ranges):
        return
    ids = [sec.security_id for sec in secs]
    deltas = [r.start for r in ranges]
    last = len(ranges) - 1
    while True:
        yield {sid: delta for sid, delta in zip(ids, deltas) if delta != 0}
        # the last wheel turns fastest; a wheel past its range wraps and
        # carries into the one before it
        i = last
        while deltas[i] + 1 == ranges[i].stop:
            deltas[i] = ranges[i].start
            i -= 1
            if i < 0:
                return
        deltas[i] += 1

