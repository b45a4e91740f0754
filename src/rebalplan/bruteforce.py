"""Independent brute-force reference solver for small instances.

Enumerates every admissible trade sequence outright and replays each one
through the ledger, so it shares no enumeration or pruning logic with the
staged solver it validates. Per-stage candidate vectors come from a plain
Cartesian product of per-security delta ranges under a deliberately loose
affordability bound, or a forced-sale page's one full sale; the ledger's
own admissibility check filters them.
Determinism over speed: serial, fixed iteration order, and the same
tie-break as the staged solver (fewest lots, then lexicographic sequence).
"""

from __future__ import annotations

from decimal import Decimal
from typing import Iterator

from .dp import Policy, TradeEntry, trade_entries
from .errors import EmptyTableError, InadmissibleTradeError, InstanceTooLargeError
from .expectation import priced_instance
from .ledger import LedgerState, apply_rebalance, full_sale, trade_lots
from .market import Deals, Market, effective_fee, price_at
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
    means before it. Where no trade sequence is admissible (a forced sale
    cannot buy back the shorts), it raises :class:`EmptyTableError`, as
    the staged solver does.
    """
    scenario = priced_instance(scenario)
    market = scenario.market
    fees = scenario.fees
    lot = scenario.options.lot_size
    book = scenario.deal_book()
    stages = len(book)
    if stages > STAGE_CAP:
        raise InstanceTooLargeError(stages, STAGE_CAP, "stages")

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
        page = book[stage]
        t = page.time
        for trade in _stage_candidates(state, page, market, fees, lot):
            applied += 1
            if applied > cap:
                raise InstanceTooLargeError(applied, cap)
            try:
                successor = apply_rebalance(state, trade, book)
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


def _stage_candidates(state: LedgerState, page: Deals, market: Market, fees,
                      lot: Decimal) -> Iterator[dict[str, int]]:
    """Superset of the admissible vectors at the page's time, loosely bounded.

    The page gives the time, the ids in circulation, the position floor and
    the forced sale, whose one :func:`full_sale` it yields; the prices and
    fees come from the raw quotes, not the page's terms.
    Buying power for each security is capped by current cash plus the gross
    sale value of every other position (fees ignored), which can never
    exclude an admissible vector; exact filtering happens on application.
    The vectors are yielded one at a time, in the lexicographic order of
    their deltas, by turning the per-security ranges as an odometer, so
    the caller's cap trips however wide a range is.
    """
    if page.forced_sale:
        yield full_sale(state, page)
        return
    ids = page.active
    if not ids:
        yield {}
        return
    t = page.time
    gross: list[Decimal] = []
    sellable: list[int] = []
    unit_cost: list[Decimal] = []
    for sid in ids:
        sec = market.security(sid)
        price = price_at(sec, t)
        fee = effective_fee(sec, t, fees)
        bound = state.holdings.get(sid, 0) - page.floor
        sellable.append(bound)
        gross.append(price * lot * bound)
        unit_cost.append((price + fee) * lot)
    gross_total = sum(gross, Decimal(0))

    ranges = []
    for i in range(len(ids)):
        budget = state.cash + gross_total - gross[i]
        hi = whole_lots(budget, unit_cost[i])
        ranges.append(range(-sellable[i], hi + 1))
    if not all(ranges):
        return
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

