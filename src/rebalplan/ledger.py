"""Investor state and the per-step accounting identities.

A ledger state is (time index, holdings, cash). A trade maps security ids to
integer lot deltas; applying it at time t costs the quoted price per unit
plus the cheapest broker fee per unit, fees charged on the absolute quantity
traded for buys and sells alike. Cash must never go negative: that single
constraint defines admissibility. States are immutable values; every
operation returns a new state.

Prices, fees and circulation are read from the indexes the market and the
fee table build once, on first use (the cheapest broker per deal is chosen
there), so a trade costs dict lookups per lot delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from types import MappingProxyType
from typing import Mapping

from .errors import InadmissibleTradeError, ShortCapExceededError
from .market import FeeTable, Market, effective_fee, is_active, price_at

# A trade vector: security id -> lot delta (holdings after minus holdings
# before). Canonical form carries no zero entries.
TradeVector = Mapping[str, int]


@dataclass(frozen=True)
class TradeRules:
    """Scenario-level trading conventions the ledger needs.

    ``lot_size`` is the number of security units per lot; prices and fees are
    per unit, holdings are counted in integer lots. With shorting disabled
    every position must stay at or above zero; enabled, it may go down to
    ``-short_cap`` lots per security.
    """

    lot_size: Decimal = Decimal(1)
    allow_short: bool = False
    short_cap: int = 0

    @property
    def position_floor(self) -> int:
        return -self.short_cap if self.allow_short else 0


DEFAULT_RULES = TradeRules()


@dataclass(frozen=True)
class LedgerState:
    """Position on the grid, holdings carried into that time, and cash."""

    time_index: int
    holdings: Mapping[str, int]
    cash: Decimal

    def __post_init__(self):
        clean = {sid: qty for sid, qty in self.holdings.items() if qty != 0}
        object.__setattr__(self, "holdings", MappingProxyType(clean))

    def holdings_key(self) -> tuple[tuple[str, int], ...]:
        """Canonical hashable form of the holdings map."""
        return tuple(sorted(self.holdings.items()))


def trade_lots(trade: TradeVector) -> int:
    """Total lots moved by the trade, buys and sells both counted."""
    return sum(abs(delta) for delta in trade.values())


def wealth(state: LedgerState, market: Market, t: int,
           rules: TradeRules = DEFAULT_RULES) -> Decimal:
    """Cash plus the mark-to-market value of holdings at time ``t``.

    Holdings in securities outside their circulation window at ``t``
    contribute zero: matured paper is worthless, unissued paper cannot be
    held. Normal use evaluates a state at its own grid time; the self-
    financing identity also evaluates a successor state at the trade time.
    """
    quotes = market.quotes_at(t)
    total = state.cash
    for sid, qty in state.holdings.items():
        price = quotes.get(sid)
        if price is None:
            sec = market.security(sid)
            if not is_active(sec, t):
                continue
            price = price_at(sec, t)  # raises QuoteMissingError
        total += price * rules.lot_size * qty
    return total


def apply_rebalance(state: LedgerState, trade: TradeVector, market: Market,
                    fees: FeeTable, rules: TradeRules = DEFAULT_RULES) -> LedgerState:
    """Apply a trade at the state's grid time and advance one step.

    New cash is old cash minus the signed redistribution minus fees on every
    lot moved. The trade is admissible iff that cash is non-negative; there
    is no lower bound on selling beyond the position floor. Positions whose
    window has closed by the next grid time are forfeited (dropped at zero
    value), keeping states canonical.
    """
    grid = market.grid
    if state.time_index + 1 >= len(grid):
        raise ValueError("cannot trade at the horizon end")
    t = grid.points[state.time_index]
    quotes = market.quotes_at(t)
    cheapest = fees.cheapest()

    spend = Decimal(0)
    fee_total = Decimal(0)
    new_holdings = dict(state.holdings)
    for sid, delta in sorted(trade.items()):
        if delta == 0:
            continue
        price = quotes.get(sid)
        fee = cheapest.get((sid, t))
        if price is None or fee is None:
            # raises the typed error for the missing entry
            sec = market.security(sid)
            price, fee = price_at(sec, t), effective_fee(sec, t, fees)
        spend += price * rules.lot_size * delta
        fee_total += fee * rules.lot_size * abs(delta)
        qty = new_holdings.get(sid, 0) + delta
        if qty < rules.position_floor:
            raise ShortCapExceededError(sid, qty, rules.position_floor)
        if qty == 0:
            new_holdings.pop(sid, None)
        else:
            new_holdings[sid] = qty

    new_cash = state.cash - spend - fee_total
    if new_cash < 0:
        raise InadmissibleTradeError(-new_cash)

    circulating = market.quotes_at(grid.points[state.time_index + 1])
    surviving = {sid: qty for sid, qty in new_holdings.items() if sid in circulating}
    return LedgerState(state.time_index + 1, surviving, new_cash)


def full_sale(state: LedgerState, market: Market, t: int) -> dict[str, int]:
    """The trade closing every position still in circulation at ``t``."""
    circulating = market.quotes_at(t)
    return {sid: -qty for sid, qty in state.holdings.items() if sid in circulating}
