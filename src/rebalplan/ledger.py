"""Investor state, the per-stage deal book and the per-step accounting.

A ledger state is (time index, holdings, cash). A trade maps security ids to
integer lot deltas; applying it at time t costs the quoted price per unit
plus the cheapest broker fee per unit, fees charged on the absolute quantity
traded for buys and sells alike. Cash must never go negative: that single
constraint defines admissibility. States are immutable values; every
operation returns a new state. Holdings are canonical: in security id order
and without zero positions, so two states with the same positions compare
and key alike.

The deal book is the one place that prices a lot. For each decision time
(grid index) it holds the time, ``(price + fee) * lot`` and
``(price - fee) * lot`` for every security in circulation there, and the
securities still in circulation at the next time. It is built lazily, one
page per grid index, in one pass over the securities that finds both
times' circulation, read straight from the securities' quotes and the
brokers' fees, always in :data:`~rebalplan.money.LEDGER_CONTEXT`, so no
caller's decimal context can leave a rounded value in it. A trade step
then costs one multiplication per lot delta, and the solver's enumerator
reads the same page.

The step is one pass over the trade and one over the securities carried to
the next time: the first prices each delta and notes the position it moves
to, the second reads those positions (or the unmoved ones) in id order, so
the successor's holdings come out canonical, and the state is built from
them in one tuple construction, without the cleaning the
:class:`LedgerState` constructor does. The opening state is built the same
way, its empty holdings being canonical already.
"""

from __future__ import annotations

from decimal import Decimal, Inexact
from types import MappingProxyType
from typing import Mapping, NamedTuple, NoReturn

from .errors import InadmissibleTradeError, InexactArithmeticError, ShortCapExceededError
from .market import FeeTable, Market, effective_fee, is_active, lowest_fee, price_at
from .money import LEDGER_CONTEXT

# A trade vector: security id -> lot delta (holdings after minus holdings
# before). Canonical form carries no zero entries.
TradeVector = Mapping[str, int]


class TradeRules(NamedTuple):
    """Scenario-level trading conventions the ledger needs.

    ``lot_size`` is the number of security units per lot; prices and fees are
    per unit, holdings are counted in integer lots. ``position_floor`` is the
    fewest lots a position may hold: 0, or ``-short_cap`` with shorting on.
    A named tuple, as a scenario builds one for each solve and each replay.
    """

    lot_size: Decimal = Decimal(1)
    position_floor: int = 0


DEFAULT_RULES = TradeRules()


class _LedgerStateFields(NamedTuple):
    time_index: int
    holdings: Mapping[str, int]
    cash: Decimal


class LedgerState(_LedgerStateFields):
    """Position on the grid, holdings carried into that time, and cash.

    The holdings are stored canonical: id order, zero positions dropped, in
    a read-only mapping. The constructor cleans the holdings it is given;
    the ledger builds the states it makes with :data:`_new_state`, which
    takes holdings that are canonical already.
    """

    __slots__ = ()

    def __new__(cls, time_index: int, holdings: Mapping[str, int],
                cash: Decimal) -> "LedgerState":
        clean = {sid: holdings[sid] for sid in sorted(holdings) if holdings[sid] != 0}
        return tuple.__new__(cls, (time_index, MappingProxyType(clean), cash))

    def holdings_key(self) -> tuple[tuple[str, int], ...]:
        """Canonical hashable form of the holdings map."""
        return tuple(self.holdings.items())


# a state from its (time index, canonical holdings, cash) as they are
_new_state = tuple.__new__
_NO_HOLDINGS = MappingProxyType({})


def opening_state(cash: Decimal) -> LedgerState:
    """The state at grid index 0: nothing held, ``cash`` in hand.

    Built as :func:`apply_rebalance` builds a successor, its empty holdings
    being canonical already.
    """
    return _new_state(LedgerState, (0, _NO_HOLDINGS, cash))


class Deals(NamedTuple):
    """One page of the deal book: the terms of trading at one grid index.

    ``per_lot`` maps each security in circulation at ``time``, in id order,
    to the cash paid per lot bought and the cash received per lot sold (the
    latter negative where the fee exceeds the price). The entry is ``None``
    where the security has no quote at ``time`` or one that is not
    positive, no scalar fee or a cheapest one below zero, or where a per-lot
    amount would need rounding; :func:`raise_unpriced` raises the typed
    error for it. ``carried`` holds the ids of the securities in
    circulation at the next grid time, in id order.
    """

    time: int
    per_lot: dict[str, tuple[Decimal, Decimal] | None]
    carried: tuple[str, ...]


def deals_at(market: Market, fees: FeeTable, lot: Decimal, index: int) -> Deals:
    """The deal book's page for trading at grid index ``index``.

    The market holds one book, for the fee table and lot objects it was last
    asked for, and builds each page on its first use. A page set is reused
    only for those same two objects: every caller passes its scenario's
    ``options.lot_size`` itself, and a lot of 1 and one of 1.0 would give
    amounts of different exponents. There is no page for the horizon end,
    where no trading happens.
    """
    book_fees, book_lot, pages = market._deal_book
    if book_fees is not fees or book_lot is not lot:
        pages = [None] * (len(market.grid.points) - 1)
        # holding the fee table keeps its id from being reused
        market._deal_book = (fees, lot, pages)
    if index >= len(pages):
        raise ValueError("cannot trade at the horizon end")
    page = pages[index]
    if page is None:
        page = pages[index] = _page(market, fees, lot, index)
    return page


def _page(market: Market, fees: FeeTable, lot: Decimal, index: int) -> Deals:
    """One pass over the securities: this time's terms and the next time's ids."""
    points = market.grid.points
    t = points[index]
    following = points[index + 1]
    per_lot: dict[str, tuple[Decimal, Decimal] | None] = {}
    carried = []
    add, subtract, multiply = LEDGER_CONTEXT.add, LEDGER_CONTEXT.subtract, LEDGER_CONTEXT.multiply
    for sid, sec in market._by_id.items():
        issued = sec.issue_time
        end = issued + sec.maturity
        if issued <= following <= end:
            carried.append(sid)
        if not issued <= t <= end:
            continue
        price = sec.quotes.get(t)
        fee = lowest_fee(fees, sid, t)
        deal = None
        if price is not None and price > 0 and fee is not None and fee >= 0:
            try:
                deal = (multiply(add(price, fee), lot), multiply(subtract(price, fee), lot))
            except Inexact:
                pass  # trading it raises InexactArithmeticError
        per_lot[sid] = deal
    return Deals(t, per_lot, tuple(carried))


def raise_unpriced(market: Market, fees: FeeTable, sid: str, t: int) -> NoReturn:
    """Raise the typed error for a security a page holds no terms for."""
    sec = market.security(sid)
    price_at(sec, t)
    effective_fee(sec, t, fees)
    # quoted and charged at t: its per-lot amount would have to round
    raise InexactArithmeticError(LEDGER_CONTEXT.prec)


def trade_lots(trade: TradeVector) -> int:
    """Total lots moved by the trade, buys and sells both counted."""
    return sum(map(abs, trade.values()))


def wealth(state: LedgerState, market: Market, t: int,
           rules: TradeRules = DEFAULT_RULES) -> Decimal:
    """Cash plus the mark-to-market value of holdings at time ``t``.

    Holdings in securities outside their circulation window at ``t``
    contribute zero: matured paper is worthless, unissued paper cannot be
    held. Normal use evaluates a state at its own grid time; the self-
    financing identity also evaluates a successor state at the trade time.
    """
    total = state.cash
    for sid, qty in state.holdings.items():
        sec = market.security(sid)
        if is_active(sec, t):
            total += price_at(sec, t) * rules.lot_size * qty
    return total


def apply_rebalance(state: LedgerState, trade: TradeVector, market: Market,
                    fees: FeeTable, rules: TradeRules = DEFAULT_RULES) -> LedgerState:
    """Apply a trade at the state's grid time and advance one step.

    New cash is old cash minus, per lot delta in id order, the page's per-lot
    amount for its side times the delta: the signed redistribution plus fees
    on every lot moved. The trade is admissible iff that cash is
    non-negative; there is no lower bound on selling beyond the position
    floor. Positions whose window has closed by the next grid time are
    forfeited (dropped at zero value), keeping states canonical.

    The successor's holdings come out of the carried-position pass
    canonical, so it is built as they are, not cleaned again.
    """
    index = state.time_index
    page = deals_at(market, fees, rules.lot_size, index)
    per_lot = page.per_lot
    floor = rules.position_floor
    held = state.holdings
    cash = state.cash
    moved = {}
    for sid in sorted(trade):
        delta = trade[sid]
        if delta == 0:
            continue
        deal = per_lot.get(sid)
        if deal is None:
            raise_unpriced(market, fees, sid, page.time)
        cash -= deal[0 if delta > 0 else 1] * delta
        qty = moved[sid] = held.get(sid, 0) + delta
        if qty < floor:
            raise ShortCapExceededError(sid, qty, floor)

    if cash < 0:
        raise InadmissibleTradeError(-cash)
    carried = {}
    for sid in page.carried:
        qty = moved.get(sid)
        if qty is None:
            qty = held.get(sid, 0)
        if qty:
            carried[sid] = qty
    return _new_state(LedgerState, (index + 1, MappingProxyType(carried), cash))


def full_sale(state: LedgerState, market: Market, t: int) -> dict[str, int]:
    """The trade closing every position still in circulation at ``t``."""
    return {sid: -qty for sid, qty in state.holdings.items()
            if is_active(market.security(sid), t)}
