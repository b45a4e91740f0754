"""Investor state and the per-step accounting.

A ledger state is (time index, holdings, cash). A trade maps security ids to
integer lot deltas; applying it at time t costs the quoted price per unit
plus the cheapest broker fee per unit, fees charged on the absolute quantity
traded for buys and sells alike. Cash must never go negative, and no
position may end below the floor: those two limits define admissibility.
States are immutable values; every operation returns a new state. Holdings
are canonical: in security id order and without zero positions, so two
states with the same positions compare and key alike.

The terms of trade come from the page of the deal book the caller hands
the step (:func:`~rebalplan.market.deal_book`): the per-lot amounts, which
it prices by the one rule, :func:`~rebalplan.market.lot_terms`, the
position floor and the ids in circulation. The step is one pass
over the trade and one over the securities carried to the next time: the
first prices each delta and notes the position it moves to, the second
reads those positions (or the unmoved ones) in id order, so the
successor's holdings come out canonical, and the state is built from them
in one tuple construction, without the cleaning the :class:`LedgerState`
constructor does. The opening state is built the same
way, its empty holdings being canonical already.

Every state that holds nothing, the opening state, a successor that sold
or forfeited every position and a constructed one alike, shares the one
read-only empty mapping :data:`_NO_HOLDINGS`, so a search that keeps many
such states builds no map for them.
"""

from __future__ import annotations

from decimal import Decimal, Inexact
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .errors import InadmissibleTradeError, InexactArithmeticError, ShortCapExceededError
from .market import Deals, Market, is_active, price_at
from .money import LEDGER_CONTEXT

# A trade vector: security id -> lot delta (holdings after minus holdings
# before). Canonical form carries no zero entries.
TradeVector = Mapping[str, int]


# the holdings of every state that holds nothing
_NO_HOLDINGS = MappingProxyType({})


class _LedgerStateFields(NamedTuple):
    time_index: int
    holdings: Mapping[str, int]
    cash: Decimal


class LedgerState(_LedgerStateFields):
    """Position on the grid, holdings carried into that time, and cash.

    The holdings are stored canonical: id order, zero positions dropped, in
    a read-only mapping, :data:`_NO_HOLDINGS` where nothing is held. The
    constructor cleans the holdings it is given; the ledger builds the
    states it makes with :data:`_new_state`, which takes holdings that are
    canonical already.
    """

    __slots__ = ()

    def __new__(cls, time_index: int, holdings: Mapping[str, int],
                cash: Decimal) -> "LedgerState":
        clean = {sid: holdings[sid] for sid in sorted(holdings) if holdings[sid] != 0}
        held = MappingProxyType(clean) if clean else _NO_HOLDINGS
        return tuple.__new__(cls, (time_index, held, cash))


# a state from its (time index, canonical holdings, cash) as they are
_new_state = tuple.__new__


def opening_state(cash: Decimal) -> LedgerState:
    """The state at grid index 0: nothing held, ``cash`` in hand.

    Built as :func:`apply_rebalance` builds a successor, its empty holdings
    being canonical already.
    """
    return _new_state(LedgerState, (0, _NO_HOLDINGS, cash))


def trade_lots(trade: TradeVector) -> int:
    """Total lots moved by the trade, buys and sells both counted."""
    return sum(map(abs, trade.values()))


def wealth(state: LedgerState, market: Market, t: int,
           lot: Decimal = Decimal(1)) -> Decimal:
    """Cash plus the mark-to-market value of holdings at time ``t``, in lots of ``lot``.

    Holdings in securities outside their circulation window at ``t``
    contribute zero: matured paper is worthless, unissued paper cannot be
    held. Normal use evaluates a state at its own grid time; the self-
    financing identity also evaluates a successor state at the trade time.
    Summed in :data:`~rebalplan.money.LEDGER_CONTEXT`, whatever the caller's
    context: a total that would need rounding raises
    :class:`InexactArithmeticError`.
    """
    ctx = LEDGER_CONTEXT
    total = state.cash
    try:
        for sid, qty in state.holdings.items():
            sec = market.security(sid)
            if is_active(sec, t):
                total = ctx.add(total, ctx.multiply(ctx.multiply(price_at(sec, t), lot), qty))
    except Inexact:
        raise InexactArithmeticError(ctx.prec) from None
    return total


def apply_rebalance(state: LedgerState, trade: TradeVector,
                    book: tuple[Deals, ...]) -> LedgerState:
    """Apply a trade at the state's grid time and advance one step.

    ``book`` is the caller's :func:`~rebalplan.market.deal_book`; the step
    reads its page for the state's time index. New cash is old cash minus,
    per lot delta in id order, the page's per-lot amount for its side times
    the delta: the signed redistribution plus fees on every lot moved. The
    trade is admissible iff that cash is non-negative; there is no lower
    bound on selling beyond the page's position floor. Positions not
    carried to the next grid time are forfeited (dropped at zero value),
    keeping states canonical.

    The successor's holdings come out of the carried-position pass
    canonical, so it is built as they are, not cleaned again, and one that
    holds nothing shares :data:`_NO_HOLDINGS`.
    """
    index = state.time_index
    page = book[index]
    per_lot = page.per_lot
    floor = page.floor
    held = state.holdings
    cash = state.cash
    moved = {}
    for sid in sorted(trade):
        delta = trade[sid]
        if delta == 0:
            continue
        deal = per_lot[sid]
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
    holdings = MappingProxyType(carried) if carried else _NO_HOLDINGS
    return _new_state(LedgerState, (index + 1, holdings, cash))


def full_sale(state: LedgerState, page: Deals) -> dict[str, int]:
    """The trade closing every position in circulation at the page's time."""
    active = page.active
    return {sid: -qty for sid, qty in state.holdings.items() if sid in active}
