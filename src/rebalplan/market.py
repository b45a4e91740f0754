"""Static market description: securities, quotes, fees, discrete distributions.

Every record here is immutable after construction, and a :class:`Market`
keeps nothing but its grid, its securities and their index by id. Prices
are per unit of a security; a security is tradable exactly on the closed
window [issue_time, issue_time + maturity] and is worthless outside it.

:func:`lot_terms` is the one rule for what a lot costs to buy and brings
when sold, from the checked lookups :func:`price_at` and
:func:`effective_fee`, which raise the typed error for a missing entry or
one out of range. :func:`deal_book` builds one page per stage for a solve,
a replay or a trace: the one record of the terms of trade at a time, which
are the ids in circulation, each security's terms priced on their first
read, the position floor and the forced last sale. A trade step then costs
one multiplication per lot delta. The solver's enumerator reads the same
page, and the oracle reads all of it but the terms, pricing from the quotes.

:func:`distribution_errors` is the one rule for price and fee
distributions. It lists every error, which the loader reports as issues;
the expected-mode reduction raises the first (``expectation``).
"""

from __future__ import annotations

from collections.abc import Mapping
from decimal import Decimal, Inexact
from operator import attrgetter
from types import MappingProxyType
from typing import NamedTuple

from .errors import (
    BadNormalizationError,
    FeeMissingError,
    InactiveSecurityError,
    InexactArithmeticError,
    NegativeFeeError,
    NegativeWeightError,
    NonpositivePriceError,
    QuoteMissingError,
    RebalplanError,
)
from .money import EXACT_CONTEXT, LEDGER_CONTEXT


class _TimeGridFields(NamedTuple):
    points: tuple[int, ...]


class TimeGrid(_TimeGridFields):
    """Ordered decision times t_1 < t_2 < ... < t_f (abstract integer ticks).

    The final point is the horizon end: no trading happens there. A single
    point grid is the degenerate no-decision instance; scenario files are
    required to carry at least two points.
    """

    __slots__ = ()

    def __new__(cls, points: tuple[int, ...]) -> "TimeGrid":
        if not points:
            raise ValueError("time grid needs at least one point")
        if any(b <= a for a, b in zip(points, points[1:])):
            raise ValueError(f"time grid must be strictly increasing: {points}")
        return tuple.__new__(cls, (points,))

    def __len__(self) -> int:
        return len(self.points)

    @classmethod
    def _make(cls, iterable) -> "TimeGrid":
        """The grid ``_replace`` asks for, checked as the constructor checks it.

        The named tuple's own ``_make`` would count fields with ``__len__``.
        """
        (points,) = iterable
        return cls(points)

    @property
    def end(self) -> int:
        """The horizon end T (last grid point)."""
        return self.points[-1]


class DiscreteDistribution(NamedTuple):
    """Finite list of (value, probability) outcomes.

    Used for prices and, in expected mode, for per-broker fees. Weights must
    sum to exactly 1 in fixed point; this is checked by
    :func:`distribution_errors`, not here.
    """

    outcomes: tuple[tuple[Decimal, Decimal], ...]


# The map a Security or Broker holds where none is given: one read-only
# mapping shared by all, so none can gain an entry another then sees
_NO_ENTRIES: Mapping = MappingProxyType({})


class Security(NamedTuple):
    """One instrument type with its circulation window and price series.

    ``quotes`` and ``distributions`` are keyed by grid time; at most one of
    the two may carry an entry for a given time. Each left out is
    :data:`_NO_ENTRIES`.
    """

    security_id: str
    issue_time: int
    maturity: int
    quotes: Mapping[int, Decimal] = _NO_ENTRIES
    distributions: Mapping[int, DiscreteDistribution] = _NO_ENTRIES

    @property
    def window_end(self) -> int:
        return self.issue_time + self.maturity


class Broker(NamedTuple):
    """Per-unit fees one brokerage charges, keyed by (security id, time).

    A fee entry is either a plain decimal or a :class:`DiscreteDistribution`
    of fees (expected mode only). ``fees`` left out is :data:`_NO_ENTRIES`.
    """

    broker_id: str
    fees: Mapping[tuple[str, int], Decimal | DiscreteDistribution] = _NO_ENTRIES


class FeeTable(NamedTuple):
    """All brokers' fee quotes; the cheapest broker is chosen per deal."""

    brokers: tuple[Broker, ...]


class Market:
    """A time grid plus securities, indexed for lookup.

    ``grid`` and ``securities`` are read-only, and two markets are equal
    when their grids and securities are. The id index is derived from them
    and takes no part in equality or the ``repr``. A market is not
    hashable, as its securities hold dicts. Every market, the expected-mode
    reduction's too, is built by the constructor.
    """

    __slots__ = ("_grid", "_securities", "_by_id")

    def __init__(self, grid: TimeGrid, securities: tuple[Security, ...]):
        by_id = {}
        for sec in sorted(securities, key=lambda s: s.security_id):
            if sec.security_id in by_id:
                raise ValueError(f"duplicate security id {sec.security_id!r}")
            by_id[sec.security_id] = sec
        self._grid = grid
        self._securities = securities
        self._by_id = by_id

    grid = property(attrgetter("_grid"))
    securities = property(attrgetter("_securities"))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._grid, self._securities) == (other._grid, other._securities)

    def __repr__(self):
        return f"Market(grid={self._grid!r}, securities={self._securities!r})"

    def security(self, security_id: str) -> Security:
        return self._by_id[security_id]


def is_active(security: Security, t: int) -> bool:
    """True iff ``t`` lies in the closed circulation window of the security."""
    return security.issue_time <= t <= security.window_end


def price_at(security: Security, t: int) -> Decimal:
    """Quoted price of an active security; never a stand-in for inactive ones.

    Callers valuing a portfolio must treat securities outside their window as
    worth zero instead of asking for a price. Raises, in this order, for a
    security out of circulation, a missing quote and a quote that is not
    positive (possible only in a scenario built in code, as a loaded one is
    validated).
    """
    if not is_active(security, t):
        raise InactiveSecurityError(security.security_id, t)
    quote = security.quotes.get(t)
    if quote is None:
        raise QuoteMissingError(security.security_id, t)
    if quote <= 0:
        raise NonpositivePriceError(quote, security.security_id, t)
    return quote


def effective_fee(security: Security, t: int, fees: FeeTable) -> Decimal:
    """Cheapest per-unit fee across brokers for trading the security at ``t``.

    The first minimal scalar fee in broker order: fee distributions are
    skipped, as every solve, replay and trace prices an expected-mode
    scenario on its mean instance. Raises, in this order, for a security
    out of circulation, no scalar fee from any broker and a cheapest fee
    below zero.
    """
    if not is_active(security, t):
        raise InactiveSecurityError(security.security_id, t)
    best = None
    for broker in fees.brokers:
        fee = broker.fees.get((security.security_id, t))
        if isinstance(fee, Decimal) and (best is None or fee < best):
            best = fee
    if best is None:
        raise FeeMissingError(security.security_id, t)
    if best < 0:
        raise NegativeFeeError(best, security.security_id, t)
    return best


def lot_terms(security: Security, t: int, fees: FeeTable,
              lot: Decimal) -> tuple[Decimal, Decimal]:
    """Cash paid per lot bought and received per lot sold at ``t``, exactly.

    ``((price + fee) * lot, (price - fee) * lot)`` in
    :data:`~rebalplan.money.LEDGER_CONTEXT`, whatever the caller's context.
    Raises :func:`price_at`'s errors, then :func:`effective_fee`'s, then
    :class:`InexactArithmeticError` where an amount would need rounding.
    """
    price = price_at(security, t)
    fee = effective_fee(security, t, fees)
    ctx = LEDGER_CONTEXT
    try:
        return ctx.multiply(ctx.add(price, fee), lot), ctx.multiply(ctx.subtract(price, fee), lot)
    except Inexact:
        raise InexactArithmeticError(ctx.prec) from None


class _Terms(dict):
    """Per-lot terms by security id: a first read calls :func:`lot_terms` and keeps the result.

    A read that cannot be priced raises the typed error (``KeyError`` for an
    unknown id) and keeps nothing.
    """

    __slots__ = ("_at",)  # (market, time, fee table, lot), set by deal_book

    def __missing__(self, sid: str) -> tuple[Decimal, Decimal]:
        market, t, fees, lot = self._at
        terms = self[sid] = lot_terms(market.security(sid), t, fees, lot)
        return terms


class Deals(NamedTuple):
    """One page of a deal book: the terms of trading at one grid time.

    ``active`` and ``carried`` hold the ids of the securities in
    circulation at ``time`` and at the next grid time, in id order: only
    an active id trades, and only a carried one is held past the step.
    ``per_lot`` maps a security id to its :func:`lot_terms` at ``time``,
    priced on the first read. ``floor`` is the fewest lots a position may
    hold after a trade: 0, or minus the short cap where shorting is on.
    ``forced_sale`` marks a forced sale of every position, affordable or not.
    """

    time: int
    active: tuple[str, ...]
    carried: tuple[str, ...]
    per_lot: Mapping[str, tuple[Decimal, Decimal]]
    floor: int
    forced_sale: bool


def deal_book(market: Market, fees: FeeTable, lot: Decimal, floor: int = 0,
              forced_sale: bool = False) -> tuple[Deals, ...]:
    """The pages for trading on ``market`` at ``fees`` in lots of ``lot``, one per stage.

    Page ``i`` is for grid index ``i``, and none is for the horizon end.
    Every page holds positions to ``floor`` lots or more; with
    ``forced_sale``, the last page alone is a forced sale. Nothing is priced
    or kept here: each public call builds its own book, so an edit to a
    quote or a fee between two calls is seen by the second.
    """
    points = market.grid.points
    ids = [tuple(sid for sid, sec in market._by_id.items() if is_active(sec, t))
           for t in points]
    last = len(points) - 2
    pages = []
    for i, t in enumerate(points[:-1]):
        per_lot = _Terms()
        per_lot._at = (market, t, fees, lot)
        pages.append(Deals(t, ids[i], ids[i + 1], per_lot, floor, forced_sale and i == last))
    return tuple(pages)


def distribution_errors(dist: DiscreteDistribution, security: str | None = None,
                        time: int | None = None, fees: bool = False) -> list[RebalplanError]:
    """Every way ``dist`` breaks the rule, outcome by outcome then the sum, at ``security, time``.

    The rule: price outcomes are positive (fee outcomes, with ``fees``, non-negative), weights
    are non-negative and sum to exactly 1 in fixed point, so an empty list fails the sum.
    """
    errors: list[RebalplanError] = []
    total = Decimal(0)
    for value, weight in dist.outcomes:
        if fees:
            if value < 0:
                errors.append(NegativeFeeError(value, security, time))
        elif value <= 0:
            errors.append(NonpositivePriceError(value, security, time))
        if weight < 0:
            errors.append(NegativeWeightError(weight, security, time))
        # exact whatever the caller's context, which might round the sum to 1
        total = EXACT_CONTEXT.add(total, weight)
    if total != 1:
        errors.append(BadNormalizationError(total, security, time))
    return errors
