"""Replaying a trade policy through the ledger, and its per-trade trace.

The replay runs a policy's trades through the ledger step by step:
:func:`replay_policy` returns the states it visits and
:func:`replay_terminal_wealth` the ending cash over the full horizon.

:func:`trace_text`, the one trace entry point, returns the CSV text: the
header, then one row per (time, traded or held security). Row columns:
time, security, holdings_before, holdings_after, trade_cash, fee_paid,
cash_after, wealth. Subtracting trade_cash and fee_paid from the
previous row's cash reproduces cash_after row by row, starting from the
initial capital. Within a decision time, sells and holds print before buys
so the running cash column never dips below zero. The wealth column is the
mark-to-market value after each row: each decision time opens at
:func:`~rebalplan.ledger.wealth` of the state it trades from, and each row
lowers it by exactly its fee paid, as a trade at the quoted price swaps
cash for a position of the same mark. The file ends with a summary row
carrying the terminal cash and wealth.

The replay and the rows price the instance the solver solves, the
:func:`~rebalplan.expectation.priced_instance`, in the solver's exact
context, :data:`~rebalplan.money.LEDGER_CONTEXT`, passed to each operation
whatever the caller's context. Each public call settles that instance once;
an amount that would need rounding raises
:class:`~rebalplan.errors.InexactArithmeticError` rather than printing a
rounded figure. Each public call replays on a deal book of its own. The
trace replays the policy first, so a policy whose trade times do not follow
the grid, or that stops before the last decision time, raises the replay's
``ValueError`` before any row is priced.

A decision time where nothing is held or traded prints no row and costs no
row work. At every time, the cash the rows reach must equal the ledger's,
or an ``AssertionError`` names the time; the check is explicit, so it holds
under ``python -O`` too.
"""

from __future__ import annotations

import csv
import io
from decimal import Decimal, Inexact

from .dp import Policy
from .errors import InexactArithmeticError
from .expectation import priced_instance
from .ledger import LedgerState, apply_rebalance, wealth
from .market import effective_fee, price_at
from .money import LEDGER_CONTEXT, format_decimal
from .scenario import Scenario

TRACE_HEADER = (
    "time", "security", "holdings_before", "holdings_after",
    "trade_cash", "fee_paid", "cash_after", "wealth",
)


def replay_policy(scenario: Scenario, policy: Policy) -> list[LedgerState]:
    """States visited by the policy, initial state first.

    Raises whatever the ledger raises if a trade is inadmissible on this
    scenario, and :class:`InexactArithmeticError` if a cash amount would need
    rounding; the policy's trade times must match the grid step for step.
    """
    return _states(priced_instance(scenario), policy)


def replay_terminal_wealth(scenario: Scenario, policy: Policy) -> Decimal:
    """Ending cash after replaying the policy over the full horizon."""
    return _full_horizon_states(priced_instance(scenario), policy)[-1].cash


def trace_text(scenario: Scenario, policy: Policy) -> str:
    """The policy's trace as CSV text: the header, a row per touched security, the summary row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(TRACE_HEADER)
    scenario = priced_instance(scenario)
    market = scenario.market
    fees = scenario.fees
    lot = scenario.options.lot_size
    scale = scenario.options.price_scale
    money = lambda d: format_decimal(d, scale)  # noqa: E731
    ctx = LEDGER_CONTEXT

    states = _full_horizon_states(scenario, policy)
    for (t, trade), state, reached in zip(policy.trades, states, states[1:]):
        cash = state.cash
        held = state.holdings
        # a time where nothing is held or traded prints no row
        if held or any(trade.values()):
            touched = set(held) | {s for s, d in trade.items() if d != 0}
            mark = wealth(state, market, t, lot)
            for sid in sorted(touched, key=lambda sid: (trade.get(sid, 0) > 0, sid)):
                delta = trade.get(sid, 0)
                before = held.get(sid, 0)
                after = before + delta
                trade_cash = fee_paid = Decimal(0)
                try:
                    if delta != 0:
                        sec = market.security(sid)
                        trade_cash = ctx.multiply(ctx.multiply(price_at(sec, t), lot), delta)
                        fee_paid = ctx.multiply(ctx.multiply(effective_fee(sec, t, fees), lot),
                                                abs(delta))
                    cash = ctx.subtract(ctx.subtract(cash, trade_cash), fee_paid)
                    mark = ctx.subtract(mark, fee_paid)
                except Inexact:
                    raise InexactArithmeticError(ctx.prec) from None
                writer.writerow([
                    str(t), sid, str(before), str(after),
                    money(trade_cash), money(fee_paid), money(cash), money(mark),
                ])
        if cash != reached.cash:
            # the per-security decomposition must match the ledger, also under -O
            raise AssertionError(
                f"trace cash {cash} at time {t} differs from the ledger's {reached.cash}")

    end = money(states[-1].cash)
    writer.writerow([str(market.grid.end), "", "", "", "", "", end, end])
    return buffer.getvalue()


def _full_horizon_states(scenario: Scenario, policy: Policy) -> list[LedgerState]:
    """As :func:`_states`, for a policy that trades at every decision time.

    A policy that stops before the last decision time raises ``ValueError``.
    """
    states = _states(scenario, policy)
    if states[-1].time_index != len(scenario.market.grid) - 1:
        raise ValueError("policy does not cover every decision time")
    return states


def _states(scenario: Scenario, policy: Policy) -> list[LedgerState]:
    """States the policy visits on the priced ``scenario``."""
    book = scenario.deal_book()
    points = scenario.market.grid.points
    state = scenario.initial_state()
    states = [state]
    for t, trade in policy.trades:
        if points[state.time_index] != t:
            raise ValueError(
                f"policy trades at {t} but the next decision time is "
                f"{points[state.time_index]}"
            )
        if state.time_index == len(book):
            raise ValueError("cannot trade at the horizon end")
        state = apply_rebalance(state, trade, book)
        states.append(state)
    return states
