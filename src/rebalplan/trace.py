"""Policy trace emission: one CSV row per (time, traded or held security).

Row columns: time, security, holdings_before, holdings_after, trade_cash,
fee_paid, cash_after, wealth. Subtracting trade_cash and fee_paid from the
previous row's cash reproduces cash_after row by row, starting from the
initial capital. Within a decision time, sells and holds print before buys
so the running cash column never dips below zero; the wealth column is the
mark-to-market value after each row, which between rows of one time falls
exactly by the fee paid. The file ends with a summary row carrying the
terminal cash and wealth.
"""

from __future__ import annotations

import csv
import io
from decimal import Decimal

from .dp import Policy
from .ledger import apply_rebalance
from .market import effective_fee, is_active, price_at
from .money import format_decimal
from .scenario import Scenario

TRACE_HEADER = (
    "time", "security", "holdings_before", "holdings_after",
    "trade_cash", "fee_paid", "cash_after", "wealth",
)


def build_trace_rows(scenario: Scenario, policy: Policy) -> list[list[str]]:
    market = scenario.market
    fees = scenario.fees
    rules = scenario.trade_rules()
    scale = scenario.options.price_scale
    money = lambda d: format_decimal(d, scale)  # noqa: E731

    rows: list[list[str]] = []
    state = scenario.initial_state()
    for t, trade in policy.trades:
        touched = sorted(set(state.holdings) | {s for s, d in trade.items() if d != 0})
        ordered = sorted(touched, key=lambda sid: (trade.get(sid, 0) > 0, sid))
        cash = state.cash
        current = dict(state.holdings)
        for sid in ordered:
            sec = market.security(sid)
            delta = trade.get(sid, 0)
            before = current.get(sid, 0)
            after = before + delta
            if delta != 0:
                trade_cash = price_at(sec, t) * rules.lot_size * delta
                fee_paid = effective_fee(sec, t, fees) * rules.lot_size * abs(delta)
            else:
                trade_cash = Decimal(0)
                fee_paid = Decimal(0)
            cash = cash - trade_cash - fee_paid
            current[sid] = after
            mark = cash
            for other, qty in current.items():
                other_sec = market.security(other)
                if qty != 0 and is_active(other_sec, t):
                    mark += price_at(other_sec, t) * rules.lot_size * qty
            rows.append([
                str(t), sid, str(before), str(after),
                money(trade_cash), money(fee_paid), money(cash), money(mark),
            ])
        state = apply_rebalance(state, trade, market, fees, rules)
        assert cash == state.cash  # per-security decomposition matches the ledger

    rows.append([
        str(market.grid.end), "", "", "", "", "",
        money(state.cash), money(state.cash),
    ])
    return rows


def trace_text(scenario: Scenario, policy: Policy) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(TRACE_HEADER)
    writer.writerows(build_trace_rows(scenario, policy))
    return buffer.getvalue()
