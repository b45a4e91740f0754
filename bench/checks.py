"""Checks on the planner's answers, computed apart from the solver.

Everything here reads the scenario JSON itself and works in integers: prices
and fees in quanta of the price scale, cash in quanta of twice the price
scale (a price times a lot size). Expected-mode means are taken with
``Fraction`` and rounded half-even to the price scale, which is what the
expected-price reduction promises. None of this touches the package's
ledger, market or solver code.

- :func:`replay` recomputes a policy's cash step by step and raises
  :class:`CheckFailed` on an overdraft, a broken rule or a terminal wealth
  that differs from the reported one.
- :func:`reference_dp` keeps the best cash per holdings vector per stage,
  with no tie-break, and returns the optimal terminal cash together with
  the number of admissible (node, trade) pairs a full expansion of its
  frontiers generates.
- :func:`check_trace` reads the policy CSV back.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction

TRACE_HEADER = ["time", "security", "holdings_before", "holdings_after",
                "trade_cash", "fee_paid", "cash_after", "wealth"]


class CheckFailed(AssertionError):
    """An answer of the planner disagrees with the independent computation."""


def _quanta(value, scale: int) -> int:
    """Exact count of ``10**-scale`` steps in a decimal string or Decimal."""
    exact = Fraction(value) * 10 ** scale
    if exact.denominator != 1:
        raise CheckFailed(f"{value!r} is not on the 1e-{scale} grid")
    return exact.numerator


def _mean_quanta(outcomes: list, scale: int) -> int:
    """Probability-weighted mean, rounded half-even to the price scale."""
    mean = sum(Fraction(value) * Fraction(weight) for value, weight in outcomes)
    return round(mean * 10 ** scale)  # Fraction rounds ties to even


@dataclass(frozen=True)
class Instance:
    """A scenario reduced to integer economics.

    At decision index ``i``: ``active[i]`` holds the securities in
    circulation, ``buy[i][sid]`` / ``sell[i][sid]`` the cash out per lot
    bought and in per lot sold at the cheapest broker, and ``alive[i]`` the
    securities still in circulation at the next grid time (other positions
    are forfeited). Cash is in quanta of ``10**-cash_scale``.
    """

    times: tuple[int, ...]
    ids: tuple[str, ...]
    active: tuple[frozenset, ...]
    alive: tuple[frozenset, ...]
    buy: tuple[dict, ...]
    sell: tuple[dict, ...]
    capital: int
    cash_scale: int
    floor: int
    hold_to_end: bool


def instance(doc: dict) -> Instance:
    """Integer economics of a scenario document in its own mode."""
    options = doc.get("options", {})
    scale = options.get("price_scale", 4)
    expected = options.get("mode", "deterministic") == "expected"
    lot = _quanta(options.get("lot_size", "1"), scale)
    floor = -options.get("short_cap", 0) if options.get("allow_short", False) else 0
    times = tuple(doc["times"])

    prices: dict[tuple[str, int], int] = {}
    windows: dict[str, tuple[int, int]] = {}
    for sec in doc["securities"]:
        sid = sec["id"]
        windows[sid] = (sec["issue_time"], sec["issue_time"] + sec["maturity"])
        for t, quote in (sec.get("quotes") or {}).items():
            prices[sid, int(t)] = _quanta(quote, scale)
        if expected:
            for t, outcomes in (sec.get("distributions") or {}).items():
                prices[sid, int(t)] = _mean_quanta(outcomes, scale)

    fees: dict[tuple[str, int], int] = {}
    for broker in doc["brokers"]:
        for sid, by_time in (broker.get("fees") or {}).items():
            for t, cell in by_time.items():
                if isinstance(cell, list):
                    if not expected:
                        continue  # deterministic mode prices scalar fees only
                    fee = _mean_quanta(cell, scale)
                else:
                    fee = _quanta(cell, scale)
                key = (sid, int(t))
                fees[key] = min(fee, fees.get(key, fee))

    def circulating(t: int) -> frozenset:
        return frozenset(sid for sid, (lo, hi) in windows.items() if lo <= t <= hi)

    active = tuple(circulating(t) for t in times[:-1])
    return Instance(
        times=times,
        ids=tuple(sorted(windows)),
        active=active,
        alive=tuple(circulating(t) for t in times[1:]),
        buy=tuple({s: (prices[s, t] + fees[s, t]) * lot for s in here}
                  for t, here in zip(times, active)),
        sell=tuple({s: (prices[s, t] - fees[s, t]) * lot for s in here}
                   for t, here in zip(times, active)),
        capital=_quanta(doc["initial_capital"], scale) * 10 ** scale,
        cash_scale=2 * scale,
        floor=floor,
        hold_to_end=options.get("hold_to_end", False),
    )


def replay(inst: Instance, trades, terminal_wealth) -> int:
    """Replay a policy's trades and return the terminal cash in quanta.

    ``trades`` is a sequence of (time, {security: lot delta}); it must give
    one trade per decision time, in order, and end with the sale of every
    open position unless the scenario holds to the end.
    """
    stages = len(inst.times) - 1
    if len(trades) != stages:
        raise CheckFailed(f"policy has {len(trades)} trades for {stages} decision times")
    holdings: dict[str, int] = {}
    cash = inst.capital
    for i, (t, trade) in enumerate(trades):
        if t != inst.times[i]:
            raise CheckFailed(f"trade {i} is at time {t}, expected {inst.times[i]}")
        trade = {sid: delta for sid, delta in trade.items() if delta}
        if i == stages - 1 and not inst.hold_to_end:
            sale = {sid: -qty for sid, qty in holdings.items()}
            if trade != sale:
                raise CheckFailed(f"last trade {trade} is not the forced sale {sale}")
        for sid, delta in trade.items():
            if sid not in inst.active[i]:
                raise CheckFailed(f"{sid} traded at {t} outside its window")
            cash -= (inst.buy[i] if delta > 0 else inst.sell[i])[sid] * delta
            holdings[sid] = holdings.get(sid, 0) + delta
            if holdings[sid] < inst.floor:
                raise CheckFailed(f"{sid} at {holdings[sid]} lots is below the floor")
        if cash < 0:
            raise CheckFailed(f"cash is negative after the trade at {t}")
        holdings = {sid: q for sid, q in holdings.items() if q and sid in inst.alive[i]}
    reported = _quanta(terminal_wealth, inst.cash_scale)
    if cash != reported:
        raise CheckFailed(f"replayed terminal cash {cash} != reported {reported}")
    return cash


def reference_dp(inst: Instance) -> tuple[int, int]:
    """Optimal terminal cash and the admissible (node, trade) pair count.

    A frontier maps each holdings vector (over ``inst.ids``) to the most
    cash that reaches it; every admissible trade of every frontier node is
    generated and counted.
    """
    pos = {sid: k for k, sid in enumerate(inst.ids)}
    frontier = {(0,) * len(inst.ids): inst.capital}
    successors = 0
    stages = len(inst.times) - 1
    for i in range(stages):
        act = sorted(inst.active[i])
        idx = [pos[sid] for sid in act]
        buy = [inst.buy[i][sid] for sid in act]
        sell = [inst.sell[i][sid] for sid in act]
        drop = [pos[sid] for sid in inst.ids if sid not in inst.alive[i]]
        nxt: dict[tuple, int] = {}

        def leaf(held: list, cash: int) -> None:
            if drop:
                held = held.copy()
                for k in drop:
                    held[k] = 0
            key = tuple(held)
            if nxt.get(key, -1) < cash:
                nxt[key] = cash

        if i == stages - 1 and not inst.hold_to_end:
            for held, cash in frontier.items():
                for k, j in enumerate(idx):
                    cash += sell[k] * held[j] if held[j] > 0 else buy[k] * held[j]
                if cash >= 0:
                    successors += 1
                    leaf([0] * len(held), cash)
            frontier = nxt
            continue

        for held, cash in frontier.items():
            current = list(held)
            sellable = [held[j] - inst.floor for j in idx]
            # most cash securities k.. could still raise by selling
            raisable = [0] * (len(idx) + 1)
            for k in range(len(idx) - 1, -1, -1):
                raisable[k] = raisable[k + 1] + max(sell[k], 0) * sellable[k]

            def compose(k: int, cash: int) -> None:
                nonlocal successors
                if k == len(idx):
                    successors += 1
                    leaf(current, cash)
                    return
                j = idx[k]
                rest = raisable[k + 1]
                most = (cash + rest) // buy[k]
                for delta in range(-sellable[k], max(most, -1) + 1):
                    after = cash - (buy[k] if delta > 0 else sell[k]) * delta
                    if after + rest >= 0:
                        current[j] = held[j] + delta
                        compose(k + 1, after)
                current[j] = held[j]

            compose(0, cash)
        frontier = nxt
    return max(frontier.values()), successors


def check_trace(inst: Instance, text: str, terminal_cash: int) -> None:
    """The CSV's running cash must hold row by row and end at ``terminal_cash``."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != TRACE_HEADER:
        raise CheckFailed("trace header is missing or wrong")
    scale = inst.cash_scale
    cash = inst.capital
    for row in rows[1:-1]:
        cash -= _quanta(row[4], scale) + _quanta(row[5], scale)
        if _quanta(row[6], scale) != cash:
            raise CheckFailed(f"trace row {row} breaks the running cash")
        if cash < 0:
            raise CheckFailed(f"trace row {row} has negative cash")
    last = rows[-1]
    if (last[0] != str(inst.times[-1]) or _quanta(last[6], scale) != terminal_cash
            or _quanta(last[7], scale) != terminal_cash):
        raise CheckFailed(f"trace summary {last} does not end at the terminal cash")
