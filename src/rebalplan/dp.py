"""Exact finite-horizon solver by forward expansion of reachable states.

The solver walks the time grid stage by stage. Each frontier node is a
reachable ledger state together with the cheapest-to-reproduce trade history
that reaches it; expanding a node enumerates every admissible trade vector
at the current decision time. Two nodes with the same holdings compare by
cash: with holdings fixed, strictly more cash yields strictly more terminal
wealth, so keeping only the best node per holdings vector (dominance
pruning) is exact. Cash is a sparse set of exact decimals, which is why the
engine expands reachable states forward instead of iterating a value
function over a cash grid.

At the final decision time the default policy is to sell every position
still in circulation; with ``hold_to_end`` set, trading stays free and any
position left at the horizon end is valued at zero. Either way the terminal
objective is the ending cash balance.

Ties in terminal wealth are broken by fewest total lots traded, then by the
lexicographically smallest flattened trade sequence ordered by (time,
security id, lot delta). The same total order drives pruning, so the solver
is deterministic and agrees with the brute-force reference policy-for-policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from typing import Optional

from .errors import EmptyTableError, InadmissibleTradeError, StateBudgetExceededError
from .ledger import (
    DEFAULT_RULES,
    LedgerState,
    TradeRules,
    apply_rebalance,
    full_sale,
    trade_lots,
    wealth,
)
from .market import FeeTable, Market, TimeGrid, effective_fee, price_at
from .money import exact_arithmetic
from .scenario import Scenario

# One flattened trade: (grid time, security id, lot delta).
TradeEntry = tuple[int, str, int]


@dataclass(frozen=True)
class ValueNode:
    """A reachable state, its value, and the best history reaching it.

    ``value`` is the mark-to-market wealth of the state at its own grid time;
    for nodes on the final layer it is the ending cash (positions left at the
    horizon end are worthless). ``lots`` and ``seq`` cache the tie-break key
    of the trade history.
    """

    state: LedgerState
    value: Decimal
    parent: Optional["ValueNode"]
    trade: Optional[dict[str, int]]
    lots: int
    seq: tuple[TradeEntry, ...]


@dataclass(frozen=True)
class Policy:
    """One trade vector per decision time, plus the wealth it achieves."""

    trades: tuple[tuple[int, dict[str, int]], ...]
    terminal_wealth: Decimal

    def total_lots(self) -> int:
        return sum(trade_lots(trade) for _, trade in self.trades)

    def sequence(self) -> tuple[TradeEntry, ...]:
        entries: list[TradeEntry] = []
        for t, trade in self.trades:
            entries.extend(trade_entries(t, trade))
        return tuple(entries)


@dataclass
class ValueTable:
    """Per-time layers of surviving nodes, root first, horizon end last."""

    grid: TimeGrid
    layers: list[list[ValueNode]]


def trade_entries(t: int, trade: dict[str, int]) -> tuple[TradeEntry, ...]:
    """Nonzero deltas of one trade as (time, security, delta), id-sorted."""
    return tuple((t, sid, delta) for sid, delta in sorted(trade.items()) if delta != 0)


def enumerate_controls(state: LedgerState, market: Market, fees: FeeTable,
                       rules: TradeRules = DEFAULT_RULES) -> tuple[dict[str, int], ...]:
    """Every admissible trade vector at the state's decision time.

    Deltas compose security by security in id order; the budget bound is
    tightened incrementally using the best cash the still-unassigned
    securities could raise, so the product space is cut without excluding
    any vector whose aggregate cash stays non-negative. Selling one security
    to fund buying another in the same step is admissible, and enumerated.
    """
    t = market.grid.points[state.time_index]
    lot = rules.lot_size
    cheapest = fees.cheapest()
    econ = []
    for sid, price in market.quotes_at(t).items():
        fee = cheapest.get((sid, t))
        if price is None or fee is None:
            # raises the typed error for the missing entry
            sec = market.security(sid)
            price, fee = price_at(sec, t), effective_fee(sec, t, fees)
        held = state.holdings.get(sid, 0)
        econ.append((
            sid,
            (price + fee) * lot,          # cash out per lot bought
            (price - fee) * lot,          # cash in per lot sold (may be negative)
            held - rules.position_floor,  # lots sellable down to the floor
        ))

    # raise[i]: most cash securities i.. could still contribute by selling
    raisable = [Decimal(0)] * (len(econ) + 1)
    for i in range(len(econ) - 1, -1, -1):
        _, _, sell_net, sell_bound = econ[i]
        gain = sell_net * sell_bound if sell_net > 0 else Decimal(0)
        raisable[i] = raisable[i + 1] + gain

    def compose(idx: int, cash: Decimal, partial: list[tuple[str, int]]):
        if idx == len(econ):
            yield {sid: delta for sid, delta in partial if delta != 0}
            return
        sid, buy_cost, sell_net, sell_bound = econ[idx]
        headroom = cash + raisable[idx + 1]
        if headroom >= 0:
            # Decimal // truncates; operands are non-negative here, so it floors.
            hi = int(headroom // buy_cost)
            if sell_net < 0:
                lo = -min(sell_bound, int(headroom // -sell_net))
            else:
                lo = -sell_bound
        else:
            # Cash committed to earlier securities must be recovered by
            # selling this one; only net-positive sales can do that.
            if sell_net <= 0:
                return
            lots_needed = int(-headroom // sell_net)
            if lots_needed * sell_net < -headroom:
                lots_needed += 1
            hi = -lots_needed
            lo = -sell_bound
            if hi < lo:
                return
        for delta in range(lo, hi + 1):
            if delta >= 0:
                next_cash = cash - buy_cost * delta
            else:
                next_cash = cash + sell_net * -delta
            partial.append((sid, delta))
            yield from compose(idx + 1, next_cash, partial)
            partial.pop()

    return tuple(compose(0, state.cash, []))


def solve_deterministic(scenario: Scenario, *, prune: bool = True,
                        max_states: int | None = None) -> tuple[Policy, ValueTable]:
    """Maximize terminal cash over all admissible trade sequences, exactly.

    Returns the tie-broken optimal policy and the table of surviving nodes.
    ``prune=False`` keeps every reachable node (for audits; the result must
    not change). ``max_states`` overrides the scenario's cap on the nodes a
    layer holds while it is built. A cash amount that would need rounding
    raises :class:`InexactArithmeticError`.
    """
    market = scenario.market
    fees = scenario.fees
    rules = scenario.trade_rules()
    grid = market.grid
    cap = scenario.options.max_states if max_states is None else max_states
    stages = len(grid) - 1

    root = ValueNode(
        state=scenario.initial_state(),
        value=scenario.initial_capital,
        parent=None, trade=None, lots=0, seq=(),
    )
    layers: list[list[ValueNode]] = [[root]]
    with exact_arithmetic():
        for i in range(stages):
            terminal = i == stages - 1
            forced = terminal and not scenario.options.hold_to_end
            layers.append(_expand(layers[-1], market, fees, rules, forced, terminal,
                                  prune, cap, len(layers)))

    table = ValueTable(grid, layers)
    return extract_policy(table), table


def extract_policy(table: ValueTable) -> Policy:
    """Walk parent pointers back from the best terminal node."""
    if not table.layers or not table.layers[-1]:
        raise EmptyTableError("value table has no terminal nodes")
    best = min(table.layers[-1], key=_rank)

    steps: list[tuple[int, dict[str, int]]] = []
    node = best
    while node.parent is not None:
        traded_at = table.grid.points[node.state.time_index - 1]
        steps.append((traded_at, dict(node.trade or {})))
        node = node.parent
    steps.reverse()
    return Policy(tuple(steps), best.value)


def _expand(frontier: list[ValueNode], market: Market, fees: FeeTable,
            rules: TradeRules, forced: bool, terminal: bool, prune: bool,
            cap: int, layer: int) -> list[ValueNode]:
    """Build layer ``layer`` from its predecessor, keeping at most ``cap`` nodes.

    With ``prune`` only the best node per holdings vector is kept; a
    successor with less cash than the incumbent is dropped before its history
    and value are built.
    """
    grid = market.grid
    best: dict[tuple[tuple[str, int], ...], ValueNode] = {}
    out: list[ValueNode] = []
    for node in frontier:
        t = grid.points[node.state.time_index]
        if forced:
            trades = (full_sale(node.state, market, t),)
        else:
            trades = enumerate_controls(node.state, market, fees, rules)
        for trade in trades:
            try:
                successor = apply_rebalance(node.state, trade, market, fees, rules)
            except InadmissibleTradeError:
                # only the forced sale can fail here (closing shorts needs cash)
                continue
            cur = None
            if prune:
                key = successor.holdings_key()
                cur = best.get(key)
                if cur is not None and successor.cash < cur.state.cash:
                    continue
            lots = node.lots + trade_lots(trade)
            seq = node.seq + trade_entries(t, trade)
            if cur is not None and (-successor.cash, lots, seq) >= _rank(cur):
                continue
            if terminal:
                value = successor.cash
            else:
                value = wealth(successor, market, grid.points[successor.time_index], rules)
            child = ValueNode(successor, value, node, trade, lots, seq)
            if prune:
                best[key] = child
            else:
                out.append(child)
            held = len(best) if prune else len(out)
            if held > cap:
                raise StateBudgetExceededError(cap, held, layer)
    return [best[key] for key in sorted(best)] if prune else out


def _rank(node: ValueNode) -> tuple[Decimal, int, tuple[TradeEntry, ...]]:
    """Sort key, best first: most cash, then fewest lots, then smallest sequence.

    Same-holdings nodes with equal terminal wealth have equal cash, so
    breaking cash ties by the policy tie-break reproduces the global
    tie-broken optimum. On the terminal layer value and cash coincide.
    """
    return (-node.state.cash, node.lots, node.seq)
