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

A node's trade vectors are streamed, one at a time, by an iterative walk
over the securities in id order that reads its per-lot amounts from the
stage's page of the solve's own deal book
(:func:`~rebalplan.market.deal_book`). Each vector is replayed through the ledger step as it
comes, and the layer's node cap is checked as each successor is kept, so
the cap bounds the memory of a layer even inside one node's expansion, and
the number of securities is not limited by the interpreter's recursion
depth. Per successor, the ledger replay is the one step that builds a
state: the walk hands out its prefix dict itself where the last delta is
zero, the successor's canonical holdings are the layer key, and a node is
built only for a successor that is kept or ranked against the incumbent.

At the final decision time the default policy sells every position still
in circulation (a forced-sale page); with ``hold_to_end`` set, trading stays
free and any position left at the horizon end is valued at zero. Either way
the terminal objective is the ending cash balance.

Ties in terminal wealth are broken by fewest total lots traded, then by the
lexicographically smallest flattened trade sequence ordered by (time,
security id, lot delta). The same total order drives pruning, so the solver
is deterministic and agrees with the brute-force reference policy-for-policy.
A node keeps its history only as its parent chain: the sequence is
flattened from that chain, and only when two nodes tie on cash and lots.
"""

from __future__ import annotations

from decimal import Decimal, Inexact
from typing import Iterator, NamedTuple, Optional

from .errors import (EmptyTableError, InadmissibleTradeError, InexactArithmeticError,
                     StateBudgetExceededError)
from .expectation import priced_instance
from .ledger import LedgerState, apply_rebalance, full_sale, trade_lots
from .market import Deals, TimeGrid
from .money import LEDGER_CONTEXT, whole_lots
from .scenario import Scenario

# One flattened trade: (grid time, or the stage in the search, security id, lot delta).
TradeEntry = tuple[int, str, int]


class ValueNode(NamedTuple):
    """A reachable state and the best history reaching it.

    ``parent`` and ``trade`` link the history back to the root; ``lots`` is
    the total lots it trades. A node carries no derived wealth: the search
    ranks nodes by cash, lots and the history's flattened sequence, and on
    the final layer the cash is the terminal wealth. A named tuple, so a
    kept successor costs one tuple construction.
    """

    state: LedgerState
    parent: Optional["ValueNode"]
    trade: Optional[dict[str, int]]
    lots: int


class Policy(NamedTuple):
    """One trade vector per decision time, plus the wealth it achieves."""

    trades: tuple[tuple[int, dict[str, int]], ...]
    terminal_wealth: Decimal


class ValueTable(NamedTuple):
    """Per-time layers of surviving nodes, root first, horizon end last."""

    grid: TimeGrid
    layers: list[list[ValueNode]]


def trade_entries(t: int, trade: dict[str, int]) -> tuple[TradeEntry, ...]:
    """Nonzero deltas of one trade as (time, security, delta), id-sorted."""
    return tuple((t, sid, delta) for sid, delta in sorted(trade.items()) if delta != 0)


def enumerate_controls(state: LedgerState, book: tuple[Deals, ...]) -> Iterator[dict[str, int]]:
    """Every admissible trade vector at the state's decision time, streamed.

    Deltas compose security by security in id order; the budget bound is
    tightened incrementally using the best cash the still-unassigned
    securities could raise, so the product space is cut without excluding
    any vector whose aggregate cash stays non-negative. Selling one security
    to fund buying another in the same step is admissible, and enumerated.
    A forced-sale page yields only its :func:`full_sale`, affordable or not.

    The ids in circulation, their per-lot amounts and the position floor
    come from the state's page of ``book``, a
    :func:`~rebalplan.market.deal_book`; the amounts are read in id order,
    so the first missing quote or fee raises its typed error here, before
    the first vector. The vectors are then made one at a time, in
    lexicographic order of their deltas, by an iterative walk: memory stays
    linear in the number of securities whatever the number of vectors.
    Its amounts are computed in :data:`~rebalplan.money.LEDGER_CONTEXT`,
    so any caller context yields them or :class:`InexactArithmeticError`.
    """
    page = book[state.time_index]
    if page.forced_sale:
        return iter((full_sale(state, page),))
    per_lot = page.per_lot
    held = state.holdings
    floor = page.floor
    terms = []
    for sid in page.active:
        buy_cost, sell_net = per_lot[sid]
        # cash out per lot bought, cash in per lot sold (may be negative),
        # lots sellable down to the floor
        terms.append((sid, buy_cost, sell_net, held.get(sid, 0) - floor))
    if not terms:
        return iter(({},))

    # raisable[i]: most cash securities i.. could still contribute by selling
    raisable = [Decimal(0)] * (len(terms) + 1)
    try:
        for i in range(len(terms) - 1, -1, -1):
            _, _, sell_net, sell_bound = terms[i]
            raisable[i] = (sell_net.fma(sell_bound, raisable[i + 1], LEDGER_CONTEXT)
                           if sell_net > 0 else raisable[i + 1])
    except Inexact:
        raise InexactArithmeticError(LEDGER_CONTEXT.prec) from None
    return _walk(terms, raisable, state.cash)


def _deltas(term: tuple[str, Decimal, Decimal, int], headroom: Decimal) -> range:
    """The lot deltas of one security that keep ``headroom`` recoverable.

    ``headroom`` is the cash left before this security plus what the later
    ones could still raise. :func:`_walk` retypes an inexact amount.
    """
    _, buy_cost, sell_net, sell_bound = term
    if headroom >= 0:
        # the quotient truncates; operands are non-negative here, so it floors
        hi = whole_lots(headroom, buy_cost)
        if sell_net < 0:
            lo = -min(sell_bound, whole_lots(headroom, sell_net.copy_negate()))
        else:
            lo = -sell_bound
        return range(lo, hi + 1)
    # Cash committed to earlier securities must be recovered by selling
    # this one; only net-positive sales can do that.
    if sell_net <= 0:
        return range(0)
    lots_needed = whole_lots(headroom.copy_negate(), sell_net)
    if LEDGER_CONTEXT.multiply(sell_net, lots_needed) < headroom.copy_negate():
        lots_needed += 1
    return range(-sell_bound, -lots_needed + 1)


def _walk(terms: list[tuple[str, Decimal, Decimal, int]], raisable: list[Decimal],
          cash: Decimal) -> Iterator[dict[str, int]]:
    """Depth-first over the securities with an explicit stack of open levels.

    A level is (index, cash left, nonzero deltas so far, remaining deltas).
    The last security's deltas need no cash: its loop extends a copy of the
    prefix, or yields the prefix itself for a zero delta. That dict is
    shared with no other vector: a prefix is never changed once pushed, and
    it reaches the last level unextended only along its all-zero path.
    """
    last = len(terms) - 1
    last_sid = terms[last][0]
    add = LEDGER_CONTEXT.add
    try:
        stack = [(0, cash, {}, iter(_deltas(terms[0], add(cash, raisable[1]))))]
        while stack:
            level, cash, prefix, deltas = stack[-1]
            if level == last:
                stack.pop()
                for delta in deltas:
                    if delta:
                        trade = prefix.copy()
                        trade[last_sid] = delta
                        yield trade
                    else:
                        yield prefix
                continue
            sid, buy_cost, sell_net, _ = terms[level]
            for delta in deltas:
                after = (buy_cost if delta >= 0 else sell_net).fma(-delta, cash, LEDGER_CONTEXT)
                if delta:
                    chosen = prefix.copy()
                    chosen[sid] = delta
                else:
                    chosen = prefix
                nxt = level + 1
                stack.append((nxt, after, chosen,
                              iter(_deltas(terms[nxt], add(after, raisable[nxt + 1])))))
                break
            else:
                stack.pop()
    except Inexact:
        raise InexactArithmeticError(LEDGER_CONTEXT.prec) from None


def solve_deterministic(scenario: Scenario, *, prune: bool = True) -> tuple[Policy, ValueTable]:
    """Maximize terminal cash over all admissible trade sequences, exactly.

    Returns the tie-broken optimal policy and the table of surviving nodes.
    ``prune=False`` keeps every reachable node (for audits; the result must
    not change). ``options.max_states`` caps the nodes a layer holds while
    it is built. A cash amount that would need rounding raises
    :class:`InexactArithmeticError`. It solves the scenario's
    :func:`priced_instance`, as the brute-force oracle does.
    """
    scenario = priced_instance(scenario)
    book = scenario.deal_book()
    cap = scenario.options.max_states

    root = ValueNode(scenario.initial_state(), None, None, 0)
    layers: list[list[ValueNode]] = [[root]]
    for _ in book:
        layers.append(_expand(layers[-1], book, prune, cap))

    table = ValueTable(scenario.market.grid, layers)
    return extract_policy(table), table


def extract_policy(table: ValueTable) -> Policy:
    """Walk parent pointers back from the best terminal node.

    The terminal wealth is that node's cash: positions left at the horizon
    end are worthless.
    """
    if not table.layers or not table.layers[-1]:
        raise EmptyTableError("value table has no terminal nodes")
    points = table.grid.points
    best, *rest = table.layers[-1]
    for node in rest:
        if _precedes(node, best):
            best = node
    steps = tuple((points[stage], dict(trade)) for stage, trade in _history(best))
    return Policy(steps, best.state.cash)


def _expand(frontier: list[ValueNode], book: tuple[Deals, ...], prune: bool,
            cap: int) -> list[ValueNode]:
    """Build the layer after ``frontier``, keeping at most ``cap`` nodes.

    Every trade, a forced sale too, comes from :func:`enumerate_controls`.
    The layer is one dict. With ``prune`` it is keyed by holdings and keeps
    only the best node per holdings vector; a successor with less cash than
    the incumbent is dropped before its node is built. Without, it is
    keyed by arrival order and keeps every successor in the order made.
    """
    kept: dict[tuple[tuple[str, int], ...] | int, ValueNode] = {}
    for node in frontier:
        state = node.state
        lots = node.lots
        for trade in enumerate_controls(state, book):
            try:
                successor = apply_rebalance(state, trade, book)
            except InadmissibleTradeError:
                # only the forced sale can fail here (closing shorts needs cash)
                continue
            key = tuple(successor.holdings.items()) if prune else len(kept)
            cur = kept.get(key)
            if cur is None:
                kept[key] = ValueNode(successor, node, trade, lots + trade_lots(trade))
                if len(kept) > cap:
                    raise StateBudgetExceededError(cap, len(kept), successor.time_index)
            elif successor.cash >= cur.state.cash:
                child = ValueNode(successor, node, trade, lots + trade_lots(trade))
                if _precedes(child, cur):
                    kept[key] = child
    return [kept[key] for key in sorted(kept)]


def _precedes(a: ValueNode, b: ValueNode) -> bool:
    """True iff ``a`` ranks strictly before ``b`` in the tie-broken order.

    Most cash first, then fewest lots, then the smallest flattened trade
    sequence, which is built only when cash and lots tie. Same-holdings
    nodes with equal terminal wealth have equal cash, so breaking cash ties
    by the policy tie-break reproduces the global tie-broken optimum. On
    the terminal layer cash is the terminal wealth.
    """
    if a.state.cash != b.state.cash:
        return a.state.cash > b.state.cash
    if a.lots != b.lots:
        return a.lots < b.lots
    return _sequence(a) < _sequence(b)


def _history(node: ValueNode) -> list[tuple[int, dict[str, int]]]:
    """The (stage, trade) steps from the root to ``node``, root first."""
    steps = []
    while node.parent is not None:
        steps.append((node.state.time_index - 1, node.trade))
        node = node.parent
    steps.reverse()
    return steps


def _sequence(node: ValueNode) -> tuple[TradeEntry, ...]:
    """The node's history flattened to (stage, security id, delta) entries."""
    return tuple(entry for stage, trade in _history(node)
                 for entry in trade_entries(stage, trade))
