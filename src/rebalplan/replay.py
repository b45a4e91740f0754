"""Replaying a trade policy through the ledger step by step.

The replay prices the instance the solver solves, the
:func:`~rebalplan.expectation.priced_instance`. It runs in
:data:`~rebalplan.money.LEDGER_CONTEXT`, entered once per replay:
:func:`replay_policy` and :func:`replay_terminal_wealth` enter it
themselves, and :func:`full_horizon_states` runs in its caller's block, so
the trace, which prices its rows in that block too, enters it only once.
"""

from __future__ import annotations

from decimal import Decimal

from .dp import Policy
from .expectation import priced_instance
from .ledger import LedgerState, apply_rebalance
from .money import exact_arithmetic
from .scenario import Scenario


def replay_policy(scenario: Scenario, policy: Policy) -> list[LedgerState]:
    """States visited by the policy, initial state first.

    Raises whatever the ledger raises if a trade is inadmissible on this
    scenario, and :class:`InexactArithmeticError` if a cash amount would need
    rounding; the policy's trade times must match the grid step for step.
    """
    with exact_arithmetic():
        return _states(scenario, policy)


def full_horizon_states(scenario: Scenario, policy: Policy) -> list[LedgerState]:
    """States visited by a policy that trades at every decision time.

    As :func:`replay_policy`, and a policy that stops before the last
    decision time raises ``ValueError``. It runs in the caller's decimal
    context, which must be :func:`~rebalplan.money.exact_arithmetic`'s.
    """
    states = _states(scenario, policy)
    if states[-1].time_index != len(scenario.market.grid) - 1:
        raise ValueError("policy does not cover every decision time")
    return states


def replay_terminal_wealth(scenario: Scenario, policy: Policy) -> Decimal:
    """Ending cash after replaying the policy over the full horizon."""
    with exact_arithmetic():
        return full_horizon_states(scenario, policy)[-1].cash


def _states(scenario: Scenario, policy: Policy) -> list[LedgerState]:
    scenario = priced_instance(scenario)
    market = scenario.market
    fees = scenario.fees
    rules = scenario.trade_rules()
    points = market.grid.points
    state = scenario.initial_state()
    states = [state]
    for t, trade in policy.trades:
        if points[state.time_index] != t:
            raise ValueError(
                f"policy trades at {t} but the next decision time is "
                f"{points[state.time_index]}"
            )
        state = apply_rebalance(state, trade, market, fees, rules)
        states.append(state)
    return states
