"""Exact multi-period portfolio rebalancing planner.

Finite-horizon dynamic programming over integer lots with per-unit brokerage
fees, in a deterministic mode and an expected-price (certainty-equivalent)
stochastic mode. All money and probabilities are fixed-point decimals, so
results compare exactly.
"""

from .bruteforce import brute_force_solve, enumerate_joint_outcomes
from .dp import (
    Policy,
    ValueNode,
    ValueTable,
    enumerate_controls,
    extract_policy,
    solve_deterministic,
)
from .errors import RebalplanError
from .expectation import build_expected_market, expected_price, solve_stochastic
from .ledger import (
    LedgerState,
    TradeRules,
    apply_rebalance,
    wealth,
)
from .market import (
    Broker,
    DiscreteDistribution,
    FeeTable,
    Market,
    Security,
    TimeGrid,
    effective_fee,
    is_active,
    price_at,
    validate_distribution,
)
from .replay import replay_policy, replay_terminal_wealth
from .scenario import (
    MODE_DETERMINISTIC,
    MODE_EXPECTED,
    Scenario,
    SolverOptions,
    dump_scenario,
    load_scenario,
    scenario_from_dict,
    validate_scenario,
)
from .trace import build_trace_rows, trace_text

__all__ = [
    "Broker",
    "DiscreteDistribution",
    "FeeTable",
    "LedgerState",
    "MODE_DETERMINISTIC",
    "MODE_EXPECTED",
    "Market",
    "Policy",
    "RebalplanError",
    "Scenario",
    "Security",
    "SolverOptions",
    "TimeGrid",
    "TradeRules",
    "ValueNode",
    "ValueTable",
    "apply_rebalance",
    "brute_force_solve",
    "build_expected_market",
    "build_trace_rows",
    "dump_scenario",
    "effective_fee",
    "enumerate_controls",
    "enumerate_joint_outcomes",
    "expected_price",
    "extract_policy",
    "is_active",
    "load_scenario",
    "price_at",
    "replay_policy",
    "replay_terminal_wealth",
    "scenario_from_dict",
    "solve_deterministic",
    "solve_stochastic",
    "trace_text",
    "validate_distribution",
    "validate_scenario",
    "wealth",
]
