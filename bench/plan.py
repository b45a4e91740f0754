"""The measured operation: load a scenario from JSON text, then plan it.

A plan runs from a loaded ``Scenario`` to a ``Policy`` and its trace CSV
text. In expected mode it first reduces the instance to mean prices and
fees, as the CLI does, and traces the reduced instance.
"""

from __future__ import annotations

import json
from time import perf_counter

from rebalplan import build_expected_market, scenario_from_dict, solve_deterministic, trace_text


def load(text: str):
    """Parse and validate one scenario from its JSON text."""
    return scenario_from_dict(json.loads(text))


def plan(scenario):
    """Plan one loaded scenario.

    Returns the policy, the value table, the trace text and the seconds
    spent in the expected-price reduction, the solve and the trace.
    """
    t0 = perf_counter()
    if scenario.options.mode == "expected":
        scenario = build_expected_market(scenario)
    t1 = perf_counter()
    policy, table = solve_deterministic(scenario)
    t2 = perf_counter()
    text = trace_text(scenario, policy)
    t3 = perf_counter()
    return policy, table, text, (t1 - t0, t2 - t1, t3 - t2)
