"""Command-line driver: solve scenarios, cross-check against the oracle,
validate files.

Exit codes: 0 success, 2 validation or parse failure, 3 solver budget
exceeded, 4 I/O failure, 5 oracle mismatch.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bruteforce import brute_force_solve
from .dp import Policy, solve_deterministic
from .errors import (
    InstanceTooLargeError,
    RebalplanError,
    ScenarioParseError,
    ScenarioValidationError,
    StateBudgetExceededError,
)
from .expectation import build_expected_market
from .money import format_decimal
from .scenario import MODE_EXPECTED, Scenario, load_scenario
from .trace import trace_text

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_IO = 4
EXIT_MISMATCH = 5

_MODE_FLAGS = {"det": "deterministic", "exp": "expected"}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    scenario = _load(args)
    if isinstance(scenario, int):
        return scenario

    if args.command == "validate":
        print(f"scenario OK: {args.scenario}")
        return EXIT_OK
    if args.command == "solve":
        return run_solve(scenario, args.output, max_states=args.max_states)
    return run_oracle_check(scenario, max_states=args.max_states)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rebalplan",
        description="Exact multi-period portfolio rebalancing planner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = (
        ("solve", "solve a scenario and write the policy trace"),
        ("oracle", "solve and cross-check against the brute-force reference"),
        ("validate", "load and validate a scenario file"),
    )
    for name, help_text in specs:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--scenario", required=True, metavar="PATH",
                         help="scenario JSON file")
        cmd.add_argument("--mode", choices=sorted(_MODE_FLAGS),
                         help="override the scenario's solver mode")
        if name != "validate":
            cmd.add_argument("--output", metavar="PATH",
                             help="trace CSV destination (default: stdout)")
            cmd.add_argument("--max-states", type=int, metavar="N",
                             help="override the solver's per-layer node cap")
    return parser


def _load(args) -> Scenario | int:
    mode = _MODE_FLAGS.get(args.mode) if args.mode else None
    try:
        return load_scenario(args.scenario, mode=mode)
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_IO
    except ScenarioParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ScenarioValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def run_solve(scenario: Scenario, out_path: str | None, *,
              max_states: int | None = None) -> int:
    """Solve, emit the trace, print a summary line with the terminal wealth."""
    try:
        policy, solved = _solve(scenario, max_states)
    except (StateBudgetExceededError, InstanceTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except RebalplanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    text = trace_text(solved, policy)
    if out_path is None:
        sys.stdout.write(text)
    else:
        try:
            Path(out_path).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write trace: {exc}", file=sys.stderr)
            return EXIT_IO
    scale = scenario.options.price_scale
    print(f"terminal wealth {format_decimal(policy.terminal_wealth, scale)}")
    return EXIT_OK


def run_oracle_check(scenario: Scenario, *, max_states: int | None = None) -> int:
    """Exit 0 iff the staged solver and the brute-force reference agree exactly."""
    try:
        policy, solved = _solve(scenario, max_states)
        oracle_policy, oracle_value = brute_force_solve(solved)
    except (StateBudgetExceededError, InstanceTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except RebalplanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    scale = scenario.options.price_scale
    value = policy.terminal_wealth
    if value == oracle_value and policy.trades == oracle_policy.trades:
        print(f"oracle check OK: terminal wealth {format_decimal(value, scale)}")
        return EXIT_OK
    print("oracle mismatch:", file=sys.stderr)
    print(f"  solver: wealth {format_decimal(value, scale)}, policy {policy.trades}",
          file=sys.stderr)
    print(f"  oracle: wealth {format_decimal(oracle_value, scale)}, "
          f"policy {oracle_policy.trades}", file=sys.stderr)
    return EXIT_MISMATCH


def _solve(scenario: Scenario, max_states: int | None) -> tuple[Policy, Scenario]:
    """The optimal policy and the deterministic instance it was solved on.

    An expected-mode scenario is reduced to its mean instance here, once; the
    trace and the oracle read that same instance.
    """
    if scenario.options.mode == MODE_EXPECTED:
        scenario = build_expected_market(scenario)
    policy, _ = solve_deterministic(scenario, max_states=max_states)
    return policy, scenario


if __name__ == "__main__":
    sys.exit(main())
