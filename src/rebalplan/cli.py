"""Command-line driver: solve scenarios, cross-check against the oracle,
validate files.

``solve`` and ``oracle`` solve the scenario's priced instance once, under
the ``--max-states`` cap, and the trace and the oracle read that instance.

Exit codes: 0 success, 2 validation or parse failure, 3 solver budget
exceeded, 4 I/O failure, 5 oracle mismatch.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .bruteforce import brute_force_solve
from .dp import solve_deterministic
from .errors import InstanceTooLargeError, RebalplanError, StateBudgetExceededError
from .expectation import priced_instance
from .money import format_decimal
from .scenario import MODE_DETERMINISTIC, MODE_EXPECTED, load_scenario
from .trace import trace_text

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_IO = 4
EXIT_MISMATCH = 5

_MODE_FLAGS = {"det": MODE_DETERMINISTIC, "exp": MODE_EXPECTED}


def main(argv: list[str] | None = None) -> int:
    """Run one command and map its outcome to the exit code.

    This is the one place a package error becomes an exit code: budget
    errors exit 3, every other :class:`RebalplanError` exits 2. Standard
    output closed by its reader, as ``| head`` leaves it, exits 4.
    """
    args = _build_parser().parse_args(argv)
    try:
        status = _run(args)
        sys.stdout.flush()  # so a closed reader is met here, not at exit
        return status
    except BrokenPipeError as exc:
        # the interpreter flushes stdout once more as it exits: let that go
        # to devnull, so it raises nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    except RebalplanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (StateBudgetExceededError, InstanceTooLargeError)):
            return EXIT_BUDGET
        return EXIT_VALIDATION


def _run(args) -> int:
    mode = _MODE_FLAGS.get(args.mode) if args.mode else None
    try:
        scenario = load_scenario(args.scenario, mode=mode)
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_IO

    if args.command == "validate":
        print(f"scenario OK: {args.scenario}")
        return EXIT_OK
    scenario = priced_instance(scenario)
    if args.max_states is not None:
        scenario = scenario._replace(options=scenario.options._replace(max_states=args.max_states))
    policy, _ = solve_deterministic(scenario)
    value = policy.terminal_wealth
    scale = scenario.options.price_scale

    if args.command == "solve":
        text = trace_text(scenario, policy)
        if args.output is None:
            sys.stdout.write(text)
        else:
            try:
                Path(args.output).write_text(text, encoding="utf-8")
            except OSError as exc:
                print(f"error: cannot write trace: {exc}", file=sys.stderr)
                return EXIT_IO
        print(f"terminal wealth {format_decimal(value, scale)}")
        return EXIT_OK

    oracle_policy, oracle_value = brute_force_solve(scenario)
    if value == oracle_value and policy.trades == oracle_policy.trades:
        print(f"oracle check OK: terminal wealth {format_decimal(value, scale)}")
        return EXIT_OK
    print("oracle mismatch:", file=sys.stderr)
    print(f"  solver: wealth {format_decimal(value, scale)}, policy {policy.trades}",
          file=sys.stderr)
    print(f"  oracle: wealth {format_decimal(oracle_value, scale)}, "
          f"policy {oracle_policy.trades}", file=sys.stderr)
    return EXIT_MISMATCH


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
        if name == "solve":
            cmd.add_argument("--output", metavar="PATH",
                             help="trace CSV destination (default: stdout)")
        if name != "validate":
            cmd.add_argument("--max-states", type=_positive_int, metavar="N",
                             help="override the solver's per-layer node cap (at least 1)")
    return parser


def _positive_int(text: str) -> int:
    """A node cap from the command line: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


if __name__ == "__main__":
    sys.exit(main())
