"""Exception types raised across the package.

Error identity is part of the solver contract: callers (and tests) match on
these classes, so operations never fold distinct failure modes into one.
"""

from __future__ import annotations

from decimal import Decimal
from typing import NamedTuple


class RebalplanError(Exception):
    """Base class for all package errors."""


class QuoteMissingError(RebalplanError):
    """No quotation for a security at a grid time where one is required."""

    def __init__(self, security_id: str, time: int):
        super().__init__(f"no quote for security {security_id!r} at time {time}")
        self.security_id = security_id
        self.time = time


class InactiveSecurityError(RebalplanError):
    """A price or trade was requested outside the circulation window."""

    def __init__(self, security_id: str, time: int):
        super().__init__(f"security {security_id!r} is not in circulation at time {time}")
        self.security_id = security_id
        self.time = time


class FeeMissingError(RebalplanError):
    """No broker quotes a fee for a tradable (security, time) pair."""

    def __init__(self, security_id: str, time: int):
        super().__init__(f"no broker fee for security {security_id!r} at time {time}")
        self.security_id = security_id
        self.time = time


def _at(security: str | None, time: int | None) -> str:
    if security is None and time is None:
        return ""
    return f" at ({security}, t={time})"


class BadNormalizationError(RebalplanError):
    """Distribution weights do not sum to exactly 1."""

    def __init__(self, actual_sum: Decimal, security: str | None = None,
                 time: int | None = None):
        super().__init__(
            f"distribution weights sum to {actual_sum}, not 1{_at(security, time)}")
        self.actual_sum = actual_sum
        self.security_id = security
        self.time = time


class NonpositivePriceError(RebalplanError):
    """A quoted or distributed price is zero or negative."""

    def __init__(self, price: Decimal, security: str | None = None,
                 time: int | None = None):
        super().__init__(
            f"price must be strictly positive, got {price}{_at(security, time)}")
        self.price = price
        self.security_id = security
        self.time = time


class NegativeWeightError(RebalplanError):
    """A distribution weight is negative."""

    def __init__(self, weight: Decimal, security: str | None = None,
                 time: int | None = None):
        super().__init__(
            f"distribution weight must be non-negative, got {weight}{_at(security, time)}")
        self.weight = weight
        self.security_id = security
        self.time = time


class NegativeFeeError(RebalplanError):
    """A fee, or a fee distribution's outcome, is negative."""

    def __init__(self, fee: Decimal, security: str | None = None,
                 time: int | None = None):
        super().__init__(f"fee must be non-negative, got {fee}{_at(security, time)}")
        self.fee = fee
        self.security_id = security
        self.time = time


class InadmissibleTradeError(RebalplanError):
    """Applying the trade would drive cash below zero."""

    def __init__(self, deficit: Decimal):
        super().__init__(f"trade is inadmissible: cash would fall short by {deficit}")
        self.deficit = deficit


class ShortCapExceededError(RebalplanError):
    """A resulting position would fall below the allowed short bound."""

    def __init__(self, security_id: str, quantity: int, floor: int):
        super().__init__(
            f"position {quantity} in {security_id!r} breaches the lower bound {floor}"
        )
        self.security_id = security_id
        self.quantity = quantity
        self.floor = floor


class StateBudgetExceededError(RebalplanError):
    """A layer being built grew past the configured node cap.

    ``layer`` is the layer's index in ``ValueTable.layers`` (the root is 0)
    and ``frontier`` the number of nodes it held when the cap was passed.
    """

    def __init__(self, max_states: int, frontier: int, layer: int):
        super().__init__(
            f"layer {layer} reached {frontier} states, over the cap of {max_states}"
        )
        self.max_states = max_states
        self.frontier = frontier
        self.layer = layer


class InexactArithmeticError(RebalplanError):
    """An exact result needs more significant digits than the context holds.

    Raised instead of letting the decimal context round a cash amount
    silently.
    """

    def __init__(self, precision: int):
        super().__init__(
            f"an exact result needs more than {precision} significant digits; "
            "scale the amounts down or use fewer fractional digits"
        )
        self.precision = precision


class InstanceTooLargeError(RebalplanError):
    """A brute-force enumeration would exceed its hard cap."""

    def __init__(self, count: int, cap: int, what: str = "items"):
        super().__init__(f"enumeration reached {count} {what}, cap is {cap}")
        self.count = count
        self.cap = cap


class EmptyTableError(RebalplanError):
    """A policy was requested from a value table with no terminal nodes."""


class ScenarioParseError(RebalplanError):
    """The scenario file is not well-formed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = f" (line {line}, column {column})" if line is not None else ""
        super().__init__(f"{message}{where}")
        self.line = line
        self.column = column


class ValidationIssue(NamedTuple):
    """One semantic problem found while validating a scenario."""

    code: str
    message: str
    security: str | None = None
    time: int | None = None
    broker: str | None = None

    def __str__(self) -> str:
        context = ", ".join(
            f"{name}={value}"
            for name, value in (("security", self.security), ("time", self.time),
                                ("broker", self.broker))
            if value is not None
        )
        return f"{self.code}: {self.message}" + (f" [{context}]" if context else "")

    def __repr__(self) -> str:
        return f"ValidationIssue({self})"


class ScenarioValidationError(RebalplanError):
    """One or more semantic problems in a scenario; loading is all-or-nothing."""

    def __init__(self, issues: list[ValidationIssue]):
        super().__init__(
            "scenario validation failed:\n" + "\n".join(f"  - {i}" for i in issues)
        )
        self.issues = issues
