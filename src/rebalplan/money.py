"""Fixed-point decimal plumbing for money and probabilities.

Every monetary amount (price, fee, cash) and every probability in this
package is a ``decimal.Decimal`` quantized to a configurable number of
fractional digits. Sums, differences and products of such values are exact,
so solver results can be compared with ``==`` instead of a float tolerance.

Each conversion runs in one fixed context of this module, never in the
caller's, so a value parses, prints and rounds alike whatever precision
the calling code has set:

- :func:`parse_decimal` reads in :data:`LEDGER_CONTEXT`: a value that needs
  more than its 28 digits at the scale, or more fractional digits than the
  scale, is rejected.
- :func:`format_decimal` pads in :data:`EXACT_CONTEXT`'s precision with
  ``Inexact`` trapped, so padding never rounds.
- :func:`round_half_even` rounds in :data:`EXACT_CONTEXT`, the one place a
  value is rounded: an expected value is summed there exactly and then
  rounded half-even, once.

The contexts are passed to each operation, so no ``localcontext`` is
entered per value.
"""

from __future__ import annotations

import decimal
from decimal import Decimal

from .errors import InexactArithmeticError

# Joint-outcome probabilities are products of many quantized factors; the
# default 28-digit context would silently round them. Wrap any computation
# whose exactness matters beyond ~28 digits in this context.
EXACT_CONTEXT = decimal.Context(prec=120)

# The solver, the replay and the oracle run in this context: the default
# precision, but a result that would have to round raises instead.
LEDGER_CONTEXT = decimal.Context(
    prec=28,
    traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow,
           decimal.Inexact],
)


# Padding to a scale: exact, or an error that format_decimal handles.
_PADDING_CONTEXT = decimal.Context(
    prec=EXACT_CONTEXT.prec,
    traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow,
           decimal.Inexact],
)

# quantum(scale) for every scale a scenario may declare (0..12)
_QUANTA = tuple(Decimal((0, (1,), -scale)) for scale in range(13))


class FixedPointError(ValueError):
    """A value cannot be represented exactly at the requested scale."""


def quantum(scale: int) -> Decimal:
    """The smallest representable step at ``scale`` fractional digits."""
    if 0 <= scale < len(_QUANTA):
        return _QUANTA[scale]
    return Decimal((0, (1,), -scale))


def parse_decimal(text: str | int | Decimal, scale: int, *, what: str = "value") -> Decimal:
    """Parse a decimal string, rejecting anything not exact at ``scale``.

    Accepts int and Decimal inputs as a convenience for in-code scenario
    construction; floats are deliberately not accepted.
    """
    if isinstance(text, float):
        raise FixedPointError(f"{what} must be a string, not a float: {text!r}")
    try:
        raw = Decimal(str(text), LEDGER_CONTEXT)
    except decimal.InvalidOperation as exc:
        raise FixedPointError(f"{what} is not a decimal number: {text!r}") from exc
    if not raw.is_finite():
        raise FixedPointError(f"{what} must be finite: {text!r}")
    step = _QUANTA[scale] if 0 <= scale < len(_QUANTA) else quantum(scale)
    try:
        return raw.quantize(step, None, LEDGER_CONTEXT)
    except decimal.Inexact as exc:
        raise FixedPointError(
            f"{what} {text!r} has more than {scale} fractional digits"
        ) from exc
    except decimal.InvalidOperation as exc:
        raise FixedPointError(
            f"{what} {text!r} needs more than {LEDGER_CONTEXT.prec} "
            f"significant digits at scale {scale}"
        ) from exc


class exact_arithmetic:
    """Context manager running its block in :data:`LEDGER_CONTEXT`.

    A result that would be rounded, or an integer quotient with more digits
    than the context holds, raises :class:`InexactArithmeticError`.
    """

    def __enter__(self):
        self._local = decimal.localcontext(LEDGER_CONTEXT)
        self._local.__enter__()

    def __exit__(self, kind, exc, tb):
        self._local.__exit__(kind, exc, tb)
        if kind is not None and (issubclass(kind, (decimal.Inexact, decimal.DivisionImpossible))
                                 or _lists_division_impossible(exc)):
            raise InexactArithmeticError(LEDGER_CONTEXT.prec) from exc
        return False


def _lists_division_impossible(exc: BaseException) -> bool:
    """True iff ``exc`` is the C module's ``InvalidOperation`` for a ``DivisionImpossible``.

    That module lists the conditions in the first argument. A module that
    raises the condition's own class is matched by its type instead.
    """
    conditions = exc.args[0] if isinstance(exc, decimal.InvalidOperation) and exc.args else ()
    return isinstance(conditions, list) and decimal.DivisionImpossible in conditions


def format_decimal(value: Decimal, scale: int) -> str:
    """Canonical string form: padded to ``scale`` digits, never rounded.

    Values genuinely finer than ``scale`` (possible with a fractional lot
    size) are emitted with all their digits intact. The padding runs at
    :data:`EXACT_CONTEXT`'s precision, so it does not depend on the
    caller's, and the result is always positional, never in exponent form.
    """
    try:
        value = value.quantize(quantum(scale), context=_PADDING_CONTEXT)
    except decimal.Inexact:
        value = value.normalize(context=_PADDING_CONTEXT)
    return format(value, "f")


def round_half_even(value: Decimal, scale: int) -> Decimal:
    """``value`` rounded half-even to ``scale`` digits, in :data:`EXACT_CONTEXT`."""
    return value.quantize(quantum(scale), rounding=decimal.ROUND_HALF_EVEN,
                          context=EXACT_CONTEXT)
