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

A process that loads many scenarios reads the same few amounts again and
again, so :func:`parse_decimal` keeps the ``Decimal`` it made for each
``(text, scale)`` and hands that one object out for every later read of the
same text at the same scale. A ``Decimal`` is immutable, so sharing it
changes no answer. The table only grows: it stops at
:data:`AMOUNT_TABLE_CAP` entries and takes texts of at most
:data:`AMOUNT_TEXT_CAP` characters, and an error is never kept.

:func:`whole_lots` is the one integer quotient of cash by a per-lot amount,
for the solver's enumerator and the oracle's candidate bound.
"""

from __future__ import annotations

import decimal
import re
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

# parse_decimal's table, (text, scale) -> the Decimal parsed from it, for a
# plain str of at most AMOUNT_TEXT_CAP characters at a scenario scale. An
# entry costs at most about 0.5 KB: its key tuple (56 bytes), the text it
# keeps alive (236 bytes at 40 four-byte characters), the Decimal (104
# bytes) and its slots in the dict. So the full table holds at most about
# 2 MB; a pass over 2,000 benchmark scenarios reads about 2,400 distinct
# amounts.
AMOUNT_TABLE_CAP = 4096
AMOUNT_TEXT_CAP = 40
_AMOUNTS: dict[tuple[str, int], Decimal] = {}

# A document amount, so that none of the Decimal constructor's other spellings
# ("1e1", "+1", "1_0", " 1", "١", "NaN", "1.", ".5") loads as if written plainly
_AMOUNT_GRAMMAR = re.compile(r"-?[0-9]+(?:\.[0-9]+)?")


class FixedPointError(ValueError):
    """A value cannot be represented exactly at the requested scale."""


def quantum(scale: int) -> Decimal:
    """The smallest representable step at ``scale`` fractional digits."""
    if 0 <= scale < len(_QUANTA):
        return _QUANTA[scale]
    return Decimal((0, (1,), -scale))


def parse_decimal(text: str | Decimal, scale: int, *, what: str = "value") -> Decimal:
    """Parse a document amount, rejecting anything not exact at ``scale``.

    The one rule for an amount: a string of an optional ``-``, ASCII digits
    and an optional ``.`` and digits, or a finite ``Decimal`` given in code.
    A string read before at the same scale returns the object parsed then
    (see :data:`AMOUNT_TABLE_CAP`).
    """
    shared = type(text) is str and len(text) <= AMOUNT_TEXT_CAP and 0 <= scale < len(_QUANTA)
    if shared:
        value = _AMOUNTS.get((text, scale))
        if value is not None:
            return value
    if isinstance(text, Decimal) and text.is_finite():
        raw = text
    elif not isinstance(text, str):
        raise FixedPointError(f"{what} must be a decimal string, got {text!r}")
    elif _AMOUNT_GRAMMAR.fullmatch(text) is None:
        raise FixedPointError(f"{what} is not a decimal number: {text!r}")
    else:
        raw = Decimal(text, LEDGER_CONTEXT)
    try:
        value = raw.quantize(quantum(scale), None, LEDGER_CONTEXT)
    except decimal.Inexact as exc:
        raise FixedPointError(
            f"{what} {text!r} has more than {scale} fractional digits"
        ) from exc
    except decimal.InvalidOperation as exc:
        raise FixedPointError(
            f"{what} {text!r} needs more than {LEDGER_CONTEXT.prec} "
            f"significant digits at scale {scale}"
        ) from exc
    if shared and len(_AMOUNTS) < AMOUNT_TABLE_CAP:
        _AMOUNTS[text, scale] = value
    return value


def whole_lots(cash: Decimal, per_lot: Decimal) -> int:
    """How many whole ``per_lot`` amounts fit in ``cash``, truncated toward zero.

    Divided in :data:`LEDGER_CONTEXT`, whatever the caller's context. A
    quotient with more digits than that context holds raises
    :class:`InexactArithmeticError`: the C ``decimal`` module reports it as
    an ``InvalidOperation`` listing ``DivisionImpossible``, the pure-Python
    one as a plain ``InvalidOperation``, and both are taken alike. The
    callers divide by a positive amount, so no other invalid operation
    reaches here.
    """
    try:
        return int(LEDGER_CONTEXT.divide_int(cash, per_lot))
    except decimal.InvalidOperation as exc:
        raise InexactArithmeticError(LEDGER_CONTEXT.prec) from exc


class exact_arithmetic:
    """Context manager running its block in :data:`LEDGER_CONTEXT`.

    A result that would be rounded raises :class:`InexactArithmeticError`.
    """

    def __enter__(self):
        self._local = decimal.localcontext(LEDGER_CONTEXT)
        self._local.__enter__()

    def __exit__(self, kind, exc, tb):
        self._local.__exit__(kind, exc, tb)
        if kind is not None and issubclass(kind, decimal.Inexact):
            raise InexactArithmeticError(LEDGER_CONTEXT.prec) from exc
        return False


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
