"""Fixed-point decimal plumbing for money and probabilities.

Every monetary amount (price, fee, cash) and every probability in this
package is a ``decimal.Decimal`` quantized to a configurable number of
fractional digits. Sums, differences and products of such values are exact,
so solver results can be compared with ``==`` instead of a float tolerance.
Division appears in exactly one place (expected values) and is rounded
half-even, once.
"""

from __future__ import annotations

import decimal
from decimal import Decimal

from .errors import InexactArithmeticError

PRICE_SCALE_DEFAULT = 4
PROB_SCALE_DEFAULT = 6

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


class FixedPointError(ValueError):
    """A value cannot be represented exactly at the requested scale."""


def quantum(scale: int) -> Decimal:
    """The smallest representable step at ``scale`` fractional digits."""
    return Decimal(1).scaleb(-scale)


def parse_decimal(text: str | int | Decimal, scale: int, *, what: str = "value") -> Decimal:
    """Parse a decimal string, rejecting anything not exact at ``scale``.

    Accepts int and Decimal inputs as a convenience for in-code scenario
    construction; floats are deliberately not accepted.
    """
    if isinstance(text, float):
        raise FixedPointError(f"{what} must be a string, not a float: {text!r}")
    try:
        raw = Decimal(str(text))
    except decimal.InvalidOperation as exc:
        raise FixedPointError(f"{what} is not a decimal number: {text!r}") from exc
    if not raw.is_finite():
        raise FixedPointError(f"{what} must be finite: {text!r}")
    try:
        with decimal.localcontext() as ctx:
            ctx.traps[decimal.Inexact] = True
            return raw.quantize(quantum(scale))
    except decimal.Inexact as exc:
        raise FixedPointError(
            f"{what} {text!r} has more than {scale} fractional digits"
        ) from exc
    except decimal.InvalidOperation as exc:
        raise FixedPointError(
            f"{what} {text!r} needs more than {decimal.getcontext().prec} "
            f"significant digits at scale {scale}"
        ) from exc


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
    size) are emitted with all their digits intact. The padding runs in
    :data:`EXACT_CONTEXT`, so it does not depend on the caller's precision,
    and the result is always positional, never in exponent form.
    """
    with decimal.localcontext(EXACT_CONTEXT) as ctx:
        ctx.traps[decimal.Inexact] = True
        try:
            value = value.quantize(quantum(scale))
        except decimal.Inexact:
            value = value.normalize()
    return format(value, "f")


def round_half_even(value: Decimal, scale: int) -> Decimal:
    return value.quantize(quantum(scale), rounding=decimal.ROUND_HALF_EVEN)
