from decimal import Decimal

import pytest

from rebalplan.money import (
    FixedPointError,
    format_decimal,
    parse_decimal,
    round_half_even,
)


def test_parse_accepts_exact_values():
    assert parse_decimal("10.5000", 4) == Decimal("10.5")
    assert parse_decimal("10.5", 4) == Decimal("10.5000")
    assert parse_decimal(3, 4) == Decimal(3)


def test_parse_rejects_excess_digits():
    with pytest.raises(FixedPointError):
        parse_decimal("10.00001", 4)
    # 29 significant digits: more than the default context can quantize
    with pytest.raises(FixedPointError):
        parse_decimal("1234567890123456789012345.6789", 4)


def test_parse_rejects_floats_and_garbage():
    with pytest.raises(FixedPointError):
        parse_decimal(10.5, 4)  # type: ignore[arg-type]
    with pytest.raises(FixedPointError):
        parse_decimal("ten", 4)
    with pytest.raises(FixedPointError):
        parse_decimal("NaN", 4)


def test_format_pads_to_scale():
    assert format_decimal(Decimal("10.5"), 4) == "10.5000"
    assert format_decimal(Decimal("104.50000000"), 4) == "104.5000"


def test_format_keeps_finer_digits_intact():
    assert format_decimal(Decimal("10.00005"), 4) == "10.00005"


def test_round_half_even_at_the_midpoint():
    assert round_half_even(Decimal("10.00005"), 4) == Decimal("10.0000")
    assert round_half_even(Decimal("10.00015"), 4) == Decimal("10.0002")
