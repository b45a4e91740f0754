import json
from decimal import Context, Decimal, localcontext
from pathlib import Path

import pytest

from rebalplan import build_expected_market, scenario_from_dict
from rebalplan.money import (
    EXACT_CONTEXT,
    FixedPointError,
    format_decimal,
    parse_decimal,
    round_half_even,
)

DOCS = Path(__file__).resolve().parent.parent / "docs" / "examples"


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
    # more digits than the default 28-digit context once padded
    assert format_decimal(Decimal("10000000000000000.00000000000"), 12) == \
        "10000000000000000.000000000000"
    # small exponents print positionally, not as 0E-7 or 1.2E-7
    assert format_decimal(Decimal("0"), 7) == "0.0000000"
    assert format_decimal(Decimal("0.00000012"), 8) == "0.00000012"


def test_format_keeps_finer_digits_intact():
    assert format_decimal(Decimal("10.00005"), 4) == "10.00005"


def test_round_half_even_at_the_midpoint():
    assert round_half_even(Decimal("10.00005"), 4) == Decimal("10.0000")
    assert round_half_even(Decimal("10.00015"), 4) == Decimal("10.0002")


def _conversions():
    """What each conversion makes of a fixed set of inputs, errors included."""
    out = []
    for text, scale in [("123456.7890", 4), ("10.5", 4), ("10.00001", 4),
                        ("1234567890123456789012345.6789", 4),
                        ("9999999999999999.999999999999", 12), ("ten", 4)]:
        try:
            out.append(repr(parse_decimal(text, scale)))
        except FixedPointError as exc:
            out.append(f"FixedPointError: {exc}")
    for value, scale in [("10000000000000000.00000000000", 12), ("10.00005", 4),
                         ("123456.7", 4)]:
        out.append(format_decimal(Decimal(value), scale))
    out.append(repr(round_half_even(Decimal("2500000000000000.0000000000010"), 12)))
    for path in sorted(DOCS.glob("*.json")):
        scenario = scenario_from_dict(json.loads(path.read_text(encoding="utf-8")))
        out.append(repr(scenario))
        out.append(repr(build_expected_market(scenario)))
    return out


@pytest.mark.parametrize("context", [Context(prec=6), EXACT_CONTEXT],
                         ids=["6-digits", "120-digits"])
def test_no_conversion_reads_the_callers_context(context):
    expected = _conversions()
    with localcontext(context):
        assert _conversions() == expected
