import json
from decimal import Context, Decimal, localcontext
from pathlib import Path

import pytest

import rebalplan.money as money
from rebalplan import build_expected_market, scenario_from_dict
from rebalplan.errors import InexactArithmeticError
from rebalplan.money import (
    EXACT_CONTEXT,
    FixedPointError,
    format_decimal,
    parse_decimal,
    round_half_even,
    whole_lots,
)

DOCS = Path(__file__).resolve().parent.parent / "docs" / "examples"


def test_parse_accepts_exact_values():
    assert parse_decimal("10.5000", 4) == Decimal("10.5")
    assert parse_decimal("10.5", 4) == Decimal("10.5000")
    assert parse_decimal(Decimal(3), 4) == Decimal(3)


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


def test_a_decimal_given_in_code_must_be_finite():
    for value in (Decimal("NaN"), Decimal("Infinity"), Decimal("-Infinity"), Decimal("sNaN")):
        with pytest.raises(FixedPointError, match="must be a decimal string"):
            parse_decimal(value, 4)


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
    """What each conversion makes of a fixed set of inputs, errors included.

    The amount table is emptied first, so every amount is parsed in this
    pass, not read from a parse made in another context.
    """
    money._AMOUNTS.clear()
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


@pytest.fixture
def no_amounts():
    """An empty amount table, so no test reads what another one parsed."""
    money._AMOUNTS.clear()


def test_the_same_amount_text_parses_to_one_object(no_amounts):
    first = parse_decimal("10.5000", 4)
    again = parse_decimal("".join(["10.5", "000"]), 4)  # equal text, another str
    assert again is first


def test_the_same_text_at_another_scale_gets_its_own_object(no_amounts):
    at_4 = parse_decimal("10.5", 4)
    at_6 = parse_decimal("10.5", 6)
    assert at_6 is not at_4
    assert repr(at_4) == "Decimal('10.5000')" and repr(at_6) == "Decimal('10.500000')"
    assert (at_4.as_tuple().exponent, at_6.as_tuple().exponent) == (-4, -6)


def test_a_full_amount_table_still_parses_and_stays_at_its_cap(no_amounts, monkeypatch):
    monkeypatch.setattr(money, "AMOUNT_TABLE_CAP", 3)
    texts = [f"{n}.25" for n in range(5)]
    assert [repr(parse_decimal(text, 2)) for text in texts] == \
        [f"Decimal('{text}')" for text in texts]
    assert len(money._AMOUNTS) == 3
    assert parse_decimal("4.25", 2) == Decimal("4.25")
    assert len(money._AMOUNTS) == 3


def test_only_short_strings_that_parse_are_kept(no_amounts):
    for text, scale in [("10.00001", 4), ("ten", 4), (3, 4)]:
        for _ in range(2):
            with pytest.raises(FixedPointError):
                parse_decimal(text, scale)
    parse_decimal(Decimal("3"), 4)
    parse_decimal("0" * money.AMOUNT_TEXT_CAP + "3", 4)
    parse_decimal("3", 13)
    assert money._AMOUNTS == {}


def test_whole_lots_divides_in_the_ledger_context():
    assert whole_lots(Decimal("10.0000"), Decimal("3.0000")) == 3
    # at six digits the caller's context could not hold this quotient
    with localcontext(Context(prec=6)):
        assert whole_lots(Decimal("10000000"), Decimal("0.5")) == 20000000
    with pytest.raises(InexactArithmeticError):
        # a lot costing 10**-24: about 10**40 lots, more digits than 28
        whole_lots(Decimal("9999999999999999.999999999999"), Decimal("1E-24"))
