from decimal import Decimal

import pytest

from rebalplan import (
    Broker,
    DiscreteDistribution,
    FeeTable,
    Security,
    TimeGrid,
    effective_fee,
    is_active,
    price_at,
    validate_distribution,
)
from rebalplan.errors import (
    BadNormalizationError,
    FeeMissingError,
    InactiveSecurityError,
    NegativeWeightError,
    NonpositivePriceError,
    QuoteMissingError,
)

D = Decimal


def sec(issue, maturity, quotes=None):
    return Security("A", issue, maturity, {t: D(q) for t, q in (quotes or {}).items()}, {})


def test_time_grid_rejects_disorder():
    with pytest.raises(ValueError):
        TimeGrid((1, 1, 2))
    with pytest.raises(ValueError):
        TimeGrid((3, 2))
    with pytest.raises(ValueError):
        TimeGrid(())


def test_replace_rebuilds_the_one_field_records():
    grid = TimeGrid((1, 2))
    assert grid._replace(points=(1, 3, 4)) == TimeGrid((1, 3, 4))
    with pytest.raises(ValueError):
        grid._replace(points=(1, 1, 2))
    dist = DiscreteDistribution(((D("10"), D("0.5")), (D("12"), D("0.5"))))
    certain = ((D("11"), D("1")),)
    assert dist._replace(outcomes=certain) == DiscreteDistribution(certain)


@pytest.mark.parametrize("issue,maturity,t,expected", [
    (1, 2, 2, True),    # inside the window
    (1, 2, 4, False),   # past maturity, worthless
    (3, 1, 2, False),   # not yet issued
    (1, 2, 1, True),    # window is closed at issue
    (1, 2, 3, True),    # and closed at maturity
])
def test_is_active_window(issue, maturity, t, expected):
    assert is_active(sec(issue, maturity), t) is expected


def test_price_at_looks_up_quotes():
    s = sec(1, 2, {1: "10.00", 2: "11.50"})
    assert price_at(s, 2) == D("11.50")
    assert price_at(s, 1) == D("10.00")


def test_price_at_refuses_inactive_times():
    s = sec(1, 1, {1: "10.00"})
    with pytest.raises(InactiveSecurityError):
        price_at(s, 3)


def test_price_at_reports_missing_quotes():
    s = sec(1, 2, {1: "10.00"})
    with pytest.raises(QuoteMissingError):
        price_at(s, 2)


def fee_table(*fees):
    brokers = tuple(
        Broker(f"b{i}", {("A", 1): D(fee)}) for i, fee in enumerate(fees)
    )
    return FeeTable(brokers)


def test_effective_fee_takes_the_cheapest_broker():
    s = sec(1, 2, {1: "10.00"})
    assert effective_fee(s, 1, fee_table("0.05", "0.03", "0.07")) == D("0.03")
    assert effective_fee(s, 1, fee_table("0.10")) == D("0.10")


def test_effective_fee_requires_some_broker():
    s = sec(1, 2, {1: "10.00"})
    with pytest.raises(FeeMissingError):
        effective_fee(s, 1, FeeTable(()))


def test_effective_fee_is_minimal_over_every_broker():
    s = sec(1, 2, {1: "10.00"})
    table = fee_table("0.41", "0.07", "0.23", "0.07")
    fee = effective_fee(s, 1, table)
    for broker in table.brokers:
        assert fee <= broker.fees[("A", 1)]


def dist(*pairs):
    return DiscreteDistribution(tuple((D(v), D(w)) for v, w in pairs))


def test_validate_distribution_accepts_exact_normalization():
    validate_distribution(dist(("14.00", "0.5"), ("10.00", "0.5")))
    validate_distribution(dist(("12.00", "1.0")))


def test_validate_distribution_rejects_bad_sum():
    with pytest.raises(BadNormalizationError) as info:
        validate_distribution(dist(("14.00", "0.6"), ("10.00", "0.5")))
    assert info.value.actual_sum == D("1.1")


def test_validate_distribution_rejects_bad_outcomes():
    with pytest.raises(NonpositivePriceError):
        validate_distribution(dist(("0.00", "1.0")))
    with pytest.raises(NegativeWeightError):
        validate_distribution(dist(("10.00", "-0.5"), ("12.00", "1.5")))
