from decimal import Decimal
from random import Random

import pytest

from rebalplan import (
    Broker,
    DiscreteDistribution,
    FeeTable,
    Security,
    TimeGrid,
    effective_fee,
    expected_price,
    is_active,
    price_at,
)
from rebalplan.errors import (
    BadNormalizationError,
    FeeMissingError,
    InactiveSecurityError,
    NegativeWeightError,
    NonpositivePriceError,
    QuoteMissingError,
)
from rebalplan.market import Deals, Market, deal_book
from scenariogen import random_scenario

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


def test_a_market_refuses_a_repeated_security_id():
    with pytest.raises(ValueError, match="duplicate security id 'A'"):
        Market(TimeGrid((1, 2)), (sec(1, 1), sec(1, 1)))


def test_a_market_finds_a_security_from_its_id():
    a, b = sec(1, 1), sec(1, 1)._replace(security_id="B")
    market = Market(TimeGrid((1, 2)), (b, a))
    assert market.security("A") is a and market.security("B") is b
    with pytest.raises(KeyError):
        market.security("Z")


def test_the_deal_book_has_no_page_at_the_horizon_end():
    # A circulates at 1 and 2; no broker quotes a fee for it at 2
    market = Market(TimeGrid((1, 2, 3)), (sec(1, 1, {1: "10", 2: "10"}),))
    fees = FeeTable((Broker("b1", {("A", 1): D(0)}),))
    book = deal_book(market, fees, D(1))
    assert [(page.time, page.active, page.carried) for page in book] == [
        (1, ("A",), ("A",)), (2, ("A",), ())]
    assert book[0].per_lot["A"] == (D(10), D(10))
    assert dict(book[1].per_lot) == {}  # nothing is priced before it is read
    for _ in range(2):  # a read that cannot be priced raises each time
        with pytest.raises(FeeMissingError):
            book[1].per_lot["A"]
    unissued = Market(TimeGrid((1, 2)), (sec(2, 1, {2: "10"}),))
    with pytest.raises(InactiveSecurityError):
        deal_book(unissued, fees, D(1))[0].per_lot["A"]


def _circulating(market, t):
    return tuple(s.security_id for s in market.securities if is_active(s, t))


def _pages_follow_is_active(market, book):
    points = market.grid.points
    assert [page.time for page in book] == list(points[:-1])
    for page, t, following in zip(book, points, points[1:]):
        assert type(page) is Deals
        assert page.active == _circulating(market, t)
        assert page.carried == _circulating(market, following)


def test_deal_book_pages_list_the_ids_is_active_puts_in_circulation():
    # the book makes is_active's window comparison itself
    rng = Random(2024)
    for _ in range(300):
        scn = random_scenario(rng)
        _pages_follow_is_active(scn.market, scn.deal_book())
    # windows random_scenario never draws
    market = Market(TimeGrid((2, 5, 9, 14)), (
        Security("A", 0, 3),   # opens before the first time, closes between 2 and 5
        Security("B", 4, 20),  # opens between 2 and 5, closes after the last time
        Security("C", 5, 0),   # maturity 0 on a grid time
        Security("D", 6, 2),   # the whole window between 5 and 9
        Security("E", 9, 5),   # closes on the last time
        Security("F", 0, 30),  # opens before the first time and closes after the last
        Security("G", 1, 0),   # maturity 0 before the first time
    ))
    book = deal_book(market, FeeTable(()), D(1), floor=-2, forced_sale=True)
    _pages_follow_is_active(market, book)
    assert [(page.time, page.active, page.carried, page.floor, page.forced_sale)
            for page in book] == [
        (2, ("A", "F"), ("B", "C", "F"), -2, False),
        (5, ("B", "C", "F"), ("B", "E", "F"), -2, False),
        (9, ("B", "E", "F"), ("B", "E", "F"), -2, True)]


def test_records_built_without_maps_share_one_read_only_mapping():
    a, b = Security("A", 1, 1), Security("B", 1, 2)
    broker = Broker("b1")
    assert a.quotes is b.quotes is a.distributions is b.distributions is broker.fees
    with pytest.raises(TypeError):
        a.quotes[1] = D("10")
    with pytest.raises(TypeError):
        broker.fees["A", 1] = D("0")
    assert b.quotes == {} and broker.fees == {}


def test_replace_rebuilds_the_one_field_records():
    grid = TimeGrid((1, 2))
    assert grid._replace(points=(1, 3, 4)) == TimeGrid((1, 3, 4))
    with pytest.raises(ValueError):
        grid._replace(points=(1, 1, 2))
    dist = DiscreteDistribution(((D("10"), D("0.5")), (D("12"), D("0.5"))))
    certain = ((D("11"), D("1")),)
    assert dist._replace(outcomes=certain) == DiscreteDistribution(certain)
    a, b = sec(1, 1), sec(1, 1)._replace(security_id="B")
    market = Market(grid, (a,))
    with pytest.raises(ValueError, match="duplicate security id 'A'"):
        market._replace(securities=(a, a))
    assert market._replace(securities=(a, b)) == Market(grid, (a, b))
    # a market holds its securities in id order however they are given
    assert market._replace(securities=(b, a)).securities == (a, b)


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


def test_effective_fee_refuses_inactive_times():
    # a broker quotes a fee at time 3, but the security matured at time 2
    s = sec(1, 1, {1: "10.00"})
    table = FeeTable((Broker("b0", {("A", 3): D("0.05")}),))
    with pytest.raises(InactiveSecurityError) as info:
        effective_fee(s, 3, table)
    assert (info.value.security_id, info.value.time) == ("A", 3)


def test_effective_fee_is_minimal_over_every_broker():
    s = sec(1, 2, {1: "10.00"})
    table = fee_table("0.41", "0.07", "0.23", "0.07")
    fee = effective_fee(s, 1, table)
    for broker in table.brokers:
        assert fee <= broker.fees[("A", 1)]


def dist(*pairs):
    return DiscreteDistribution(tuple((D(v), D(w)) for v, w in pairs))


def test_expected_price_accepts_exact_normalization():
    assert expected_price(dist(("14.00", "0.5"), ("10.00", "0.5")), 4) == D("12.0000")
    assert expected_price(dist(("12.00", "1.0")), 4) == D("12.0000")


def test_expected_price_rejects_bad_sum():
    with pytest.raises(BadNormalizationError) as info:
        expected_price(dist(("14.00", "0.6"), ("10.00", "0.5")), 4)
    assert info.value.actual_sum == D("1.1")


def test_expected_price_rejects_bad_outcomes():
    with pytest.raises(NonpositivePriceError):
        expected_price(dist(("0.00", "1.0")), 4)
    with pytest.raises(NegativeWeightError):
        expected_price(dist(("10.00", "-0.5"), ("12.00", "1.5")), 4)
