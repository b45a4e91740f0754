"""Expected-price reduction of stochastic instances.

Wealth, redistribution and fees are all linear in prices for a fixed trade
plan, so expectations push straight through the recurrences: optimizing the
expected terminal wealth of an open-loop policy is the same as solving the
deterministic problem on mean prices and mean fees. This module builds that
derived deterministic instance; solving it is the exact solver's job.
Adaptive policies that react to observed prices are out of scope.

Every mean, of a price or of a fee distribution, is taken by one rule: the
first error :func:`~rebalplan.market.distribution_errors` finds is raised,
naming its security and time, and otherwise the exact mean is rounded
half-even to the price scale, once.
"""

from __future__ import annotations

from decimal import Decimal

from .market import (
    Broker,
    DiscreteDistribution,
    FeeTable,
    Market,
    Security,
    distribution_errors,
)
from .money import EXACT_CONTEXT, round_half_even
from .scenario import MODE_DETERMINISTIC, MODE_EXPECTED, Scenario


def expected_value(dist: DiscreteDistribution) -> Decimal:
    """Probability-weighted mean of the outcomes, exact and unrounded.

    The sum runs in :data:`EXACT_CONTEXT`, whatever the caller's context:
    rounding it to 28 digits first would round a fine-scaled mean twice.
    """
    total = Decimal(0)
    for value, weight in dist.outcomes:
        total = value.fma(weight, total, context=EXACT_CONTEXT)
    return total


def expected_price(dist: DiscreteDistribution, price_scale: int) -> Decimal:
    """Mean outcome of a price distribution, checked first, rounded half-even to the scale."""
    return _checked_mean(dist, price_scale)


def _checked_mean(dist: DiscreteDistribution, price_scale: int, security: str | None = None,
                  time: int | None = None, fees: bool = False) -> Decimal:
    """Raise the first error of ``dist`` at ``security, time``, else round its mean half-even."""
    errors = distribution_errors(dist, security, time, fees)
    if errors:
        raise errors[0]
    return round_half_even(expected_value(dist), price_scale)


def priced_instance(scenario: Scenario) -> Scenario:
    """The instance every solve, replay and trace prices: the mean one in expected mode."""
    if scenario.options.mode == MODE_EXPECTED:
        return build_expected_market(scenario)
    return scenario


def build_expected_market(scenario: Scenario) -> Scenario:
    """Derived deterministic instance with every distribution at its mean.

    Quotes pass through unchanged; price distributions become quotes at
    their rounded means, per-broker fee distributions become scalar fees the
    same way. Rounding to the price scale happens here, once, so the result
    is a well-formed deterministic scenario. Broker minimization still
    happens at query time, now over expected fees. A price or fee
    distribution that breaks :func:`~rebalplan.market.distribution_errors`'s
    rule (fee outcomes need only be non-negative) raises the first error
    found, naming its security and time; the securities are read before the
    fee table.

    Only the records a distribution changes are rebuilt: a security or a
    broker without one, and a fee table without any, is shared with
    ``scenario``. The market is a new :class:`~rebalplan.market.Market` on
    the same grid, its securities in the same order, with its own deal book.
    """
    options = scenario.options
    scale = options.price_scale
    market = scenario.market
    securities = tuple(_expected_security(sec, scale) if sec.distributions else sec
                       for sec in market.securities)

    return Scenario(
        initial_capital=scenario.initial_capital,
        market=Market(market.grid, securities),
        fees=expected_fee_table(scenario.fees, scale),
        options=options._replace(mode=MODE_DETERMINISTIC),
    )


def _expected_security(sec: Security, price_scale: int) -> Security:
    """The security with each price distribution replaced by its rounded mean."""
    quotes = dict(sec.quotes)
    for t, dist in sorted(sec.distributions.items()):
        quotes[t] = _checked_mean(dist, price_scale, sec.security_id, t)
    return Security(sec.security_id, sec.issue_time, sec.maturity, quotes, {})


def expected_fee_table(fees: FeeTable, price_scale: int) -> FeeTable:
    """Fee table with every per-broker fee distribution at its checked, rounded mean."""
    brokers = []
    changed = False
    for broker in fees.brokers:
        flat = None
        for (sid, t), fee in broker.fees.items():
            if isinstance(fee, DiscreteDistribution):
                if flat is None:
                    flat = dict(broker.fees)
                flat[sid, t] = _checked_mean(fee, price_scale, sid, t, fees=True)
        if flat is not None:
            broker = Broker(broker.broker_id, flat)
            changed = True
        brokers.append(broker)
    return FeeTable(tuple(brokers)) if changed else fees
