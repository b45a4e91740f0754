"""Expected-price reduction of stochastic instances.

Wealth, redistribution and fees are all linear in prices for a fixed trade
plan, so expectations push straight through the recurrences: optimizing the
expected terminal wealth of an open-loop policy is the same as solving the
deterministic problem on mean prices and mean fees. This module builds that
derived deterministic instance; solving it is the exact solver's job.
Adaptive policies that react to observed prices are out of scope.
"""

from __future__ import annotations

from dataclasses import replace
from decimal import Decimal

from .errors import BadNormalizationError, NegativeWeightError, NonpositivePriceError
from .market import (
    Broker,
    DiscreteDistribution,
    FeeTable,
    Market,
    Security,
    validate_distribution,
)
from .money import EXACT_CONTEXT, round_half_even
from .scenario import MODE_DETERMINISTIC, Scenario


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
    """Mean outcome rounded half-even to the price scale, validated first."""
    validate_distribution(dist)
    return round_half_even(expected_value(dist), price_scale)


def build_expected_market(scenario: Scenario) -> Scenario:
    """Derived deterministic instance with every distribution at its mean.

    Quotes pass through unchanged; price distributions become quotes at
    their rounded means, per-broker fee distributions become scalar fees the
    same way. Rounding to the price scale happens here, once, so the result
    is a well-formed deterministic scenario. Broker minimization still
    happens at query time, now over expected fees.
    """
    scale = scenario.options.price_scale

    securities = []
    for sec in scenario.market.securities:
        quotes = dict(sec.quotes)
        for t, dist in sorted(sec.distributions.items()):
            try:
                quotes[t] = expected_price(dist, scale)
            except BadNormalizationError as exc:
                raise BadNormalizationError(exc.actual_sum, sec.security_id, t) from exc
            except NonpositivePriceError as exc:
                raise NonpositivePriceError(exc.price, sec.security_id, t) from exc
            except NegativeWeightError as exc:
                raise NegativeWeightError(exc.weight, sec.security_id, t) from exc
        securities.append(Security(sec.security_id, sec.issue_time, sec.maturity,
                                   quotes, {}))

    return Scenario(
        initial_capital=scenario.initial_capital,
        market=Market(scenario.market.grid, tuple(securities)),
        fees=expected_fee_table(scenario.fees, scale),
        options=replace(scenario.options, mode=MODE_DETERMINISTIC),
    )


def expected_fee_table(fees: FeeTable, price_scale: int) -> FeeTable:
    """Fee table with every per-broker fee distribution at its rounded mean."""
    brokers = []
    for broker in fees.brokers:
        flat: dict[tuple[str, int], Decimal | DiscreteDistribution] = {}
        for key, fee in broker.fees.items():
            if isinstance(fee, DiscreteDistribution):
                flat[key] = round_half_even(expected_value(fee), price_scale)
            else:
                flat[key] = fee
        brokers.append(Broker(broker.broker_id, flat))
    return FeeTable(tuple(brokers))
