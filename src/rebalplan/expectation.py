"""Expected-price reduction of stochastic instances.

Wealth, redistribution and fees are all linear in prices for a fixed trade
plan, so expectations push straight through the recurrences: optimizing the
expected terminal wealth of an open-loop policy is the same as solving the
deterministic problem on mean prices and mean fees. This module builds that
derived deterministic instance; solving it is the exact solver's job.
Adaptive policies that react to observed prices are out of scope.
"""

from __future__ import annotations

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
from .scenario import MODE_DETERMINISTIC, MODE_EXPECTED, Scenario, SolverOptions


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
    happens at query time, now over expected fees.

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
        options=SolverOptions(
            mode=MODE_DETERMINISTIC, lot_size=options.lot_size,
            allow_short=options.allow_short, short_cap=options.short_cap,
            hold_to_end=options.hold_to_end, max_states=options.max_states,
            price_scale=scale, prob_scale=options.prob_scale,
        ),
    )


def _expected_security(sec: Security, price_scale: int) -> Security:
    """The security with each price distribution replaced by its rounded mean."""
    quotes = dict(sec.quotes)
    for t, dist in sorted(sec.distributions.items()):
        try:
            quotes[t] = expected_price(dist, price_scale)
        except BadNormalizationError as exc:
            raise BadNormalizationError(exc.actual_sum, sec.security_id, t) from exc
        except NonpositivePriceError as exc:
            raise NonpositivePriceError(exc.price, sec.security_id, t) from exc
        except NegativeWeightError as exc:
            raise NegativeWeightError(exc.weight, sec.security_id, t) from exc
    return Security(sec.security_id, sec.issue_time, sec.maturity, quotes, {})


def expected_fee_table(fees: FeeTable, price_scale: int) -> FeeTable:
    """Fee table with every per-broker fee distribution at its rounded mean."""
    brokers = []
    changed = False
    for broker in fees.brokers:
        flat = None
        for key, fee in broker.fees.items():
            if isinstance(fee, DiscreteDistribution):
                if flat is None:
                    flat = dict(broker.fees)
                flat[key] = round_half_even(expected_value(fee), price_scale)
        if flat is not None:
            broker = Broker(broker.broker_id, flat)
            changed = True
        brokers.append(broker)
    return FeeTable(tuple(brokers)) if changed else fees
