"""Expected-price reduction of stochastic instances, and their joint outcomes.

Wealth, redistribution and fees are all linear in prices for a fixed trade
plan, so expectations push straight through the recurrences: optimizing the
expected terminal wealth of an open-loop policy is the same as solving the
deterministic problem on mean prices and mean fees. This module builds that
derived deterministic instance, and, for the linearity audit, one per joint
price outcome; solving them is the exact solver's job. Adaptive policies
that react to observed prices are out of scope.

Both are built by one rule (``_instance``) from a price per distribution
site and the mean fees. Every mean, of a price or of a fee distribution, is
taken by :func:`expected_price`: the first error
:func:`~rebalplan.market.distribution_errors` finds is raised, naming its
security and time, and otherwise the exact mean is rounded half-even to the
price scale, once.
"""

from __future__ import annotations

from decimal import Decimal
from itertools import product

from .errors import InstanceTooLargeError
from .market import Broker, DiscreteDistribution, FeeTable, Market, Security, distribution_errors
from .money import EXACT_CONTEXT, round_half_even
from .scenario import MODE_DETERMINISTIC, MODE_EXPECTED, Scenario

JOINT_CAP = 64


def expected_value(dist: DiscreteDistribution) -> Decimal:
    """Probability-weighted mean of the outcomes, exact and unrounded.

    The sum runs in :data:`EXACT_CONTEXT`, whatever the caller's context:
    rounding it to 28 digits first would round a fine-scaled mean twice.
    """
    total = Decimal(0)
    for value, weight in dist.outcomes:
        total = value.fma(weight, total, context=EXACT_CONTEXT)
    return total


def expected_price(dist: DiscreteDistribution, price_scale: int, security: str | None = None,
                   time: int | None = None, fees: bool = False) -> Decimal:
    """Mean outcome of a price (with ``fees``, fee) distribution, rounded half-even to the scale.

    The first error of ``dist`` at ``security, time`` is raised instead.
    """
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
    found, naming its security and time; the securities are read in order,
    each by time, before the fee table.
    """
    scale = scenario.options.price_scale
    means: dict[str, dict[int, Decimal]] = {}
    for sec in scenario.market.securities:
        if sec.distributions:
            sid = sec.security_id
            means[sid] = site = {}
            for t, dist in sorted(sec.distributions.items()):
                site[t] = expected_price(dist, scale, sid, t)
    return _instance(scenario, means, expected_fee_table(scenario.fees, scale))


def enumerate_joint_outcomes(scenario: Scenario, *,
                             cap: int = JOINT_CAP) -> list[tuple[Scenario, Decimal]]:
    """The full joint price-outcome space under independence.

    Every price distribution site expands independently; each combination
    yields a deterministic scenario with the outcome prices as quotes and a
    probability that is the exact product of the outcome weights. Fee
    distributions are not expanded: they enter through their checked
    per-broker means, matching how the expected-mode objective treats them.
    Every distribution is checked as :func:`build_expected_market` checks
    it before the number of outcomes is held to ``cap``.
    """
    fees = build_expected_market(scenario).fees
    sites = [(sec.security_id, t, sec.distributions[t].outcomes)
             for sec in scenario.market.securities for t in sorted(sec.distributions)]
    total = 1
    for *_, outcomes in sites:
        total *= len(outcomes)
        if total > cap:
            raise InstanceTooLargeError(total, cap)
    joint = []
    for combo in product(*(outcomes for *_, outcomes in sites)):
        prob = Decimal(1)
        prices: dict[str, dict[int, Decimal]] = {}
        for (sid, t, _), (value, weight) in zip(sites, combo):
            prob = EXACT_CONTEXT.multiply(prob, weight)
            prices.setdefault(sid, {})[t] = value
        joint.append((_instance(scenario, prices, fees), prob))
    return joint


def _instance(scenario: Scenario, prices: dict[str, dict[int, Decimal]],
              fees: FeeTable) -> Scenario:
    """The deterministic scenario quoting ``prices[security][time]`` at each distribution site.

    ``prices`` maps each security with a distribution to its site prices in
    time order, which follow its quotes. A security without a distribution
    is shared with ``scenario``. The market is a new
    :class:`~rebalplan.market.Market` on the same grid, its securities in
    the same order.
    """
    securities = []
    for sec in scenario.market.securities:
        if sec.distributions:
            sec = Security(sec.security_id, sec.issue_time, sec.maturity,
                           {**sec.quotes, **prices[sec.security_id]}, {})
        securities.append(sec)
    return Scenario(scenario.initial_capital, Market(scenario.market.grid, tuple(securities)),
                    fees, scenario.options._replace(mode=MODE_DETERMINISTIC))


def expected_fee_table(fees: FeeTable, price_scale: int) -> FeeTable:
    """A new table, each fee distribution at its checked, rounded mean; scalar fees pass through."""
    return FeeTable(tuple(
        Broker(broker.broker_id, {
            (sid, t): expected_price(fee, price_scale, sid, t, fees=True)
            if isinstance(fee, DiscreteDistribution) else fee
            for (sid, t), fee in broker.fees.items()})
        for broker in fees.brokers))
