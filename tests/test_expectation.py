import random
from decimal import Context, Decimal, Inexact
from pathlib import Path

import pytest

from rebalplan import (
    Broker,
    DiscreteDistribution,
    FeeTable,
    Market,
    Scenario,
    Security,
    SolverOptions,
    TimeGrid,
    brute_force_solve,
    build_expected_market,
    effective_fee,
    enumerate_joint_outcomes,
    expected_price,
    replay_policy,
    replay_terminal_wealth,
    scenario_from_dict,
    solve_deterministic,
    trace_text,
    validate_scenario,
)
from rebalplan.errors import (
    BadNormalizationError,
    InadmissibleTradeError,
    InstanceTooLargeError,
    NegativeFeeError,
    NonpositivePriceError,
)
from rebalplan.scenario import MODE_EXPECTED

from scenariogen import degenerate_twin, fee_distribution_doc, random_audit_scenario, random_scenario

D = Decimal


def dist(*pairs):
    return DiscreteDistribution(tuple((D(v), D(w)) for v, w in pairs))


def test_expected_price_is_the_weighted_mean():
    assert expected_price(dist(("14.00", "0.5"), ("10.00", "0.5")), 4) == D("12.00")
    assert expected_price(dist(("12.00", "1.0")), 4) == D("12.00")
    assert expected_price(dist(("10.00", "0.25"), ("10.00", "0.75")), 4) == D("10.00")


def test_expected_price_rounds_half_even_once():
    assert expected_price(dist(("10.0001", "0.5"), ("10.0002", "0.5")), 4) == D("10.0002")
    assert expected_price(dist(("10.0002", "0.5"), ("10.0003", "0.5")), 4) == D("10.0002")


def test_a_fine_scaled_mean_is_rounded_once():
    # the exact mean has 29 significant digits: a sum rounded to 28 digits
    # and then to the price scale would lose its last quantum
    outcomes = [["5000000000000000.000000000001", "0.500000"],
                ["0.000000000001", "0.500000"]]
    doc = {
        "initial_capital": "1",
        "times": [1, 2, 3],
        "securities": [{"id": "A", "issue_time": 1, "maturity": 2,
                        "quotes": {"1": "1", "3": "1"},
                        "distributions": {"2": outcomes}}],
        "brokers": [{"id": "b1", "fees": {"A": {"1": "0", "2": outcomes, "3": "0"}}}],
        "options": {"mode": "expected", "price_scale": 12},
    }
    derived = build_expected_market(scenario_from_dict(doc))
    mean = D("2500000000000000.000000000001")
    assert derived.market.security("A").quotes[2] == mean
    assert derived.fees.brokers[0].fees[("A", 2)] == mean


def test_expected_price_validates_first():
    with pytest.raises(BadNormalizationError):
        expected_price(dist(("10.00", "0.6"), ("10.00", "0.5")), 4)


def test_expected_price_stays_within_the_outcome_range():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(1, 4)
        weights = [rng.randint(0, 100) for _ in range(n)]
        total = sum(weights)
        if total == 0:
            continue
        # an exact six-place distribution: each integer weight's share
        # rounded to six places, the remainder on the last
        probs = [(D(w) / total).quantize(D("0.000001")) for w in weights[:-1]]
        probs.append(1 - sum(probs))
        if probs[-1] < 0:
            continue
        prices = [D(rng.randint(100, 2000)) / 100 for _ in range(n)]
        d = DiscreteDistribution(tuple(zip(prices, probs)))
        mean = expected_price(d, 4)
        assert min(prices) <= mean <= max(prices)


def stochastic_scenario():
    grid = TimeGrid((1, 2, 3))
    sec = Security("A", 1, 1, {1: D("10.00")},
                   {2: dist(("14.00", "0.5"), ("10.00", "0.5"))})
    fees = FeeTable((Broker("b1", {("A", 1): D("0.00"), ("A", 2): D("0.00")}),))
    return Scenario(D("100.00"), Market(grid, (sec,)), fees,
                    SolverOptions(mode=MODE_EXPECTED))


def test_build_expected_market_replaces_distributions_with_means():
    derived = build_expected_market(stochastic_scenario())
    sec = derived.market.security("A")
    assert sec.distributions == {}
    assert sec.quotes[2] == D("12.00")
    assert sec.quotes[1] == D("10.00")  # quotes pass through untouched


def test_build_expected_market_is_identity_on_deterministic_scenarios():
    rng = random.Random(77)
    scn = random_scenario(rng)
    expected = scn._replace(options=scn.options._replace(mode=MODE_EXPECTED))
    derived = build_expected_market(expected)
    assert derived.market == scn.market
    assert derived.fees == scn.fees


def test_the_reduction_raises_the_first_distribution_error_where_it_is():
    # a zero price, a negative weight and a wrong sum: the price comes first
    grid = TimeGrid((1, 2, 3))
    outcomes = dist(("0.00", "-0.5"), ("10.00", "1.0"))
    sec = Security("A", 1, 2, {1: D("10.00"), 3: D("10.00")}, {2: outcomes})
    fees = FeeTable((Broker("b1", {("A", t): D("0.10") for t in (1, 2, 3)}),))
    scn = Scenario(D("100.00"), Market(grid, (sec,)), fees, SolverOptions(mode=MODE_EXPECTED))
    with pytest.raises(NonpositivePriceError) as info:
        build_expected_market(scn)
    assert (info.value.price, info.value.security_id, info.value.time) == (D("0.00"), "A", 2)
    with pytest.raises(NonpositivePriceError) as info:
        expected_price(outcomes, 4)
    assert (info.value.security_id, info.value.time) == (None, None)


def one_fee_distribution_scenario(fee, weight):
    """Expected mode, built in code: one broker charges ``((fee, weight),)`` on A at every time."""
    grid = TimeGrid((1, 2, 3))
    sec = Security("A", 1, 2, {1: D("10.0000"), 2: D("11.0000"), 3: D("11.0000")})
    charges = {("A", t): dist((fee, weight)) for t in (1, 2, 3)}
    return Scenario(D("100.0000"), Market(grid, (sec,)), FeeTable((Broker("b1", charges),)),
                    SolverOptions(mode=MODE_EXPECTED))


@pytest.mark.parametrize("reduce", [build_expected_market, solve_deterministic,
                                    enumerate_joint_outcomes])
def test_a_fee_distribution_is_checked_in_the_reduction(reduce):
    # weights summing to 0.5 were averaged to a fee of 0.0500 and solved
    scn = one_fee_distribution_scenario("0.1000", "0.5")
    assert "BadNormalization" in [issue.code for issue in validate_scenario(scn)]
    with pytest.raises(BadNormalizationError) as info:
        reduce(scn)
    assert (info.value.actual_sum, info.value.security_id, info.value.time) == (D("0.5"), "A", 1)


@pytest.mark.parametrize("reduce", [build_expected_market, solve_deterministic,
                                    brute_force_solve, enumerate_joint_outcomes,
                                    pytest.param(lambda scn: enumerate_joint_outcomes(scn, cap=0),
                                                 id="enumerate_joint_outcomes_cap_0")])
def test_a_price_distribution_is_checked_before_any_outcome_is_built(reduce):
    # A's price at time 2 is 12.0000 with weight 0.5 alone; the cap comes after the check
    grid = TimeGrid((1, 2, 3))
    sec = Security("A", 1, 2, {1: D("10.0000"), 3: D("11.0000")}, {2: dist(("12.0000", "0.5"))})
    fees = FeeTable((Broker("b1", {("A", t): D("0.0000") for t in (1, 2, 3)}),))
    scn = Scenario(D("100.0000"), Market(grid, (sec,)), fees, SolverOptions(mode=MODE_EXPECTED))
    assert "BadNormalization" in [issue.code for issue in validate_scenario(scn)]
    with pytest.raises(BadNormalizationError) as info:
        reduce(scn)
    assert (info.value.actual_sum, info.value.security_id, info.value.time) == (D("0.5"), "A", 2)
    assert str(info.value) == "distribution weights sum to 0.5, not 1 at (A, t=2)"


def test_a_negative_fee_outcome_is_refused_in_the_reduction():
    with pytest.raises(NegativeFeeError) as info:
        build_expected_market(one_fee_distribution_scenario("-0.1000", "1"))
    assert (info.value.fee, info.value.security_id, info.value.time) == (D("-0.1000"), "A", 1)


def test_a_fee_distribution_at_zero_is_averaged():
    # fee outcomes need only be non-negative, where price outcomes must be positive
    derived = build_expected_market(one_fee_distribution_scenario("0.0000", "1"))
    assert derived.fees.brokers[0].fees[("A", 1)] == D("0.0000")


def test_expected_fees_are_averaged_then_minimized():
    grid = TimeGrid((1, 2))
    sec = Security("A", 1, 1, {1: D("10.00"), 2: D("10.00")}, {})
    b1 = Broker("b1", {("A", 1): dist(("0.40", "0.5"), ("0.60", "0.5"))})
    b2 = Broker("b2", {("A", 1): D("0.45")})
    scn = Scenario(D("100.00"), Market(grid, (sec,)), FeeTable((b1, b2)),
                   SolverOptions(mode=MODE_EXPECTED))
    derived = build_expected_market(scn)
    assert derived.fees.brokers[0].fees[("A", 1)] == D("0.50")
    assert effective_fee(derived.market.security("A"), 1, derived.fees) == D("0.45")


def test_the_reduction_keeps_each_broker_map_in_key_order():
    scn = scenario_from_dict(fee_distribution_doc("expected"))
    b1, b2 = build_expected_market(scn).fees.brokers
    assert list(b1.fees.items()) == list(scn.fees.brokers[0].fees.items())
    assert [(key, str(fee)) for key, fee in b2.fees.items()] == \
        [(("A", t), "0.1000") for t in (1, 2, 3)]


def test_solve_stochastic_buys_into_positive_expected_drift():
    policy, _ = solve_deterministic(build_expected_market(stochastic_scenario()))
    value = policy.terminal_wealth
    assert value == D("120.00")
    assert policy.trades == ((1, {"A": 10}), (2, {"A": -10}))
    # brute force on the expected price of 12.00, zero fees
    best = max(D("100.00") - D("10.00") * h + D("12.00") * h for h in range(0, 11))
    assert value == best


def test_solve_stochastic_reduces_to_deterministic_on_degenerate_inputs():
    rng = random.Random(99)
    for _ in range(10):
        scn = random_scenario(rng)
        det_policy, _ = solve_deterministic(scn)
        sto_policy, _ = solve_deterministic(build_expected_market(degenerate_twin(scn)))
        sto_value = sto_policy.terminal_wealth
        assert sto_value == det_policy.terminal_wealth
        assert sto_policy.trades == det_policy.trades


def test_the_degenerate_twin_of_a_stochastic_scenario_is_the_same_instance():
    # the twin keeps the distributions it is given and wraps only the quotes
    rng = random.Random(11)
    for _ in range(60):
        scn = random_audit_scenario(rng)
        assert build_expected_market(degenerate_twin(scn)) == build_expected_market(scn)


def test_the_solver_reduces_an_expected_scenario_as_the_oracle_does():
    scn = scenario_from_dict(fee_distribution_doc("expected"))
    policy, _ = solve_deterministic(scn)
    assert policy.trades == ((1, {"A": 9}), (2, {"A": -9}))
    assert policy.terminal_wealth == D("107.2000")
    assert brute_force_solve(scn) == (policy, policy.terminal_wealth)


def test_replay_and_trace_price_the_instance_the_solver_solves():
    # b2's fee distribution is only seen at its mean: a replay or trace that
    # skipped it would charge b1's 0.50 and end on 100.00
    scn = scenario_from_dict(fee_distribution_doc("expected"))
    policy, _ = solve_deterministic(scn)
    assert replay_terminal_wealth(scn, policy) == policy.terminal_wealth
    assert replay_policy(scn, policy)[-1].cash == policy.terminal_wealth
    assert trace_text(scn, policy) == trace_text(build_expected_market(scn), policy)


def test_zero_drift_ties_break_to_no_trading():
    base = stochastic_scenario()
    sec = base.market.security("A")
    flat = Security("A", 1, 1, {1: D("10.00")},
                    {2: dist(("12.00", "0.5"), ("8.00", "0.5"))})
    scn = base._replace(market=Market(base.market.grid, (flat,)))
    policy, _ = solve_deterministic(build_expected_market(scn))
    value = policy.terminal_wealth
    assert value == D("100.00")
    assert policy.trades == ((1, {}), (2, {}))
    assert sec.quotes[1] == D("10.00")


def test_the_mean_plan_expects_no_more_than_perfect_foresight(monkeypatch):
    # EEV <= WS over batch seed 1's expected-mode documents within JOINT_CAP:
    # EEV is the mean plan replayed on each joint outcome, WS each outcome's
    # own optimum, both weighted by the outcome's probability, exactly
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    exact = Context(prec=200, traps=[Inexact])
    within = admissible = 0
    for doc in workloads.batch(1):
        if doc["options"]["mode"] != MODE_EXPECTED:
            continue
        scn = scenario_from_dict(doc)
        try:
            outcomes = enumerate_joint_outcomes(scn)
        except InstanceTooLargeError:
            continue
        within += 1
        plan, _ = solve_deterministic(scn)
        eev = ws = D(0)
        for outcome, prob in outcomes:
            ws = exact.add(ws, exact.multiply(prob, solve_deterministic(outcome)[0].terminal_wealth))
            if eev is not None:
                try:
                    eev = exact.add(eev, exact.multiply(prob, replay_terminal_wealth(outcome, plan)))
                except InadmissibleTradeError:
                    eev = None  # the plan is not admissible in every outcome
        if eev is not None:
            admissible += 1
            assert eev <= ws, doc
    assert (within, admissible) == (800, 781)
