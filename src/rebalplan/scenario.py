"""Problem instances: the scenario file format, loading, and validation.

A scenario is UTF-8 JSON. All monetary and probability values are decimal
strings (for example ``"10.5000"``) so files survive editing and diffing
without picking up binary-float noise. Field layout:

    {
      "initial_capital": "100.0000",
      "times": [1, 2, 3],
      "securities": [
        {"id": "A", "issue_time": 1, "maturity": 2,
         "quotes": {"1": "10.0000", "2": "11.5000", "3": "12.0000"},
         "distributions": {"2": [["14.0000", "0.500000"],
                                 ["10.0000", "0.500000"]]}}
      ],
      "brokers": [
        {"id": "alpha", "fees": {"A": {"1": "0.5000", "2": "0.5000",
                                       "3": "0.5000"}}}
      ],
      "options": {"mode": "deterministic", ...}
    }

A fee may also be a list of [value, probability] pairs (expected mode only).
Loading is all-or-nothing: every problem found is reported at once and no
partially-valid scenario is ever returned.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from decimal import Decimal
from pathlib import Path

from .errors import (
    BadNormalizationError,
    NegativeWeightError,
    NonpositivePriceError,
    RebalplanError,
    ScenarioParseError,
    ScenarioValidationError,
    ValidationIssue,
)
from .ledger import LedgerState, TradeRules
from .market import (
    Broker,
    DiscreteDistribution,
    FeeTable,
    Market,
    Security,
    TimeGrid,
    is_active,
    validate_distribution,
)
from .money import (
    PRICE_SCALE_DEFAULT,
    PROB_SCALE_DEFAULT,
    FixedPointError,
    format_decimal,
    parse_decimal,
)

MODE_DETERMINISTIC = "deterministic"
MODE_EXPECTED = "expected"
MODES = (MODE_DETERMINISTIC, MODE_EXPECTED)

MAX_STATES_DEFAULT = 1_000_000


@dataclass(frozen=True)
class SolverOptions:
    mode: str = MODE_DETERMINISTIC
    lot_size: Decimal = Decimal(1)
    allow_short: bool = False
    short_cap: int = 0
    hold_to_end: bool = False
    max_states: int = MAX_STATES_DEFAULT
    price_scale: int = PRICE_SCALE_DEFAULT
    prob_scale: int = PROB_SCALE_DEFAULT


@dataclass(frozen=True)
class Scenario:
    """A full problem instance ready for the solvers."""

    initial_capital: Decimal
    market: Market
    fees: FeeTable
    options: SolverOptions

    def trade_rules(self) -> TradeRules:
        return TradeRules(
            lot_size=self.options.lot_size,
            allow_short=self.options.allow_short,
            short_cap=self.options.short_cap,
        )

    def initial_state(self) -> LedgerState:
        return LedgerState(0, {}, self.initial_capital)

    def with_mode(self, mode: str) -> "Scenario":
        return replace(self, options=replace(self.options, mode=mode))


def load_scenario(path: str | Path, mode: str | None = None) -> Scenario:
    """Parse and fully validate a scenario file.

    ``mode`` overrides the file's solver mode before validation, so a file
    that only makes sense in one mode fails loudly when forced into the
    other.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(exc.msg, exc.lineno, exc.colno) from exc
    return scenario_from_dict(data, mode=mode)


def dump_scenario(scenario: Scenario) -> str:
    """Canonical JSON text; loading it back yields an equal Scenario."""
    return json.dumps(scenario_to_dict(scenario), indent=2) + "\n"


# ---------------------------------------------------------------------------
# parsing


def scenario_from_dict(data: object, mode: str | None = None) -> Scenario:
    issues: list[ValidationIssue] = []
    if not isinstance(data, dict):
        raise ScenarioValidationError(
            [ValidationIssue("BadDocument", "top level must be a JSON object")]
        )
    if mode is not None and mode not in MODES:
        raise ScenarioValidationError(
            [ValidationIssue("BadOption", f"mode must be one of {MODES}, got {mode!r}")]
        )

    options = _parse_options(data.get("options", {}), issues)
    price_scale = options.price_scale
    prob_scale = options.prob_scale

    capital = Decimal(0)
    try:
        capital = parse_decimal(_require_str(data, "initial_capital"), price_scale,
                                what="initial_capital")
    except (FixedPointError, _FieldError) as exc:
        issues.append(ValidationIssue("BadCapital", str(exc)))

    grid = None
    times = data.get("times")
    if (not isinstance(times, list) or not times
            or any(not isinstance(t, int) or isinstance(t, bool) for t in times)):
        issues.append(ValidationIssue("BadGrid", "times must be a non-empty list of integers"))
    else:
        try:
            grid = TimeGrid(tuple(times))
        except ValueError as exc:
            issues.append(ValidationIssue("BadGrid", str(exc)))

    securities = _parse_securities(data.get("securities", []), price_scale, prob_scale, issues)
    brokers = _parse_brokers(data.get("brokers", []), price_scale, prob_scale, issues)

    if issues or grid is None:
        raise ScenarioValidationError(issues)

    try:
        market = Market(grid, tuple(sorted(securities, key=lambda s: s.security_id)))
    except ValueError as exc:
        raise ScenarioValidationError([ValidationIssue("DuplicateId", str(exc))]) from exc

    scenario = Scenario(
        initial_capital=capital,
        market=market,
        fees=FeeTable(tuple(sorted(brokers, key=lambda b: b.broker_id))),
        options=options,
    )
    if mode is not None:
        scenario = scenario.with_mode(mode)
    semantic = validate_scenario(scenario)
    if semantic:
        raise ScenarioValidationError(semantic)
    return scenario


class _FieldError(RebalplanError):
    pass


def _require_str(mapping: dict, key: str) -> str:
    value = mapping.get(key)
    if not isinstance(value, str):
        raise _FieldError(f"{key} must be a decimal string, got {value!r}")
    return value


def _parse_options(raw: object, issues: list[ValidationIssue]) -> SolverOptions:
    if not isinstance(raw, dict):
        issues.append(ValidationIssue("BadOption", "options must be an object"))
        return SolverOptions()
    known = {
        "mode", "lot_size", "allow_short", "short_cap", "hold_to_end",
        "max_states", "price_scale", "prob_scale",
    }
    for key in raw:
        if key not in known:
            issues.append(ValidationIssue("BadOption", f"unknown option {key!r}"))

    def bad(msg: str) -> None:
        issues.append(ValidationIssue("BadOption", msg))

    mode = raw.get("mode", MODE_DETERMINISTIC)
    if mode not in MODES:
        bad(f"mode must be one of {MODES}, got {mode!r}")
        mode = MODE_DETERMINISTIC

    price_scale = raw.get("price_scale", PRICE_SCALE_DEFAULT)
    if not _is_int(price_scale) or not 0 <= price_scale <= 12:
        bad(f"price_scale must be an integer in 0..12, got {price_scale!r}")
        price_scale = PRICE_SCALE_DEFAULT
    prob_scale = raw.get("prob_scale", PROB_SCALE_DEFAULT)
    if not _is_int(prob_scale) or not 0 <= prob_scale <= 12:
        bad(f"prob_scale must be an integer in 0..12, got {prob_scale!r}")
        prob_scale = PROB_SCALE_DEFAULT

    lot_size = Decimal(1)
    raw_lot = raw.get("lot_size", "1")
    try:
        lot_size = parse_decimal(raw_lot, price_scale, what="lot_size")
        if lot_size <= 0:
            bad(f"lot_size must be positive, got {raw_lot!r}")
            lot_size = Decimal(1)
    except FixedPointError as exc:
        bad(str(exc))

    allow_short = raw.get("allow_short", False)
    if not isinstance(allow_short, bool):
        bad(f"allow_short must be a boolean, got {allow_short!r}")
        allow_short = False
    short_cap = raw.get("short_cap", 0)
    if not _is_int(short_cap) or short_cap < 0:
        bad(f"short_cap must be a non-negative integer, got {short_cap!r}")
        short_cap = 0
    hold_to_end = raw.get("hold_to_end", False)
    if not isinstance(hold_to_end, bool):
        bad(f"hold_to_end must be a boolean, got {hold_to_end!r}")
        hold_to_end = False
    max_states = raw.get("max_states", MAX_STATES_DEFAULT)
    if not _is_int(max_states) or max_states < 1:
        bad(f"max_states must be a positive integer, got {max_states!r}")
        max_states = MAX_STATES_DEFAULT

    return SolverOptions(
        mode=mode, lot_size=lot_size, allow_short=allow_short, short_cap=short_cap,
        hold_to_end=hold_to_end, max_states=max_states,
        price_scale=price_scale, prob_scale=prob_scale,
    )


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_distribution(raw: object, price_scale: int, prob_scale: int,
                        where: str) -> DiscreteDistribution:
    if not isinstance(raw, list) or not raw:
        raise _FieldError(f"{where}: distribution must be a non-empty list of pairs")
    outcomes = []
    for pair in raw:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise _FieldError(f"{where}: each outcome must be a [value, probability] pair")
        value = parse_decimal(pair[0], price_scale, what=f"{where} outcome value")
        prob = parse_decimal(pair[1], prob_scale, what=f"{where} outcome probability")
        outcomes.append((value, prob))
    return DiscreteDistribution(tuple(outcomes))


def _parse_securities(raw: object, price_scale: int, prob_scale: int,
                      issues: list[ValidationIssue]) -> list[Security]:
    securities: list[Security] = []
    if not isinstance(raw, list):
        issues.append(ValidationIssue("BadSecurity", "securities must be a list"))
        return securities
    for entry in raw:
        if not isinstance(entry, dict):
            issues.append(ValidationIssue("BadSecurity", f"security entry must be an object: {entry!r}"))
            continue
        sid = entry.get("id")
        if not isinstance(sid, str) or not sid:
            issues.append(ValidationIssue("BadSecurity", f"security id must be a non-empty string: {sid!r}"))
            continue
        issue_time = entry.get("issue_time")
        maturity = entry.get("maturity")
        if not _is_int(issue_time) or not _is_int(maturity) or maturity < 0:
            issues.append(ValidationIssue(
                "BadWindow", "issue_time must be an integer and maturity a non-negative integer",
                security=sid))
            continue
        quote_map = entry.get("quotes") or {}
        dist_map = entry.get("distributions") or {}
        if not isinstance(quote_map, dict) or not isinstance(dist_map, dict):
            issues.append(ValidationIssue(
                "BadSecurity", "quotes and distributions must be objects keyed by time",
                security=sid))
            continue
        quotes: dict[int, Decimal] = {}
        for key, value in quote_map.items():
            t = _parse_time_key(key, sid, issues)
            if t is None:
                continue
            try:
                quotes[t] = parse_decimal(value, price_scale, what="quote")
            except FixedPointError as exc:
                issues.append(ValidationIssue("BadValue", str(exc), security=sid, time=t))
        dists: dict[int, DiscreteDistribution] = {}
        for key, value in dist_map.items():
            t = _parse_time_key(key, sid, issues)
            if t is None:
                continue
            try:
                dists[t] = _parse_distribution(value, price_scale, prob_scale, "distribution")
            except (FixedPointError, _FieldError) as exc:
                issues.append(ValidationIssue("BadValue", str(exc), security=sid, time=t))
        securities.append(Security(sid, issue_time, maturity, quotes, dists))
    return securities


def _parse_time_key(key: object, sid: str, issues: list[ValidationIssue]) -> int | None:
    try:
        return int(key)  # JSON object keys are strings
    except (TypeError, ValueError):
        issues.append(ValidationIssue("UnknownTime", f"time key {key!r} is not an integer",
                                      security=sid))
        return None


def _parse_brokers(raw: object, price_scale: int, prob_scale: int,
                   issues: list[ValidationIssue]) -> list[Broker]:
    brokers: list[Broker] = []
    if not isinstance(raw, list):
        issues.append(ValidationIssue("BadBroker", "brokers must be a list"))
        return brokers
    seen: set[str] = set()
    for entry in raw:
        if not isinstance(entry, dict):
            issues.append(ValidationIssue("BadBroker", f"broker entry must be an object: {entry!r}"))
            continue
        bid = entry.get("id")
        if not isinstance(bid, str) or not bid:
            issues.append(ValidationIssue("BadBroker", f"broker id must be a non-empty string: {bid!r}"))
            continue
        if bid in seen:
            issues.append(ValidationIssue("DuplicateId", f"duplicate broker id {bid!r}", broker=bid))
            continue
        seen.add(bid)
        fees: dict[tuple[str, int], Decimal | DiscreteDistribution] = {}
        fee_map = entry.get("fees") or {}
        if not isinstance(fee_map, dict):
            issues.append(ValidationIssue("BadBroker", "fees must be an object", broker=bid))
            fee_map = {}
        for sid, by_time in fee_map.items():
            if not isinstance(by_time, dict):
                issues.append(ValidationIssue("BadBroker", f"fees for {sid!r} must be an object",
                                              broker=bid, security=sid))
                continue
            for key, value in by_time.items():
                t = _parse_time_key(key, sid, issues)
                if t is None:
                    continue
                try:
                    if isinstance(value, list):
                        fees[(sid, t)] = _parse_distribution(value, price_scale, prob_scale,
                                                             "fee distribution")
                    else:
                        fees[(sid, t)] = parse_decimal(value, price_scale, what="fee")
                except (FixedPointError, _FieldError) as exc:
                    issues.append(ValidationIssue("BadValue", str(exc),
                                                  security=sid, time=t, broker=bid))
        brokers.append(Broker(bid, fees))
    return brokers


# ---------------------------------------------------------------------------
# semantic validation


def validate_scenario(scenario: Scenario) -> list[ValidationIssue]:
    """All semantic problems with a structurally well-formed scenario.

    Mode-dependent: deterministic mode insists on quotes and scalar fees at
    every active time; expected mode accepts distributions in either place.
    """
    issues: list[ValidationIssue] = []
    grid = scenario.market.grid
    deterministic = scenario.options.mode == MODE_DETERMINISTIC

    if scenario.initial_capital < 0:
        issues.append(ValidationIssue(
            "BadCapital", f"initial capital must be non-negative, got {scenario.initial_capital}"))
    if len(grid) < 2:
        issues.append(ValidationIssue(
            "BadGrid", "a scenario needs at least two grid points (one decision, one horizon end)"))

    on_grid = set(grid.points)
    for sec in scenario.market.securities:
        sid = sec.security_id
        if sec.issue_time not in on_grid:
            issues.append(ValidationIssue(
                "BadWindow", f"issue_time {sec.issue_time} is not a grid point", security=sid))
        if sec.window_end > grid.end:
            issues.append(ValidationIssue(
                "BadWindow",
                f"circulation window ends at {sec.window_end}, past the horizon {grid.end}",
                security=sid))
        for t in list(sec.quotes) + list(sec.distributions):
            if t not in on_grid:
                issues.append(ValidationIssue(
                    "UnknownTime", f"entry at time {t} is not a grid point", security=sid, time=t))
        for t, quote in sec.quotes.items():
            if quote <= 0:
                issues.append(ValidationIssue(
                    "NonpositivePrice", f"quote {quote} must be strictly positive",
                    security=sid, time=t))
        for t, dist in sec.distributions.items():
            if t in sec.quotes:
                issues.append(ValidationIssue(
                    "BothQuoteAndDistribution",
                    "a time may carry a quote or a distribution, not both",
                    security=sid, time=t))
            try:
                validate_distribution(dist)
            except BadNormalizationError as exc:
                issues.append(ValidationIssue(
                    "BadNormalization", f"weights sum to {exc.actual_sum}", security=sid, time=t))
            except NonpositivePriceError as exc:
                issues.append(ValidationIssue(
                    "NonpositivePrice", str(exc), security=sid, time=t))
            except NegativeWeightError as exc:
                issues.append(ValidationIssue(
                    "NegativeWeight", str(exc), security=sid, time=t))
        for t in grid.points:
            if not is_active(sec, t):
                continue
            has_quote = t in sec.quotes
            has_dist = t in sec.distributions
            if deterministic and not has_quote:
                issues.append(ValidationIssue(
                    "QuoteMissing", "deterministic mode needs a quote at every active time",
                    security=sid, time=t))
            elif not has_quote and not has_dist:
                issues.append(ValidationIssue(
                    "QuoteMissing", "no quote or distribution at an active time",
                    security=sid, time=t))

    known_ids = {s.security_id for s in scenario.market.securities}
    for broker in scenario.fees.brokers:
        for (sid, t), fee in sorted(broker.fees.items()):
            if sid not in known_ids:
                issues.append(ValidationIssue(
                    "UnknownSecurity", f"fee for unknown security {sid!r}",
                    broker=broker.broker_id, security=sid, time=t))
                continue
            if t not in on_grid:
                issues.append(ValidationIssue(
                    "UnknownTime", f"fee at time {t} is not a grid point",
                    broker=broker.broker_id, security=sid, time=t))
            if isinstance(fee, Decimal):
                if fee < 0:
                    issues.append(ValidationIssue(
                        "NegativeFee", f"fee {fee} must be non-negative",
                        broker=broker.broker_id, security=sid, time=t))
            else:
                issues.extend(_check_fee_distribution(fee, broker.broker_id, sid, t))

    for sec in scenario.market.securities:
        for t in grid.points:
            if not is_active(sec, t):
                continue
            covered = False
            for broker in scenario.fees.brokers:
                fee = broker.fees.get((sec.security_id, t))
                if isinstance(fee, Decimal) or (fee is not None and not deterministic):
                    covered = True
                    break
            if not covered:
                issues.append(ValidationIssue(
                    "FeeMissing",
                    "no broker quotes a usable fee at an active time"
                    + (" (deterministic mode needs scalar fees)" if deterministic else ""),
                    security=sec.security_id, time=t))

    return issues


def _check_fee_distribution(dist: DiscreteDistribution, bid: str, sid: str,
                            t: int) -> list[ValidationIssue]:
    issues = []
    for value, weight in dist.outcomes:
        if value < 0:
            issues.append(ValidationIssue(
                "NegativeFee", f"fee outcome {value} must be non-negative",
                broker=bid, security=sid, time=t))
        if weight < 0:
            issues.append(ValidationIssue(
                "NegativeWeight", f"weight {weight} must be non-negative",
                broker=bid, security=sid, time=t))
    total = dist.weight_sum()
    if total != 1:
        issues.append(ValidationIssue(
            "BadNormalization", f"fee weights sum to {total}", broker=bid, security=sid, time=t))
    return issues


# ---------------------------------------------------------------------------
# canonical dump


def scenario_to_dict(scenario: Scenario) -> dict:
    opts = scenario.options
    money = lambda d: format_decimal(d, opts.price_scale)  # noqa: E731
    prob = lambda d: format_decimal(d, opts.prob_scale)  # noqa: E731

    securities = []
    for sec in scenario.market.securities:
        entry: dict = {
            "id": sec.security_id,
            "issue_time": sec.issue_time,
            "maturity": sec.maturity,
        }
        if sec.quotes:
            entry["quotes"] = {str(t): money(q) for t, q in sorted(sec.quotes.items())}
        if sec.distributions:
            entry["distributions"] = {
                str(t): [[money(v), prob(w)] for v, w in d.outcomes]
                for t, d in sorted(sec.distributions.items())
            }
        securities.append(entry)

    brokers = []
    for broker in scenario.fees.brokers:
        by_security: dict[str, dict[str, object]] = {}
        for (sid, t), fee in sorted(broker.fees.items()):
            cell: object
            if isinstance(fee, Decimal):
                cell = money(fee)
            else:
                cell = [[money(v), prob(w)] for v, w in fee.outcomes]
            by_security.setdefault(sid, {})[str(t)] = cell
        brokers.append({"id": broker.broker_id, "fees": by_security})

    return {
        "initial_capital": money(scenario.initial_capital),
        "times": list(scenario.market.grid.points),
        "securities": securities,
        "brokers": brokers,
        "options": {
            "mode": opts.mode,
            "lot_size": money(opts.lot_size),
            "allow_short": opts.allow_short,
            "short_cap": opts.short_cap,
            "hold_to_end": opts.hold_to_end,
            "max_states": opts.max_states,
            "price_scale": opts.price_scale,
            "prob_scale": opts.prob_scale,
        },
    }
