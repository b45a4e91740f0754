"""Problem instances: the scenario file format, loading, and validation.

A scenario is UTF-8 JSON. Every amount and probability is a decimal string
so files survive editing and diffing without picking up binary-float noise:
an optional ``-``, ASCII digits and an optional ``.`` with more digits, as in
``"10.5000"``, and nothing else, ``"-0"`` reading as zero
(:func:`~rebalplan.money.parse_decimal`). Field layout:

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

A fee may also be a list of [value, probability] pairs. Only expected mode
reads it, at its mean; validation reports one in deterministic mode as a
``BadValue`` issue rather than let the solver skip it.
Loading is all-or-nothing: every problem found is reported at once and no
partially-valid scenario is ever returned. A repeated security or broker id
is one more issue, and the first entry's own problems are still reported;
so is every way a price or fee distribution breaks the rule of
:func:`~rebalplan.market.distribution_errors`. A file that repeats a key
within one JSON object does not load.

A process that loads many scenarios holds one object for each value they
repeat. Amounts come from :func:`~rebalplan.money.parse_decimal`'s table.
Security and broker ids, the entries' and the fee maps' alike, are
interned with :func:`sys.intern`, so the interpreter's table holds one
copy of each.
"""

from __future__ import annotations

import json
import sys
from decimal import Decimal
from functools import partial
from pathlib import Path
from typing import NamedTuple

from .errors import (
    RebalplanError,
    ScenarioParseError,
    ScenarioValidationError,
    ValidationIssue,
)
from .ledger import LedgerState
from .market import (
    Broker,
    Deals,
    DiscreteDistribution,
    FeeTable,
    Market,
    Security,
    TimeGrid,
    deal_book,
    distribution_errors,
    is_active,
)
from .money import MAX_SCALE, FixedPointError, format_decimal, parse_decimal

MODE_DETERMINISTIC = "deterministic"
MODE_EXPECTED = "expected"
MODES = (MODE_DETERMINISTIC, MODE_EXPECTED)


class SolverOptions(NamedTuple):
    mode: str = MODE_DETERMINISTIC
    lot_size: Decimal = Decimal(1)
    allow_short: bool = False
    short_cap: int = 0
    hold_to_end: bool = False
    max_states: int = 1_000_000
    price_scale: int = 4
    prob_scale: int = 6


class Scenario(NamedTuple):
    """A full problem instance ready for the solvers."""

    initial_capital: Decimal
    market: Market
    fees: FeeTable
    options: SolverOptions

    def deal_book(self) -> tuple[Deals, ...]:
        """The :func:`~rebalplan.market.deal_book` for trading this instance as it is.

        Its floor is ``-short_cap`` lots with shorting on, else 0; its last
        page is a forced sale unless ``hold_to_end`` is set.
        """
        options = self.options
        floor = -options.short_cap if options.allow_short else 0
        return deal_book(self.market, self.fees, options.lot_size, floor,
                         not options.hold_to_end)

    def initial_state(self) -> LedgerState:
        return LedgerState(0, {}, self.initial_capital)


def load_scenario(path: str | Path, mode: str | None = None) -> Scenario:
    """Parse and fully validate a scenario file.

    ``mode`` overrides the file's solver mode before validation, so a file
    that only makes sense in one mode fails loudly when forced into the
    other. A file that is not UTF-8 JSON, that repeats a key within one
    object, or that the JSON parser cannot hold (nested too deep, an integer
    too long to convert), raises :class:`ScenarioParseError`.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    try:
        data = json.loads(text, object_pairs_hook=_object_without_repeats)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(exc.msg, exc.lineno, exc.colno) from exc
    except RecursionError as exc:
        raise ScenarioParseError("JSON nested too deeply to parse") from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise ScenarioParseError(str(exc)) from exc
    return scenario_from_dict(data, mode=mode)


def _object_without_repeats(pairs: list[tuple[str, object]]) -> dict:
    # json.loads keeps the last of a repeated key: a second "2" under quotes
    # would replace the first without a word
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ScenarioParseError(f"repeated key {key!r} in a JSON object")
            seen.add(key)
    return obj


def dump_scenario(scenario: Scenario) -> str:
    """Canonical JSON text; loading it back yields an equal Scenario.

    That holds where its brokers are in id order, as every loaded scenario's are.
    """
    return json.dumps(scenario_to_dict(scenario), indent=2) + "\n"


# ---------------------------------------------------------------------------
# parsing


def scenario_from_dict(data: object, mode: str | None = None) -> Scenario:
    issues: list[ValidationIssue] = []
    if not isinstance(data, dict):
        raise ScenarioValidationError(
            [ValidationIssue("BadDocument", "top level must be a JSON object")]
        )
    if mode is not None:
        _parse_options({"mode": mode}, issues)
        if issues:
            raise ScenarioValidationError(issues)

    options = _parse_options(data.get("options", {}), issues)
    if mode is not None:
        options = options._replace(mode=mode)
    price_scale = options.price_scale
    prob_scale = options.prob_scale

    capital = Decimal(0)
    try:
        capital = parse_decimal(data.get("initial_capital"), price_scale, what="initial_capital")
    except FixedPointError as exc:
        issues.append(ValidationIssue("BadCapital", str(exc)))

    grid = None
    times = data.get("times")
    if not isinstance(times, list) or not times or not all(map(_is_int, times)):
        issues.append(ValidationIssue("BadGrid", "times must be a non-empty list of integers"))
    else:
        try:
            grid = TimeGrid(tuple(times))
        except ValueError as exc:
            issues.append(ValidationIssue("BadGrid", str(exc)))

    securities = _parse_securities(data.get("securities", []), price_scale, prob_scale, issues)
    brokers = _parse_brokers(data.get("brokers", []), price_scale, prob_scale, issues)

    # a repeated id only drops the repeat, so what was read is still a whole
    # scenario, and its own problems are reported along with the repeat
    if grid is None or (issues and any(issue.code != "DuplicateId" for issue in issues)):
        raise ScenarioValidationError(issues)

    scenario = Scenario(
        initial_capital=capital,
        market=Market(grid, tuple(securities)),
        fees=FeeTable(tuple(sorted(brokers, key=lambda b: b.broker_id))),
        options=options,
    )
    issues += validate_scenario(scenario)
    if issues:
        raise ScenarioValidationError(issues)
    return scenario


class _FieldError(RebalplanError):
    pass


_DEFAULTS = SolverOptions()._asdict()


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _lot_size(value: object, options: dict) -> Decimal | None:
    lot = parse_decimal(value, options["price_scale"], what="lot_size")
    return lot if lot > 0 else None


def _scale(value: object, _: dict) -> int | None:
    return value if _is_int(value) and 0 <= value <= MAX_SCALE else None


# One rule per option, in the order its issues are reported: what the value
# must be, and a reader given the options read so far, which returns the
# value or None if it is not that.
_OPTION_RULES = (
    ("mode", f"one of {MODES}", lambda v, _: v if v in MODES else None),
    ("price_scale", f"an integer in 0..{MAX_SCALE}", _scale),
    ("prob_scale", f"an integer in 0..{MAX_SCALE}", _scale),
    ("lot_size", "positive", _lot_size),
    ("allow_short", "a boolean", lambda v, _: v if isinstance(v, bool) else None),
    ("short_cap", "a non-negative integer", lambda v, _: v if _is_int(v) and v >= 0 else None),
    ("hold_to_end", "a boolean", lambda v, _: v if isinstance(v, bool) else None),
    ("max_states", "a positive integer", lambda v, _: v if _is_int(v) and v >= 1 else None),
)


def _parse_options(raw: object, issues: list[ValidationIssue]) -> SolverOptions:
    """The options of ``raw``: each entry left out, or found bad, is its default."""
    if not isinstance(raw, dict):
        issues.append(ValidationIssue("BadOption", "options must be an object"))
        return SolverOptions()
    for key in raw:
        if key not in _DEFAULTS:
            issues.append(ValidationIssue("BadOption", f"unknown option {key!r}"))
    options = _DEFAULTS.copy()
    for name, what, read in _OPTION_RULES:
        value = raw.get(name, options[name])
        try:
            accepted = read(value, options)
        except FixedPointError as exc:
            issues.append(ValidationIssue("BadOption", str(exc)))
            continue
        if accepted is None:
            issues.append(ValidationIssue("BadOption", f"{name} must be {what}, got {value!r}"))
        else:
            options[name] = accepted
    return SolverOptions._make(options.values())


def _shared_id(eid: object) -> object:
    """``eid`` interned, where it is a plain string."""
    return sys.intern(eid) if type(eid) is str else eid


def _encodes(text: str) -> bool:
    """True iff ``text`` can be written as UTF-8: a JSON escape can hold a lone surrogate."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


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


def _entries(raw: object, plural: str, kind: str, code: str,
             issues: list[ValidationIssue]) -> dict[str, dict]:
    """The entries of a securities or brokers list by id, the first of each id.

    A repeated id is reported in the ``kind`` context, other problems as ``code``.
    """
    by_id: dict[str, dict] = {}
    if not isinstance(raw, list):
        issues.append(ValidationIssue(code, f"{plural} must be a list"))
        return by_id
    for entry in raw:
        if not isinstance(entry, dict):
            issues.append(ValidationIssue(code, f"{kind} entry must be an object: {entry!r}"))
            continue
        eid = entry.get("id")
        if not isinstance(eid, str) or not eid:
            issues.append(ValidationIssue(code, f"{kind} id must be a non-empty string: {eid!r}"))
        elif not _encodes(eid):
            issues.append(ValidationIssue(code, f"{kind} id must be UTF-8 text: {eid!r}"))
        elif eid in by_id:
            issues.append(ValidationIssue("DuplicateId", f"duplicate {kind} id {eid!r}",
                                          **{kind: eid}))
        else:
            by_id[_shared_id(eid)] = entry
    return by_id


def _parse_securities(raw: object, price_scale: int, prob_scale: int,
                      issues: list[ValidationIssue]) -> list[Security]:
    securities: list[Security] = []
    quote = partial(parse_decimal, scale=price_scale, what="quote")
    dist = partial(_parse_distribution, price_scale=price_scale, prob_scale=prob_scale,
                   where="distribution")
    for sid, entry in _entries(raw, "securities", "security", "BadSecurity", issues).items():
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
        quotes = _by_time(quote_map, quote, issues, sid)
        dists = _by_time(dist_map, dist, issues, sid)
        securities.append(Security(sid, issue_time, maturity, quotes, dists))
    return securities


def _by_time(raw: dict, read, issues: list[ValidationIssue], sid: str,
             bid: str | None = None) -> dict[int, object]:
    """``raw``'s values read by ``read`` and keyed by time, less each one that is an issue."""
    by_time = {}
    for key, value in raw.items():
        # JSON object keys are strings; only int's own spelling names a time,
        # so "02" or " 2" cannot load as, and overwrite, the entry at "2"
        try:
            t = int(key)
        except (TypeError, ValueError):
            t = None
        if t is None or str(t) != key:
            issues.append(ValidationIssue(
                "UnknownTime", f"time key {key!r} is not an integer in canonical form",
                security=sid, broker=bid))
            continue
        try:
            by_time[t] = read(value)
        except (FixedPointError, _FieldError) as exc:
            issues.append(ValidationIssue("BadValue", str(exc), security=sid, time=t, broker=bid))
    return by_time


def _parse_brokers(raw: object, price_scale: int, prob_scale: int,
                   issues: list[ValidationIssue]) -> list[Broker]:
    brokers: list[Broker] = []

    def fee(value: object) -> Decimal | DiscreteDistribution:
        if isinstance(value, list):
            return _parse_distribution(value, price_scale, prob_scale, "fee distribution")
        return parse_decimal(value, price_scale, what="fee")

    for bid, entry in _entries(raw, "brokers", "broker", "BadBroker", issues).items():
        fees: dict[tuple[str, int], Decimal | DiscreteDistribution] = {}
        fee_map = entry.get("fees") or {}
        if not isinstance(fee_map, dict):
            issues.append(ValidationIssue("BadBroker", "fees must be an object", broker=bid))
            fee_map = {}
        for sid, by_time in fee_map.items():
            sid = _shared_id(sid)
            if not isinstance(by_time, dict):
                issues.append(ValidationIssue("BadBroker", f"fees for {sid!r} must be an object",
                                              broker=bid, security=sid))
                continue
            for t, value in _by_time(by_time, fee, issues, sid, bid).items():
                fees[sid, t] = value
        brokers.append(Broker(bid, fees))
    return brokers


# ---------------------------------------------------------------------------
# semantic validation


def validate_scenario(scenario: Scenario) -> list[ValidationIssue]:
    """All semantic problems with a structurally well-formed scenario.

    Mode-dependent: deterministic mode insists on quotes and scalar fees at
    every active time, and takes no fee distribution anywhere; expected mode
    accepts distributions in either place. Each price and fee distribution
    is checked by :func:`~rebalplan.market.distribution_errors`, and every
    error it finds becomes an issue named after the error's class.
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
    # each security's grid times in circulation, found once
    windows = []
    for sec in scenario.market.securities:
        sid = sec.security_id
        active = [t for t in grid.points if is_active(sec, t)]
        windows.append((sid, active))
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
            _distribution_issues(issues, dist, security=sid, time=t)
        for t in active:
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
    # (security, time) pairs some broker quotes a usable fee for
    covered = set()
    for broker in scenario.fees.brokers:
        for (sid, t), fee in sorted(broker.fees.items()):
            if isinstance(fee, Decimal) or (fee is not None and not deterministic):
                covered.add((sid, t))
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
                if deterministic:
                    issues.append(ValidationIssue(
                        "BadValue", "a fee distribution needs expected mode",
                        broker=broker.broker_id, security=sid, time=t))
                _distribution_issues(issues, fee, fees=True, broker=broker.broker_id,
                                     security=sid, time=t)

    for sid, active in windows:
        for t in active:
            if (sid, t) not in covered:
                issues.append(ValidationIssue(
                    "FeeMissing",
                    "no broker quotes a usable fee at an active time"
                    + (" (deterministic mode needs scalar fees)" if deterministic else ""),
                    security=sid, time=t))

    return issues


def _distribution_issues(issues: list[ValidationIssue], dist: DiscreteDistribution, *,
                         fees: bool = False, **where) -> None:
    """Each error of ``distribution_errors``, as an issue named after its class."""
    for error in distribution_errors(dist, fees=fees):
        issues.append(ValidationIssue(type(error).__name__.removesuffix("Error"), str(error),
                                      **where))


# ---------------------------------------------------------------------------
# canonical dump


def scenario_to_dict(scenario: Scenario) -> dict:
    opts = scenario.options

    def cell(value: Decimal | DiscreteDistribution) -> object:
        if isinstance(value, Decimal):
            return format_decimal(value, opts.price_scale)
        return [[cell(v), format_decimal(w, opts.prob_scale)] for v, w in value.outcomes]

    securities = []
    for sec in scenario.market.securities:
        entry: dict = {
            "id": sec.security_id,
            "issue_time": sec.issue_time,
            "maturity": sec.maturity,
        }
        if sec.quotes:
            entry["quotes"] = {str(t): cell(q) for t, q in sorted(sec.quotes.items())}
        if sec.distributions:
            entry["distributions"] = {str(t): cell(d) for t, d in sorted(sec.distributions.items())}
        securities.append(entry)

    brokers = []
    for broker in scenario.fees.brokers:
        by_security: dict[str, dict[str, object]] = {}
        for (sid, t), fee in sorted(broker.fees.items()):
            by_security.setdefault(sid, {})[str(t)] = cell(fee)
        brokers.append({"id": broker.broker_id, "fees": by_security})

    return {
        "initial_capital": cell(scenario.initial_capital),
        "times": list(scenario.market.grid.points),
        "securities": securities,
        "brokers": brokers,
        "options": {**opts._asdict(), "lot_size": cell(opts.lot_size)},
    }
