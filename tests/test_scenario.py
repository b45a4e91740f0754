import contextlib
import copy
import io
import json
import random
from decimal import Context, Decimal, localcontext
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rebalplan.cli as cli
import rebalplan.money as money
from rebalplan import (
    Scenario,
    dump_scenario,
    load_scenario,
    price_at,
    scenario_from_dict,
    validate_scenario,
)
from rebalplan.errors import RebalplanError, ScenarioParseError, ScenarioValidationError

from scenariogen import fee_distribution_doc, random_scenario

D = Decimal

DOCS = Path(__file__).resolve().parent.parent / "docs" / "examples"


def minimal_doc(**overrides):
    doc = {
        "initial_capital": "100.0000",
        "times": [1, 2, 3],
        "securities": [
            {"id": "A", "issue_time": 1, "maturity": 2,
             "quotes": {"1": "10.0000", "2": "11.5000", "3": "12.0000"}}
        ],
        "brokers": [
            {"id": "b1", "fees": {"A": {"1": "0.5000", "2": "0.5000", "3": "0.5000"}}}
        ],
        "options": {"mode": "deterministic"},
    }
    doc.update(overrides)
    return doc


def issue_codes(excinfo):
    return [issue.code for issue in excinfo.value.issues]


def test_load_documented_example():
    scn = load_scenario(DOCS / "buy_then_liquidate.json")
    assert len(scn.market.grid) == 3
    assert len(scn.market.securities) == 1
    assert scn.initial_capital == D("100.0000")
    assert price_at(scn.market.security("A"), 2) == D("11.5000")


def test_documented_examples_round_trip(tmp_path):
    scenarios = [load_scenario(DOCS / name)
                 for name in ("buy_then_liquidate.json", "round_trip_too_costly.json",
                              "two_point_upside.json")]
    # a fee distribution takes the dump's list branch
    scenarios.append(scenario_from_dict(fee_distribution_doc("expected")))
    for scn in scenarios:
        text = dump_scenario(scn)
        again = scenario_from_dict(json.loads(text))
        assert again == scn
        # and the canonical form is a fixed point
        assert dump_scenario(again) == text


def test_generated_scenarios_round_trip():
    import random
    rng = random.Random(5)
    for _ in range(20):
        scn = random_scenario(rng)
        again = scenario_from_dict(json.loads(dump_scenario(scn)))
        assert again == scn


def test_malformed_json_reports_the_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"initial_capital": }', encoding="utf-8")
    with pytest.raises(ScenarioParseError) as info:
        load_scenario(path)
    assert info.value.line == 1


# json.loads alone would keep the last "2", a quote of 99.0000
REPEATED_KEY = (DOCS / "buy_then_liquidate.json").read_bytes().replace(
    b'"2": "11.5000",', b'"2": "11.5000", "2": "99.0000",')


@pytest.mark.parametrize("data, message", [
    (b"\xff\xfe{}", "not UTF-8 text"),
    (b"[" * 100_000 + b"]" * 100_000, "nested too deeply"),
    (b'{"initial_capital": ' + b"1" * 5000 + b"}", "4300 digits"),
    (REPEATED_KEY, "repeated key '2'"),
], ids=["not-utf8", "nested-too-deep", "integer-too-long", "repeated-key"])
def test_a_file_json_cannot_read_is_a_parse_error(tmp_path, capsys, data, message):
    path = tmp_path / "scenario.json"
    path.write_bytes(data)
    with pytest.raises(ScenarioParseError, match=message):
        load_scenario(path)
    assert cli.main(["validate", "--scenario", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_bad_normalization_is_located():
    doc = minimal_doc()
    doc["securities"][0]["quotes"].pop("2")
    doc["securities"][0]["distributions"] = {
        "2": [["14.0000", "0.600000"], ["10.0000", "0.500000"]]
    }
    doc["options"]["mode"] = "expected"
    with pytest.raises(ScenarioValidationError) as info:
        scenario_from_dict(doc)
    issues = [i for i in info.value.issues if i.code == "BadNormalization"]
    assert issues and issues[0].security == "A" and issues[0].time == 2


def test_weights_sum_exactly_whatever_the_callers_context():
    # at six digits 0.5000001 + 0.5000000 would round to 1.00000
    doc = minimal_doc()
    doc["securities"][0]["quotes"].pop("2")
    doc["securities"][0]["distributions"] = {
        "2": [["20.0000", "0.5000001"], ["10.0000", "0.5000000"]]
    }
    doc["options"].update(mode="expected", prob_scale=7)
    # emptied, so the weights are parsed here, not read from an earlier parse
    money._AMOUNTS.clear()
    with localcontext(Context(prec=6)):
        with pytest.raises(ScenarioValidationError) as info:
            scenario_from_dict(doc)
    assert "BadNormalization" in issue_codes(info)


def test_missing_quote_is_located():
    doc = minimal_doc()
    doc["securities"][0]["quotes"].pop("2")
    with pytest.raises(ScenarioValidationError) as info:
        scenario_from_dict(doc)
    issues = [i for i in info.value.issues if i.code == "QuoteMissing"]
    assert issues and issues[0].security == "A" and issues[0].time == 2


def test_deterministic_mode_rejects_distribution_only_times():
    doc = minimal_doc()
    doc["securities"][0]["quotes"].pop("2")
    doc["securities"][0]["distributions"] = {
        "2": [["14.0000", "0.500000"], ["10.0000", "0.500000"]]
    }
    doc["options"]["mode"] = "expected"
    scn = scenario_from_dict(doc)  # fine in expected mode
    assert validate_scenario(scn) == []
    with pytest.raises(ScenarioValidationError) as info:
        scenario_from_dict(doc, mode="deterministic")
    assert "QuoteMissing" in issue_codes(info)


def test_deterministic_mode_rejects_fee_distributions():
    scenario_from_dict(fee_distribution_doc("expected"))  # fine in expected mode
    with pytest.raises(ScenarioValidationError) as info:
        scenario_from_dict(fee_distribution_doc("deterministic"))
    located = {(i.broker, i.security, i.time) for i in info.value.issues if i.code == "BadValue"}
    assert located == {("b2", "A", 1), ("b2", "A", 2), ("b2", "A", 3)}


def test_quote_and_distribution_may_not_share_a_time():
    doc = minimal_doc()
    doc["securities"][0]["distributions"] = {
        "2": [["14.0000", "1.000000"]]
    }
    doc["options"]["mode"] = "expected"
    with pytest.raises(ScenarioValidationError) as info:
        scenario_from_dict(doc)
    assert "BothQuoteAndDistribution" in issue_codes(info)


def test_fee_coverage_is_required_at_active_times():
    doc = minimal_doc()
    doc["brokers"][0]["fees"]["A"].pop("2")
    with pytest.raises(ScenarioValidationError) as info:
        scenario_from_dict(doc)
    issues = [i for i in info.value.issues if i.code == "FeeMissing"]
    assert issues and issues[0].time == 2


def test_window_must_fit_the_horizon():
    doc = minimal_doc()
    doc["securities"][0]["maturity"] = 5
    with pytest.raises(ScenarioValidationError) as info:
        scenario_from_dict(doc)
    assert "BadWindow" in issue_codes(info)


def test_issue_time_must_sit_on_the_grid():
    doc = minimal_doc()
    doc["securities"][0]["issue_time"] = 7
    with pytest.raises(ScenarioValidationError) as info:
        scenario_from_dict(doc)
    assert "BadWindow" in issue_codes(info)


def test_negative_values_are_rejected():
    doc = minimal_doc(initial_capital="-1.0000")
    doc["brokers"][0]["fees"]["A"]["2"] = "-0.1000"
    with pytest.raises(ScenarioValidationError) as info:
        scenario_from_dict(doc)
    codes = issue_codes(info)
    assert "BadCapital" in codes
    assert "NegativeFee" in codes


def test_unknown_options_and_bad_scales_are_rejected():
    doc = minimal_doc(options={"mode": "deterministic", "typo": 1})
    with pytest.raises(ScenarioValidationError) as info:
        scenario_from_dict(doc)
    assert "BadOption" in issue_codes(info)
    doc = minimal_doc(options={"mode": "deterministic", "lot_size": "0.0000"})
    with pytest.raises(ScenarioValidationError) as info:
        scenario_from_dict(doc)
    assert "BadOption" in issue_codes(info)


def test_every_bad_option_is_reported_in_order():
    doc = minimal_doc(options={
        "max_states": 0, "hold_to_end": 1, "short_cap": -1, "allow_short": "yes",
        "lot_size": "0", "prob_scale": -1, "price_scale": 13, "mode": "random", "typo": 1,
    })
    with pytest.raises(ScenarioValidationError) as info:
        scenario_from_dict(doc)
    assert [(issue.code, issue.message) for issue in info.value.issues] == [
        ("BadOption", "unknown option 'typo'"),
        ("BadOption", "mode must be one of ('deterministic', 'expected'), got 'random'"),
        ("BadOption", "price_scale must be an integer in 0..12, got 13"),
        ("BadOption", "prob_scale must be an integer in 0..12, got -1"),
        ("BadOption", "lot_size must be positive, got '0'"),
        ("BadOption", "allow_short must be a boolean, got 'yes'"),
        ("BadOption", "short_cap must be a non-negative integer, got -1"),
        ("BadOption", "hold_to_end must be a boolean, got 1"),
        ("BadOption", "max_states must be a positive integer, got 0"),
    ]


def test_a_bad_mode_argument_is_the_one_issue():
    # raised before the document is read, so its bad capital is not reported
    with pytest.raises(ScenarioValidationError) as info:
        scenario_from_dict(minimal_doc(initial_capital="-1.0000"), mode="exp")
    assert [str(issue) for issue in info.value.issues] == [
        "BadOption: mode must be one of ('deterministic', 'expected'), got 'exp'"]


def test_duplicate_security_ids_are_rejected():
    doc = minimal_doc()
    doc["securities"].append(dict(doc["securities"][0]))
    with pytest.raises(ScenarioValidationError) as info:
        scenario_from_dict(doc)
    assert "DuplicateId" in issue_codes(info)


def test_a_duplicate_security_id_hides_no_other_issue():
    doc = json.loads((DOCS / "buy_then_liquidate.json").read_text(encoding="utf-8"))
    doc["securities"][0]["quotes"]["2"] = "0.0000"
    doc["securities"].append(copy.deepcopy(doc["securities"][0]))
    with pytest.raises(ScenarioValidationError) as info:
        scenario_from_dict(doc)
    assert [(i.code, i.security, i.time) for i in info.value.issues] == [
        ("DuplicateId", "A", None), ("NonpositivePrice", "A", 2)]


def test_monetary_strings_must_fit_the_scale():
    doc = minimal_doc(initial_capital="100.00001")
    with pytest.raises(ScenarioValidationError) as info:
        scenario_from_dict(doc)
    assert "BadCapital" in issue_codes(info)


@pytest.mark.parametrize("key", ["02", " 2", "2 ", "+2", "1_0", "\u0662"])
@pytest.mark.parametrize("where", ["quotes", "fees", "distributions"])
def test_a_time_key_must_be_an_integer_in_canonical_form(key, where):
    # int() reads each of these keys, and "02" would overwrite the entry at "2"
    doc = json.loads((DOCS / "buy_then_liquidate.json").read_text(encoding="utf-8"))
    if where == "quotes":
        doc["securities"][0]["quotes"][key] = "99.0000"
    elif where == "distributions":
        doc["securities"][0]["distributions"] = {key: [["99.0000", "1.000000"]]}
    else:
        doc["brokers"][0]["fees"]["A"][key] = "0.0000"
    with pytest.raises(ScenarioValidationError) as info:
        scenario_from_dict(doc)
    broker = "alpha" if where == "fees" else None
    assert [(i.code, i.security, i.time, i.broker) for i in info.value.issues] == [
        ("UnknownTime", "A", None, broker)]
    assert repr(key) in info.value.issues[0].message


def test_a_time_key_that_is_no_integer_is_an_unknown_time():
    doc = minimal_doc()
    doc["securities"][0]["quotes"]["x"] = "10.0000"
    with pytest.raises(ScenarioValidationError) as info:
        scenario_from_dict(doc)
    assert [(i.code, i.security, i.time, i.broker, i.message) for i in info.value.issues] == [
        ("UnknownTime", "A", None, None, "time key 'x' is not an integer in canonical form")]


# where an amount sits in minimal_doc (the outcome value in expected mode, in
# place of the quote at 2), its name in the message, and the issue it makes:
# (code, security, time, broker)
AMOUNT_SITES = {
    "capital": (("initial_capital",), "initial_capital", ("BadCapital", None, None, None)),
    "quote": (("securities", 0, "quotes", "2"), "quote", ("BadValue", "A", 2, None)),
    "fee": (("brokers", 0, "fees", "A", "2"), "fee", ("BadValue", "A", 2, "b1")),
    "outcome": (("securities", 0, "distributions", "2", 0, 0), "distribution outcome value",
                ("BadValue", "A", 2, None)),
    "lot_size": (("options", "lot_size"), "lot_size", ("BadOption", None, None, None)),
}


def _with_amount(site: str, value: object) -> dict:
    doc = minimal_doc()
    if site == "outcome":
        doc["options"]["mode"] = "expected"
        del doc["securities"][0]["quotes"]["2"]
        doc["securities"][0]["distributions"] = {"2": [["11.0000", "1.000000"]]}
    _edit(doc, AMOUNT_SITES[site][0], value)
    return doc


def _amount_issues(site: str, value: object) -> list:
    with pytest.raises(ScenarioValidationError) as info:
        scenario_from_dict(_with_amount(site, value))
    return [(i.code, i.security, i.time, i.broker, i.message) for i in info.value.issues]


@pytest.mark.parametrize("text", ["1_00", " 100 ", "+100", "1e2", "\u0661\u0660\u0660", "1.", ".5"])
@pytest.mark.parametrize("site", sorted(AMOUNT_SITES))
def test_an_amount_is_a_plain_decimal_string(site, text):
    # the Decimal constructor reads each of these; a document amount is only
    # an optional "-", ASCII digits and an optional "." with more digits
    _, what, issue = AMOUNT_SITES[site]
    assert _amount_issues(site, text) == [(*issue, f"{what} is not a decimal number: {text!r}")]


@pytest.mark.parametrize("site", sorted(AMOUNT_SITES))
def test_an_amount_is_never_a_json_number(site):
    _, what, issue = AMOUNT_SITES[site]
    for number in (100, 1.5):
        assert _amount_issues(site, number) == [
            (*issue, f"{what} must be a decimal string, got {number!r}")]


def test_a_well_formed_amount_still_loads_at_every_site():
    for site in AMOUNT_SITES:
        assert scenario_from_dict(_with_amount(site, "2.5"))


def test_two_loads_share_their_amounts_and_ids():
    # ids longer than one character, which the interpreter shares anyway
    doc = minimal_doc()
    doc["securities"][0]["id"] = "ACME"
    doc["brokers"][0] = {"id": "alpha", "fees": {"ACME": doc["brokers"][0]["fees"]["A"]}}
    text = json.dumps(doc)
    money._AMOUNTS.clear()
    one, two = (scenario_from_dict(json.loads(text)) for _ in range(2))
    sec_one, sec_two = one.market.securities[0], two.market.securities[0]
    assert all(sec_two.quotes[t] is sec_one.quotes[t] for t in sec_one.quotes)
    assert sec_two.security_id is sec_one.security_id
    broker_one, broker_two = one.fees.brokers[0], two.fees.brokers[0]
    assert broker_two.broker_id is broker_one.broker_id
    assert list(broker_two.fees) == list(broker_one.fees) and len(broker_one.fees) == 3
    assert all(site[0] is sec_one.security_id
               for broker in (broker_one, broker_two) for site in broker.fees)
    assert dump_scenario(two) == dump_scenario(one)


def _edit(doc, path, value):
    """Set (or, for ``None``, delete) the entry at ``path`` in ``doc``."""
    *head, last = path
    for step in head:
        doc = doc[step]
    if value is None:
        del doc[last]
    else:
        doc[last] = value


def _variant(edits):
    doc = minimal_doc()
    for path, value in edits:
        _edit(doc, path, value)
    return doc


EXPECTED = (("options", "mode"), "expected")
QUOTE_2 = ("securities", 0, "quotes", "2")
DISTS = ("securities", 0, "distributions")
FEE_2 = ("brokers", 0, "fees", "A", "2")

# one document per validation branch, with the one issue it must raise:
# (code, security, time, broker)
VALIDATION_BRANCHES = {
    "times-not-increasing": (
        _variant([(("times",), [1, 3, 2])]),
        ("BadGrid", None, None, None)),
    "short-cap-negative": (
        _variant([(("options", "short_cap"), -1)]),
        ("BadOption", None, None, None)),
    "distribution-not-a-list": (
        _variant([EXPECTED, (QUOTE_2, None), (DISTS, {"2": "14.0000"})]),
        ("BadValue", "A", 2, None)),
    "distribution-pair-too-short": (
        _variant([EXPECTED, (QUOTE_2, None), (DISTS, {"2": [["14.0000"]]})]),
        ("BadValue", "A", 2, None)),
    "quotes-not-an-object": (
        _variant([(("securities", 0, "quotes"), ["10.0000"])]),
        ("BadSecurity", "A", None, None)),
    "quote-off-the-grid": (
        _variant([(("securities", 0, "quotes", "5"), "10.0000")]),
        ("UnknownTime", "A", 5, None)),
    "distribution-off-the-grid": (
        _variant([EXPECTED, (DISTS, {"5": [["10.0000", "1.000000"]]})]),
        ("UnknownTime", "A", 5, None)),
    "quote-not-positive": (
        _variant([(QUOTE_2, "0.0000")]),
        ("NonpositivePrice", "A", 2, None)),
    "distribution-price-not-positive": (
        _variant([EXPECTED, (QUOTE_2, None), (DISTS, {"2": [["0.0000", "1.000000"]]})]),
        ("NonpositivePrice", "A", 2, None)),
    "distribution-weight-negative": (
        _variant([EXPECTED, (QUOTE_2, None),
                  (DISTS, {"2": [["14.0000", "1.500000"], ["10.0000", "-0.500000"]]})]),
        ("NegativeWeight", "A", 2, None)),
    "expected-time-without-quote-or-distribution": (
        _variant([EXPECTED, (QUOTE_2, None)]),
        ("QuoteMissing", "A", 2, None)),
    "fee-off-the-grid": (
        _variant([(("brokers", 0, "fees", "A", "5"), "0.5000")]),
        ("UnknownTime", "A", 5, "b1")),
    "fee-outcome-negative": (
        _variant([EXPECTED, (FEE_2, [["-0.1000", "1.000000"]])]),
        ("NegativeFee", "A", 2, "b1")),
    "fee-weight-negative": (
        _variant([EXPECTED, (FEE_2, [["0.5000", "1.500000"], ["0.1000", "-0.500000"]])]),
        ("NegativeWeight", "A", 2, "b1")),
    "fee-weights-sum-wrong": (
        _variant([EXPECTED, (FEE_2, [["0.5000", "0.500000"]])]),
        ("BadNormalization", "A", 2, "b1")),
    "broker-id-twice": (
        _variant([(("brokers",), [*minimal_doc()["brokers"], {"id": "b1", "fees": {}}])]),
        ("DuplicateId", None, None, "b1")),
}


@pytest.mark.parametrize("branch", sorted(VALIDATION_BRANCHES))
def test_each_validation_branch_names_its_issue(branch):
    doc, issue = VALIDATION_BRANCHES[branch]
    with pytest.raises(ScenarioValidationError) as info:
        scenario_from_dict(copy.deepcopy(doc))
    assert [(i.code, i.security, i.time, i.broker) for i in info.value.issues] == [issue]


def test_every_problem_of_a_price_distribution_is_reported():
    doc = _variant([EXPECTED, (QUOTE_2, None),
                    (DISTS, {"2": [["0.0000", "-0.500000"], ["10.0000", "1.000000"]]})])
    with pytest.raises(ScenarioValidationError) as info:
        scenario_from_dict(doc)
    assert [(i.code, i.security, i.time) for i in info.value.issues] == [
        ("NonpositivePrice", "A", 2), ("NegativeWeight", "A", 2), ("BadNormalization", "A", 2)]


def test_grid_needs_two_points():
    doc = minimal_doc(times=[1])
    doc["securities"][0]["maturity"] = 0
    doc["securities"][0]["quotes"] = {"1": "10.0000"}
    doc["brokers"][0]["fees"]["A"] = {"1": "0.5000"}
    with pytest.raises(ScenarioValidationError) as info:
        scenario_from_dict(doc)
    assert "BadGrid" in issue_codes(info)


# ---------------------------------------------------------------------------
# any JSON document loads or fails with a package error

EXAMPLES = tuple(json.loads(path.read_text(encoding="utf-8"))
                 for path in sorted(DOCS.glob("*.json")))

WORDS = st.sampled_from((
    "", "A", "b1", "1", "-1", "0", "0.5", "1.5", "1e400", "-1E-400", "NaN", "Infinity",
    "99999999999999999999999999999", "0.000000000001", "deterministic", "expected",
    "\ud800",  # a lone surrogate: JSON can escape it, UTF-8 cannot hold it
))

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6) | WORDS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4) | WORDS, inner, max_size=4)),
    max_leaves=10,
)


def _replace_a_value(draw, doc) -> None:
    """Replace one value somewhere in ``doc`` by arbitrary JSON."""
    node = doc
    while True:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                   else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
            continue
        node[key] = draw(JSON)
        return


@st.composite
def near_valid_documents(draw):
    """A documented example with up to three values replaced by arbitrary JSON."""
    doc = copy.deepcopy(draw(st.sampled_from(EXAMPLES)))
    for _ in range(draw(st.integers(1, 3))):
        _replace_a_value(draw, doc)
    return doc


@settings(max_examples=400, deadline=None, derandomize=True)
@given(JSON | near_valid_documents(), st.sampled_from((None, "deterministic", "expected")))
def test_any_json_document_loads_or_raises_a_package_error(doc, mode):
    try:
        scenario = scenario_from_dict(doc, mode=mode)
    except RebalplanError:
        return
    assert isinstance(scenario, Scenario)


EXAMPLE_BYTES = tuple(path.read_bytes() for path in sorted(DOCS.glob("*.json")))


@st.composite
def spliced_examples(draw):
    """A documented example's bytes with one span replaced by arbitrary bytes."""
    data = draw(st.sampled_from(EXAMPLE_BYTES))
    start = draw(st.integers(0, len(data)))
    end = draw(st.integers(start, min(len(data), start + 8)))
    return data[:start] + draw(st.binary(max_size=8)) + data[end:]


FILE_BYTES = (st.binary(max_size=64)
              | spliced_examples()
              | (JSON | near_valid_documents()).map(lambda doc: json.dumps(doc).encode()))


def generated_document(seed: int) -> dict:
    """A valid generated scenario, as its canonical dump reads back."""
    return json.loads(dump_scenario(random_scenario(random.Random(seed))))


@st.composite
def mutated_documents(draw):
    """A generated document with one value replaced by arbitrary JSON."""
    doc = generated_document(draw(st.integers(0, 2**32 - 1)))
    _replace_a_value(draw, doc)
    return doc


@settings(max_examples=300, deadline=None, derandomize=True)
@given(FILE_BYTES | mutated_documents().map(lambda doc: json.dumps(doc).encode()),
       st.integers(0, 2**32 - 1),
       st.sampled_from(((), ("--mode", "det"), ("--mode", "exp"))))
def test_cli_exits_with_a_documented_code_on_any_file(tmp_path_factory, data, seed, mode):
    # each example also runs a valid generated document, so that most files
    # reach the solver, the trace writer and the oracle
    folder = tmp_path_factory.mktemp("cli")
    drawn = folder / "scenario.json"
    drawn.write_bytes(data)
    generated = folder / "generated.json"
    generated.write_text(json.dumps(generated_document(seed)), encoding="utf-8")
    for path in (drawn, generated):
        _run_every_command(folder, path, mode)


def _run_every_command(folder: Path, path: Path, mode: tuple[str, ...]) -> None:
    commands = (
        ["validate"],
        ["solve", "--output", str(folder / "trace.csv"), "--max-states", "64"],
        ["oracle", "--max-states", "64"],
    )
    for command in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*command, "--scenario", str(path), *mode])
        assert code in {0, 2, 3, 4, 5}, command
