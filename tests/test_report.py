import importlib.util
import json
import math
import pickle
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from portsim import (
    Assignment,
    CostReport,
    EmissionsResult,
    EnergyResult,
    GenerationResult,
    ObjectiveScore,
    PortsimError,
    RenewableSource,
    SectorEnergyBreakdown,
    SectorShares,
    SimulationReport,
    ValidationError,
    get_preset,
    report_from_json,
    report_to_dict,
    run_scenario,
    scenario_from_dict,
    scenario_from_json,
    scenario_to_dict,
    scenario_to_json,
    serialize_report,
    summarize,
    validate_scenario,
)
from conftest import make_scenario_dict


@pytest.fixture(scope="module")
def yangshan_report():
    return run_scenario(get_preset("yangshan-phase4"))


def test_reference_report_values(yangshan_report):
    r = yangshan_report
    assert r.energy.baseline_total == 787500.0
    assert r.energy.optimized_total == 708750.0
    assert r.emissions.baseline_emissions == 590625.0
    assert r.emissions.optimized_emissions == 559125.0
    assert r.emissions.baseline_intensity == 0.75
    assert r.emissions.optimized_intensity == pytest.approx(0.79, abs=0.005)
    assert r.emissions.substitution_efficiency == 0.42
    assert r.assignment.mapping == (1, 2, 0)
    assert r.assignment.total_cost == 1050.0
    assert r.costs.total_savings == 472.5e6
    assert r.costs.savings_fraction == 0.3
    assert r.objective.total == 1190175.0
    assert r.generation is None  # supply is explicit, not modeled


def test_empty_port_all_zero_no_flags(zero_scenario_dict):
    report = run_scenario(validate_scenario(scenario_from_dict(zero_scenario_dict)))
    assert report.energy.baseline_total == 0.0
    assert report.energy.optimized_total == 0.0
    assert report.emissions.baseline_emissions == 0.0
    assert report.emissions.optimized_emissions == 0.0
    assert report.costs.total_baseline == 0.0
    assert report.objective.total == 0.0
    assert report.assignment is None
    assert report.flags == ()


def test_renewables_exceeding_demand_sets_flag():
    raw = make_scenario_dict(
        throughput={"teu_per_year": 1000.0, "unit_energy": 100.0},  # 100 MWh baseline
        renewables={"renewable_energy": 150.0, "source": "explicit"},
    )
    report = run_scenario(validate_scenario(scenario_from_dict(raw)))
    assert report.energy.optimized_total == 0.0
    assert any("renewables exceed demand" in flag for flag in report.flags)


def test_credit_exceeding_emissions_sets_flag():
    raw = make_scenario_dict(
        throughput={"teu_per_year": 1000.0, "unit_energy": 100.0},  # 100 MWh baseline
        factors={
            "equipment_factor": 0.0,
            "transport_factor": 0.0,
            "buildings_factor": 0.0,
            "grid_factor": 0.4,
        },
        renewables={"renewable_energy": 50.0, "source": "explicit"},
    )
    report = run_scenario(validate_scenario(scenario_from_dict(raw)))
    assert report.emissions.optimized_emissions == 0.0
    assert any("credit exceeds emissions" in flag for flag in report.flags)


def test_stated_shares_variant_flags_discrepancy():
    report = run_scenario(get_preset("yangshan-phase4-stated-shares"))
    assert report.emissions.baseline_emissions == 551250.0
    assert any("discrepancy" in flag for flag in report.flags)


def test_generation_present_when_modeled():
    raw = make_scenario_dict(
        renewables={"source": "from_pv_wind_models"},
        pv_arrays=[{"panel_area": 50000.0, "module_efficiency": 0.17}],
    )
    report = run_scenario(validate_scenario(scenario_from_dict(raw)))
    assert report.generation is not None
    assert report.generation.total_annual_mwh == pytest.approx(8000.2)
    csv = serialize_report(report, "csv").decode()
    assert "pv_annual_kwh" in csv and "modeled_renewable_mwh" in csv


def test_json_round_trip(yangshan_report):
    data = serialize_report(yangshan_report, "json")
    assert report_from_json(data) == yangshan_report


def test_json_round_trip_with_unassigned_dispatch_rows():
    # rows outnumber columns, so one mapping entry is null in the JSON
    raw = make_scenario_dict(dispatch_matrix=[[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    report = run_scenario(validate_scenario(scenario_from_dict(raw)))
    assert report.assignment.mapping == (1, 0, None)
    data = serialize_report(report, "json")
    assert report_from_json(data) == report


def test_csv_contains_reference_rows(yangshan_report):
    csv = serialize_report(yangshan_report, "csv").decode()
    lines = csv.splitlines()
    assert lines[0] == "metric,value,unit"
    assert "optimized_total_mwh,708750,MWh" in lines
    assert "baseline_total_mwh,787500,MWh" in lines
    assert "baseline_emissions_kg,590625,kg CO2" in lines
    assert "optimized_emissions_kg,559125,kg CO2" in lines
    assert "baseline_intensity,0.75,kg CO2/MWh" in lines
    assert "substitution_efficiency,0.42,kg CO2/MWh" in lines
    assert "dispatch_total_cost,1050,km" in lines
    assert "total_savings_usd,472500000,USD" in lines
    assert "savings_fraction,0.3,fraction" in lines


def test_csv_all_zero_for_empty_port(zero_scenario_dict):
    report = run_scenario(validate_scenario(scenario_from_dict(zero_scenario_dict)))
    for line in serialize_report(report, "csv").decode().splitlines()[1:]:
        _, value, _ = line.split(",")
        assert value == "0"


def test_report_determinism(zero_scenario_dict):
    scenarios = [
        get_preset("yangshan-phase4"),
        validate_scenario(scenario_from_dict(zero_scenario_dict)),
    ]
    for scenario in scenarios:
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert serialize_report(first, "json") == serialize_report(second, "json")
        assert serialize_report(first, "csv") == serialize_report(second, "csv")


def test_int_dispatch_matrix_gives_the_bytes_of_its_floats():
    # JSON integers and their floats both mark the matrix integral when it is built; only
    # the int cells skip the integrality pass, and the report cannot tell
    from portsim import PRESETS

    doc = json.loads(json.dumps(PRESETS["yangshan-phase4"]))
    with_floats = scenario_from_dict(doc)
    doc["dispatch_matrix"] = [[int(x) for x in row] for row in doc["dispatch_matrix"]]
    with_ints = scenario_from_json(json.dumps(doc))
    marks = [scenario.dispatch_matrix.__dict__.get("_integral") for scenario in (with_ints, with_floats)]
    assert marks[0] is not None and marks[0] == marks[1]
    for format in ("json", "csv"):
        expected = serialize_report(run_scenario(with_floats), format)
        assert serialize_report(run_scenario(with_ints), format) == expected


def test_cross_consistency_as_serialized(yangshan_report):
    raw = json.loads(serialize_report(yangshan_report, "json"))
    emissions = raw["emissions"]
    assert emissions["reduction"] == emissions["baseline_emissions"] - emissions["optimized_emissions"]
    energy = raw["energy"]
    sectors = energy["baseline_by_sector"]
    total = sectors["equipment"] + sectors["transport"] + sectors["buildings"]
    assert total == pytest.approx(energy["baseline_total"], rel=1e-9)
    # intensities recomputable from the serialized energies
    assert emissions["baseline_intensity"] == pytest.approx(
        emissions["baseline_emissions"] / energy["baseline_total"], rel=1e-9
    )
    assert emissions["optimized_intensity"] == pytest.approx(
        emissions["optimized_emissions"] / energy["optimized_total"], rel=1e-9
    )


def test_unknown_format_rejected(yangshan_report):
    with pytest.raises(ValueError, match="unknown report format"):
        serialize_report(yangshan_report, "xml")


def test_summary_uses_presentation_rounding(yangshan_report):
    text = summarize(yangshan_report)
    assert "0.75 -> 0.79 kg CO2/MWh" in text
    assert "$472.5M" in text
    assert "1050" in text


def test_summary_escapes_characters_that_are_not_printable(yangshan_report):
    report = replace(
        yangshan_report, scenario_name="a\nb\tc", flags=("bell \x07 del \x7f", "港湾 \\ \"q\"")
    )
    lines = summarize(report).split("\n")
    assert lines[0] == "scenario: a\\nb\\tc"
    assert lines[-2:] == ["  note: bell \\x07 del \\x7f", "  note: 港湾 \\ \"q\""]


def test_run_rejects_a_dispatch_total_past_the_float_range():
    scenario = scenario_from_dict(make_scenario_dict(dispatch_matrix=[[1e308, 1e308]] * 2))
    with pytest.raises(ValidationError) as excinfo:
        run_scenario(scenario)
    assert excinfo.value.field == "assignment.total_cost"


def test_json_refuses_a_number_that_is_not_finite(yangshan_report):
    # a report checks itself when it is built, so one that holds a NaN never reaches a writer
    objective = replace(yangshan_report.objective, total=math.nan)
    with pytest.raises(ValidationError) as excinfo:
        replace(yangshan_report, objective=objective)
    assert excinfo.value.field == "objective.total"
    assert str(excinfo.value) == "objective.total is nan: report numbers must be finite"
    assert b"NaN" not in serialize_report(yangshan_report, "json")


def test_overflowing_report_names_its_first_non_finite_number():
    raw = make_scenario_dict(throughput={"teu_per_year": 1e10, "unit_energy": 1e10})
    raw["factors"]["buildings_factor"] = 1e300
    scenario = scenario_from_dict(raw)  # every input is in range
    with pytest.raises(ValidationError) as excinfo:
        run_scenario(scenario)
    assert excinfo.value.field == "emissions.baseline_emissions"
    assert str(excinfo.value).startswith("emissions.baseline_emissions is inf: ")


@pytest.mark.parametrize("text", ["{not json", "9" * 5000, "[" * 100_000])
def test_unreadable_report_json_is_a_validation_error(text):
    with pytest.raises(ValidationError, match="invalid report JSON"):
        report_from_json(text)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("path", ["objective.total", "energy.baseline_by_sector.equipment"])
def test_report_json_with_a_non_finite_literal_is_rejected(yangshan_report, literal, path):
    raw = report_to_dict(yangshan_report)
    *sections, name = path.split(".")
    target = raw
    for section in sections:
        target = target[section]
    target[name] = float(literal.replace("Infinity", "inf"))
    text = json.dumps(raw, indent=2)  # Python's json writes the NaN/Infinity literals
    assert literal in text
    with pytest.raises(ValidationError) as excinfo:
        report_from_json(text)
    assert excinfo.value.field == path
    assert str(excinfo.value).startswith(f"{path} is ")


def _without_energy(raw):
    del raw["energy"]
    return raw


@pytest.mark.parametrize(
    "reshape, field, message",
    [
        (lambda raw: {}, "scenario_name", "scenario_name is missing from the report"),
        (lambda raw: [], "report", "report is not an object"),
        (_without_energy, "energy", "energy is missing from the report"),
        (lambda raw: {**raw, "costs": [1.0]}, "costs", "costs is not an object"),
        (lambda raw: {**raw, "energy": {**raw["energy"], "baseline_by_sector": "x"}},
         "energy.baseline_by_sector", "energy.baseline_by_sector is not an object"),
        (lambda raw: {**raw, "objective": {**raw["objective"], "total": "1"}},
         "objective.total", "objective.total is not a number"),
        (lambda raw: {**raw, "scenario_name": 7}, "scenario_name", "scenario_name is not a string"),
        (lambda raw: {**raw, "flags": "note"}, "flags", "flags is not a list"),
        (lambda raw: {**raw, "flags": ["ok", None]}, "flags[1]", "flags[1] is not a string"),
        (lambda raw: {**raw, "assignment": {**raw["assignment"], "mapping": {"0": 1}}},
         "assignment.mapping", "assignment.mapping is not a list"),
        (lambda raw: {**raw, "assignment": {**raw["assignment"], "mapping": [{"a": 1}, 2, 0]}},
         "assignment.mapping[0]", "assignment.mapping[0] is not a column index or null"),
        (lambda raw: {**raw, "assignment": {**raw["assignment"], "mapping": [1, True, 0]}},
         "assignment.mapping[1]", "assignment.mapping[1] is not a column index or null"),
        (lambda raw: {**raw, "assignment": {**raw["assignment"], "mapping": [1, 2.0, 0]}},
         "assignment.mapping[1]", "assignment.mapping[1] is not a column index or null"),
        (lambda raw: {**raw, "assignment": {**raw["assignment"], "mapping": [1, -1, 0]}},
         "assignment.mapping[1]", "assignment.mapping[1] is not a column index or null"),
        (lambda raw: {**raw, "assignment": {**raw["assignment"], "mapping": [2, None, 2]}},
         "assignment.mapping[2]", "assignment.mapping[2] repeats column 2"),
        (lambda raw: {**raw, "assignment": {**raw["assignment"], "mapping": [5, 5, -1, 7]}},
         "assignment.mapping[1]", "assignment.mapping[1] repeats column 5"),
        (lambda raw: {**raw, "energy": None}, "energy", "energy is not of type EnergyResult"),
        (lambda raw: {**raw, "emissions": None},
         "emissions", "emissions is not of type EmissionsResult"),
        (lambda raw: {**raw, "costs": None}, "costs", "costs is not of type CostReport"),
        (lambda raw: {**raw, "objective": None},
         "objective", "objective is not of type ObjectiveScore"),
        (lambda raw: {**raw, "energy": {**raw["energy"], "baseline_by_sector": None}},
         "energy.baseline_by_sector",
         "energy.baseline_by_sector is not of type SectorEnergyBreakdown"),
        (lambda raw: {**raw, "objective": {**raw["objective"], "total": 10**400}},
         "objective.total", "objective.total is an integer too large for a float"),
    ],
    ids=["empty-object", "array", "no-energy", "section-array", "nested-string", "number-string",
         "name-number", "flags-string", "flag-null", "mapping-object", "mapping-object-entry",
         "mapping-bool-entry", "mapping-float-entry", "mapping-negative-entry",
         "mapping-repeated-column", "mapping-duplicate-and-negative", "energy-null",
         "emissions-null", "costs-null", "objective-null", "sectors-null", "number-past-float"],
)
def test_report_of_the_wrong_shape_is_a_validation_error(yangshan_report, reshape, field, message):
    text = json.dumps(reshape(report_to_dict(yangshan_report)))
    with pytest.raises(ValidationError) as excinfo:
        report_from_json(text)
    assert excinfo.value.field == field
    assert str(excinfo.value) == message


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_csv_refuses_a_number_that_is_not_finite(yangshan_report, value):
    # the report that would hold it cannot be built, so no CSV is written for it
    energy = yangshan_report.energy
    sectors = replace(energy.baseline_by_sector, transport=value)
    with pytest.raises(ValidationError, match="^energy.baseline_by_sector.transport is "):
        replace(yangshan_report, energy=replace(energy, baseline_by_sector=sectors))


HAND_BUILT_DEFECTS = [
    (lambda r: replace(r, flags="abc"), "flags", "flags is not a list"),
    (lambda r: replace(r, flags=["abc"]), "flags", "flags is not a tuple"),
    (lambda r: replace(r, scenario_name=7), "scenario_name", "scenario_name is not a string"),
    (lambda r: replace(r, assignment=replace(r.assignment, mapping=(1, 1, 0))),
     "assignment.mapping[1]", "assignment.mapping[1] repeats column 1"),
    (lambda r: replace(r, energy=r.emissions), "energy", "energy is not of type EnergyResult"),
    (lambda r: replace(r, objective=replace(r.objective, total=True)),
     "objective.total", "objective.total is not a number"),
    (lambda r: replace(r, costs=replace(r.costs, total_baseline=-(10**400))),
     "costs.total_baseline", "costs.total_baseline is an integer too large for a float"),
]


@pytest.mark.parametrize("build, field, message", HAND_BUILT_DEFECTS)
def test_invalid_report_cannot_be_built(yangshan_report, build, field, message):
    with pytest.raises(ValidationError) as excinfo:
        build(yangshan_report)
    assert excinfo.value.field == field
    assert str(excinfo.value) == message


class Text(str):
    """A str subclass, which a report takes as a str."""


def test_report_takes_ints_a_float_can_hold_and_str_subclasses(yangshan_report):
    energy = replace(yangshan_report.energy, reduction_fraction=10**307)
    report = replace(
        yangshan_report, scenario_name=Text("port"), energy=energy, flags=(Text("note"),)
    )
    assert type(report.energy.reduction_fraction) is float  # the int is stored as its float
    assert report_from_json(serialize_report(report, "json")) == report
    assert "(inf% lower)" in summarize(report)


def integral_floats_as_ints(value):
    """A parsed JSON value with an int in place of each integral float."""
    if type(value) is float and value.is_integer():
        return int(value)
    if type(value) is dict:
        return {key: integral_floats_as_ints(item) for key, item in value.items()}
    if type(value) is list:
        return [integral_floats_as_ints(item) for item in value]
    return value


def test_a_report_read_with_ints_writes_the_bytes_of_its_floats(yangshan_report):
    data = serialize_report(yangshan_report, "json")
    text = json.dumps(integral_floats_as_ints(json.loads(data)), indent=2)
    assert '"per_teu_baseline": 250,' in text
    report = report_from_json(text)
    for format in ("json", "csv"):
        assert serialize_report(report, format) == serialize_report(yangshan_report, format)
    assert summarize(report) == summarize(yangshan_report)


REPORT = run_scenario(get_preset("yangshan-phase4"))
#: Each field's value in the preset's report, sections that hold an int near the float range,
#: one past it, a NaN or a repeated column, and atoms
REPORT_PARTS = st.sampled_from(
    [getattr(REPORT, name) for name in SimulationReport.__match_args__]
    + [GenerationResult(pv_annual=1000.0, wind_annual=0.0, total_annual_mwh=1.0),
       replace(REPORT.energy, reduction_fraction=10**307),
       replace(REPORT.costs, total_baseline=10**400),
       replace(REPORT.objective, total=math.nan),
       Assignment(mapping=(1, 1, 0), total_cost=1.0), Assignment(mapping=(0, None), total_cost=2)]
    + [None, False, 1, 2.5, math.nan, "", "abc", b"abc", RenewableSource.EXPLICIT]
)
REPORT_VALUES = (
    REPORT_PARTS | st.lists(REPORT_PARTS, max_size=3) | st.lists(REPORT_PARTS, max_size=3).map(tuple)
)


@example("flags", "abc")
@given(st.sampled_from(SimulationReport.__match_args__), REPORT_VALUES)
def test_any_field_value_builds_a_report_that_round_trips_or_is_named(name, value):
    try:
        report = replace(REPORT, **{name: value})
    except ValidationError as exc:
        assert exc.field == name or exc.field.startswith((f"{name}.", f"{name}["))
        return
    assert report_from_json(serialize_report(report, "json")) == report
    serialize_report(report, "csv")
    summarize(report)


# ---------------------------------------------------------------------------
# The JSON emitter writes exactly what json.dumps(indent=2) writes
# ---------------------------------------------------------------------------

NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 1e15, 0.1]),
    st.integers(min_value=-(10**40), max_value=10**40),
)
SPECIAL_CHARACTERS = '"\\\t\n\r\x00\x1f\x7f\u00e9\u2028\U0001f6a2'
TEXT = st.text(alphabet=st.one_of(st.sampled_from(SPECIAL_CHARACTERS), st.characters()))


def records(cls, n):
    return st.builds(cls, *[NUMBERS] * n)


HAND_BUILT_REPORTS = st.builds(
    SimulationReport,
    scenario_name=TEXT,
    energy=st.builds(EnergyResult, NUMBERS, records(SectorEnergyBreakdown, 3), NUMBERS, NUMBERS),
    emissions=records(EmissionsResult, 7),
    generation=st.none() | records(GenerationResult, 3),
    # an assignment gives each column to one row at most, and may leave rows unassigned
    assignment=st.none() | st.builds(
        Assignment,
        st.lists(st.integers(min_value=0, max_value=10**20), unique=True, max_size=6).flatmap(
            lambda columns: st.tuples(*[st.none() | st.just(j) for j in columns])
        ),
        NUMBERS,
    ),
    costs=records(CostReport, 7),
    objective=records(ObjectiveScore, 5),
    flags=st.lists(TEXT, max_size=3).map(tuple),
)


@settings(max_examples=200, deadline=None)
@given(HAND_BUILT_REPORTS)
def test_json_emitter_matches_json_dumps(report):
    expected = (json.dumps(report_to_dict(report), indent=2) + "\n").encode("utf-8")
    assert serialize_report(report, "json") == expected
    assert report_from_json(expected) == report


@pytest.mark.parametrize(
    "text", ["", "port-7 A", "\x7f", "\x1f", '"', "\\", "\u00e9", "\U0001f6a2"],
    ids=["empty", "ascii", "delete", "unit-separator", "quote", "backslash", "e-acute", "astral"],
)
def test_json_emitter_writes_each_string_as_json_does(yangshan_report, text):
    # plain ASCII takes a fast path around json's escaper; the rest goes through it
    for report in (replace(yangshan_report, scenario_name=text), replace(yangshan_report, flags=(text,))):
        expected = (json.dumps(report_to_dict(report), indent=2) + "\n").encode("utf-8")
        assert serialize_report(report, "json") == expected


# ---------------------------------------------------------------------------
# Whole documents: anything the parser accepts runs, serializes and round-trips
# ---------------------------------------------------------------------------

MAGNITUDES = st.one_of(
    st.floats(min_value=1e-300, max_value=1e300),
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1.0, 1e300, 1.7e308]),
    st.integers(min_value=0, max_value=10**6),
)
FRACTIONS = st.floats(min_value=0.0, max_value=1.0) | st.sampled_from([5e-324, 1e-300])
POSITIVE = MAGNITUDES.filter(lambda x: x > 0)


SHARE_NAMES = ("equipment_share", "transport_share", "buildings_share")
WEIGHT_NAMES = ("w_emissions", "w_energy", "w_dispatch", "w_renewables")


@st.composite
def share_triples(draw):
    a = draw(FRACTIONS)
    b = draw(FRACTIONS) * (1.0 - a)
    return [a, b, max(1.0 - a - b, 0.0)]


@st.composite
def scenario_documents(draw):
    doc = {
        "name": draw(TEXT.filter(bool)),
        "throughput": {"teu_per_year": draw(MAGNITUDES), "unit_energy": draw(MAGNITUDES)},
        "shares": dict(zip(SHARE_NAMES, draw(share_triples()))),
        "factors": {
            key: draw(MAGNITUDES)
            for key in ("equipment_factor", "transport_factor", "buildings_factor", "grid_factor")
        },
        "costs": {
            "baseline_cost_per_teu": draw(MAGNITUDES), "optimized_cost_per_teu": draw(MAGNITUDES)
        },
        "notes": draw(st.lists(TEXT, max_size=2)),
    }
    if draw(st.booleans()):
        doc["renewables"] = {"source": "explicit", "renewable_energy": draw(MAGNITUDES)}
        if draw(st.booleans()):
            doc["renewables"]["new_green_energy"] = draw(MAGNITUDES)
    else:
        doc["renewables"] = {"source": "from_pv_wind_models"}
        doc["pv_arrays"] = [
            {"panel_area": draw(MAGNITUDES), "module_efficiency": draw(FRACTIONS),
             "irradiance": draw(MAGNITUDES), "performance_ratio": draw(FRACTIONS)}
            for _ in range(draw(st.integers(0, 2)))
        ]
        doc["wind_turbines"] = [
            {"swept_area": draw(MAGNITUDES), "wind_speed": draw(MAGNITUDES),
             "operating_hours": draw(MAGNITUDES), "air_density": draw(POSITIVE)}
            for _ in range(draw(st.integers(0, 2)))
        ]
    if draw(st.booleans()):
        rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        row = st.lists(MAGNITUDES, min_size=cols, max_size=cols)
        doc["dispatch_matrix"] = draw(st.lists(row, min_size=rows, max_size=rows))
    if draw(st.booleans()):
        doc["objective_weights"] = {"w_dispatch": draw(MAGNITUDES), "norm_energy": draw(POSITIVE)}
    return doc


@settings(max_examples=100, deadline=None)
@given(scenario_documents())
def test_every_accepted_document_runs_serializes_and_round_trips(doc):
    try:
        scenario = scenario_from_dict(doc)
    except ValidationError as exc:
        assert exc.field  # the parser names what it rejects
        return
    assert scenario_from_json(scenario_to_json(scenario)) == scenario
    try:
        report = run_scenario(scenario)
    except PortsimError as exc:
        assert isinstance(exc, ValidationError) and exc.field
        return
    data = serialize_report(report, "json")
    assert serialize_report(report, "csv").startswith(b"metric,value,unit\n")
    assert report_from_json(data) == report
    summarize(report)


def _load_oracles():
    """``bench/oracles.py``, which recomputes a report from the document in closed form
    and solves its matrix by brute force, without the code under test (stdlib only)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load_oracles()


#: What ``portsim run --shares A,B,C --weights WE,WN,WD,WR`` gives ``expected_report``
OVERRIDES = st.fixed_dictionaries(
    {}, optional={"shares": share_triples(), "weights": st.lists(MAGNITUDES, min_size=4, max_size=4)}
)


def with_override(scenario, override):
    """``scenario`` with the shares and weights of ``override``, replaced as ``portsim run`` does."""
    if "shares" in override:
        scenario = replace(scenario, shares=SectorShares(*override["shares"]))
    if "weights" in override:
        weights = dict(zip(WEIGHT_NAMES, override["weights"]))
        scenario = replace(scenario, objective_weights=replace(scenario.objective_weights, **weights))
    return scenario


@settings(max_examples=100, deadline=None)
@given(scenario_documents(), OVERRIDES)
def test_every_accepted_document_reports_what_an_independent_oracle_recomputes(doc, override):
    matrix = doc.get("dispatch_matrix") or []
    assume(all(float(x).is_integer() for row in matrix for x in row))  # the brute force takes ints
    try:
        report = run_scenario(with_override(scenario_from_dict(doc), override))
    except PortsimError:  # a rejection, which the property above checks
        report = None
    assume(report is not None)
    want = oracles.expected_report(doc, override)
    if "weights" in override:
        # The program weights energy / norm_energy and the oracle divides w_energy * energy. The
        # two orders round apart by more than the oracle's relative tolerance only where a step
        # of a nonzero term leaves the normal range: a subnormal keeps fewer digits, 0 none.
        energy, w_energy = want["energy"]["optimized_total"], override["weights"][1]
        if energy and w_energy:
            norm = doc.get("objective_weights", {}).get("norm_energy", 1.0)
            steps = (energy, energy / norm, w_energy * energy, want["objective"]["energy_term"])
            assume(min(map(abs, steps)) >= sys.float_info.min)
    oracles.check_json_report(serialize_report(report, "json").decode("utf-8"), want)
    oracles.check_csv_report(serialize_report(report, "csv").decode("utf-8"), want)


def with_ints(value):
    """``value`` rebuilt with an int in place of each integral float, in each record it holds."""
    if type(value) is float:
        return int(value) if value.is_integer() else value
    if type(value) is tuple:
        return tuple(map(with_ints, value))
    if hasattr(type(value), "__match_args__"):
        return type(value)(*[with_ints(getattr(value, name)) for name in value.__match_args__])
    return value


def outputs(scenario):
    """The JSON, CSV and summary of ``scenario``'s report, or the error that stops its run."""
    try:
        report = run_scenario(scenario)
    except ValidationError as exc:
        return exc.field, str(exc)
    return serialize_report(report, "json"), serialize_report(report, "csv"), summarize(report)


@example(make_scenario_dict(costs={"baseline_cost_per_teu": 250.0, "optimized_cost_per_teu": 175.0}))
@settings(max_examples=100, deadline=None)
@given(scenario_documents())
def test_equal_scenarios_give_equal_bytes_by_every_route(doc):
    try:
        scenario = scenario_from_dict(doc)
    except ValidationError:
        return
    expected = outputs(scenario)
    assert outputs(scenario_from_dict(scenario_to_dict(scenario))) == expected
    assert outputs(with_ints(scenario)) == expected
    assert outputs(pickle.loads(pickle.dumps(scenario))) == expected


def test_report_with_unassigned_rows_round_trips():
    report = run_scenario(scenario_from_dict(make_scenario_dict(dispatch_matrix=[[1.0], [2.0]])))
    assert report.assignment.mapping == (0, None)
    assert report_from_json(serialize_report(report, "json")) == report
