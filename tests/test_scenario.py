import ast
import copy
import fnmatch
import importlib
import inspect
import json
import math
import os
import pickle
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import portsim.scenario as scenario_module
from portsim import (
    CostParameters,
    EmissionFactorSet,
    ObjectiveWeights,
    PvArraySpec,
    RenewableSource,
    RenewableSupplySpec,
    Scenario,
    SectorShares,
    ThroughputSpec,
    ValidationError,
    WindTurbineSpec,
    annual_generation,
    get_preset,
    run_scenario,
    scenario_from_dict,
    scenario_from_json,
    scenario_to_json,
    validate_scenario,
)
from portsim.cli import main
from portsim.renewables import BETZ_LIMIT
from portsim.scenario import with_shares, with_weights
from conftest import assert_the_test_catches, make_scenario_dict


def test_yangshan_preset_accepted():
    scenario = get_preset("yangshan-phase4")
    assert scenario.throughput.teu_per_year == 6.3e6
    assert scenario.throughput.unit_energy == 125.0
    assert scenario.renewables.renewable_energy == 78750.0
    assert scenario.renewables.new_green_energy == 75000.0
    assert scenario.costs.baseline_cost_per_teu == 250.0
    assert validate_scenario(scenario) == scenario


def test_zero_scenario_accepted(zero_scenario_dict):
    scenario = validate_scenario(scenario_from_dict(zero_scenario_dict))
    assert scenario.throughput.teu_per_year == 0.0
    assert scenario.pv_arrays == () and scenario.wind_turbines == ()


def test_share_sum_violation_message():
    raw = make_scenario_dict(
        shares={"equipment_share": 0.5, "transport_share": 0.3, "buildings_share": 0.3}
    )
    with pytest.raises(ValidationError, match="shares sum to 1.1"):
        validate_scenario(scenario_from_dict(raw))


def test_share_out_of_range():
    raw = make_scenario_dict(
        shares={"equipment_share": 1.5, "transport_share": -0.3, "buildings_share": -0.2}
    )
    with pytest.raises(ValidationError, match="equipment_share"):
        validate_scenario(scenario_from_dict(raw))


def test_unknown_top_level_key_rejected():
    raw = make_scenario_dict()
    raw["surprise"] = 1
    with pytest.raises(ValidationError, match="unknown key 'surprise'"):
        scenario_from_dict(raw)


def test_unknown_nested_key_rejected():
    raw = make_scenario_dict()
    raw["throughput"]["teu"] = 5
    with pytest.raises(ValidationError, match="unknown key 'teu' in throughput"):
        scenario_from_dict(raw)


def test_missing_required_key_rejected():
    raw = make_scenario_dict()
    del raw["costs"]
    with pytest.raises(ValidationError, match="missing required key 'costs'"):
        scenario_from_dict(raw)


def test_bool_not_a_number():
    raw = make_scenario_dict()
    raw["throughput"]["teu_per_year"] = True
    with pytest.raises(ValidationError, match="teu_per_year must be a number"):
        scenario_from_dict(raw)


def test_a_number_check_that_takes_a_bool_fails_a_test(monkeypatch):
    # a one-line mutation of _number: without its bool test, a JSON true reads as 1.0
    assert_the_test_catches(
        monkeypatch, test_bool_not_a_number, "scenario_from_dict", scenario_module,
        "if isinstance(value, bool) or not isinstance(value, (int, float)):",
        "if not isinstance(value, (int, float)):",
    )


def test_string_not_a_number():
    raw = make_scenario_dict()
    raw["factors"]["grid_factor"] = "0.4"
    with pytest.raises(ValidationError, match="grid_factor must be a number"):
        scenario_from_dict(raw)


def test_negative_field_names_path():
    raw = make_scenario_dict(throughput={"teu_per_year": -1.0, "unit_energy": 100.0})
    with pytest.raises(ValidationError, match="throughput.teu_per_year must be non-negative"):
        validate_scenario(scenario_from_dict(raw))


def test_empty_name_rejected():
    raw = make_scenario_dict(name="")
    with pytest.raises(ValidationError, match="name must be a non-empty string"):
        validate_scenario(scenario_from_dict(raw))


def test_invalid_renewable_source():
    raw = make_scenario_dict(
        renewables={"renewable_energy": 0.0, "source": "wishful_thinking"}
    )
    with pytest.raises(ValidationError, match="renewables.source"):
        scenario_from_dict(raw)


def test_power_coefficient_betz_bounds():
    def turbine(cp):
        return make_scenario_dict(
            wind_turbines=[
                {"swept_area": 100.0, "wind_speed": 10.0, "operating_hours": 4000.0,
                 "power_coefficient": cp}
            ]
        )

    validate_scenario(scenario_from_dict(turbine(0.593)))
    with pytest.raises(ValidationError, match="power_coefficient"):
        validate_scenario(scenario_from_dict(turbine(0.6)))
    with pytest.raises(ValidationError, match="power_coefficient"):
        validate_scenario(scenario_from_dict(turbine(0.0)))


def test_air_density_must_be_positive():
    raw = make_scenario_dict(
        wind_turbines=[
            {"swept_area": 100.0, "wind_speed": 10.0, "operating_hours": 4000.0,
             "air_density": 0.0}
        ]
    )
    with pytest.raises(ValidationError, match="air_density must be positive"):
        validate_scenario(scenario_from_dict(raw))


def test_non_finite_rejected():
    raw = make_scenario_dict(
        renewables={"renewable_energy": math.inf, "source": "explicit"}
    )
    with pytest.raises(ValidationError, match="renewable_energy must be finite"):
        scenario_from_dict(raw)


def test_validation_is_idempotent(minimal_scenario):
    assert validate_scenario(validate_scenario(minimal_scenario)) == minimal_scenario


def test_round_trip_presets():
    for name in ("yangshan-phase4", "yangshan-phase4-stated-shares"):
        scenario = get_preset(name)
        again = validate_scenario(scenario_from_json(scenario_to_json(scenario)))
        assert again == scenario


def test_round_trip_with_assets_and_matrix():
    raw = make_scenario_dict(
        pv_arrays=[{"panel_area": 50000.0, "module_efficiency": 0.17}],
        wind_turbines=[{"swept_area": 100.0, "wind_speed": 10.0, "operating_hours": 4000.0}],
        dispatch_matrix=[[1.0, 2.0], [3.0, 4.0]],
        notes=["just a note"],
    )
    scenario = validate_scenario(scenario_from_dict(raw))
    again = validate_scenario(scenario_from_json(scenario_to_json(scenario)))
    assert again == scenario
    assert again.notes == ("just a note",)


def test_modeled_mode_empty_assets_is_zero():
    raw = make_scenario_dict(renewables={"source": "from_pv_wind_models"})
    scenario = validate_scenario(scenario_from_dict(raw))
    assert scenario.renewables.renewable_energy == 0.0


def test_modeled_mode_derives_supply_from_assets():
    raw = make_scenario_dict(
        renewables={"source": "from_pv_wind_models"},
        pv_arrays=[{"panel_area": 50000.0, "module_efficiency": 0.17}],
        wind_turbines=[{"swept_area": 100.0, "wind_speed": 10.0, "operating_hours": 4000.0}],
    )
    scenario = validate_scenario(scenario_from_dict(raw))
    modeled = annual_generation(scenario.pv_arrays, scenario.wind_turbines)
    assert scenario.renewables.renewable_energy == modeled.total_annual_mwh
    assert modeled.total_annual_mwh > 0


def test_modeled_mode_mismatch_rejected():
    raw = make_scenario_dict(
        renewables={"renewable_energy": 1234.0, "source": "from_pv_wind_models"},
        pv_arrays=[{"panel_area": 50000.0, "module_efficiency": 0.17}],
    )
    with pytest.raises(ValidationError, match="PV/wind assets model"):
        validate_scenario(scenario_from_dict(raw))


def test_modeled_mode_consistent_value_accepted():
    pv = PvArraySpec.create(panel_area=50000.0, module_efficiency=0.17)
    modeled = annual_generation([pv], []).total_annual_mwh
    raw = make_scenario_dict(
        renewables={"renewable_energy": modeled, "source": "from_pv_wind_models"},
        pv_arrays=[{"panel_area": 50000.0, "module_efficiency": 0.17}],
    )
    scenario = validate_scenario(scenario_from_dict(raw))
    assert scenario.renewables.source == RenewableSource.FROM_PV_WIND_MODELS


def test_modeled_supply_beyond_float_range_rejected():
    # each array models about 1e308 kWh, so their sum leaves the float range
    raw = make_scenario_dict(
        renewables={"source": "from_pv_wind_models"},
        pv_arrays=[{"panel_area": 1e300, "module_efficiency": 0.5, "sun_hours": 2.5e8}] * 2,
    )
    with pytest.raises(ValidationError, match="renewables.renewable_energy must be finite"):
        scenario_from_dict(raw)


def test_explicit_mode_requires_renewable_energy():
    raw = make_scenario_dict(renewables={"source": "explicit"})
    with pytest.raises(ValidationError, match="renewable_energy"):
        scenario_from_dict(raw)


def test_new_green_energy_defaults_to_renewable_energy(minimal_scenario):
    assert minimal_scenario.renewables.new_green_energy == 10000.0


def test_dispatch_matrix_negative_entry_rejected():
    raw = make_scenario_dict(dispatch_matrix=[[1.0, -2.0], [3.0, 4.0]])
    with pytest.raises(ValidationError, match="dispatch_matrix"):
        scenario_from_dict(raw)


def test_dispatch_matrix_ragged_rejected():
    raw = make_scenario_dict(dispatch_matrix=[[1.0, 2.0], [3.0]])
    with pytest.raises(ValidationError, match="dispatch_matrix"):
        scenario_from_dict(raw)


@pytest.mark.parametrize(
    ("matrix", "field", "message"),
    [
        # a cell that is not a finite JSON number is named before any shape or sign error
        ([[1.0, True], [3.0]], "dispatch_matrix[0][1]", "must be a number"),
        ([[1.0, 2.0], [3.0], [True, 1]], "dispatch_matrix[2][0]", "must be a number"),
        ([[-1.0, 2.0], [math.nan, 1.0]], "dispatch_matrix[1][0]", "must be finite, got nan"),
        ([[1.0, 2.0], [math.inf, None]], "dispatch_matrix[1][0]", "must be finite, got inf"),
        ([[], [True]], "dispatch_matrix[1][0]", "must be a number"),
        # and the first of them in row-major order decides
        ([[1, 10**400], ["x", 2]], "dispatch_matrix[0][1]", "must be finite, got an integer too large for a float"),
        ([["x", 10**400]], "dispatch_matrix[0][0]", "must be a number"),
        # shape and sign errors come row by row
        ([[1.0, -2.0], [3.0]], "dispatch_matrix", "cost matrix entry (0, 1) is negative"),
        ([[1.0], [3.0, -1.0]], "dispatch_matrix", "cost matrix row 1 has 2 entries, expected 1"),
        ([[], [1.0]], "dispatch_matrix", "cost matrix must have at least one row and one column"),
    ],
)
def test_dispatch_matrix_with_two_defects_names_the_first(matrix, field, message):
    with pytest.raises(ValidationError) as excinfo:
        scenario_from_dict(make_scenario_dict(dispatch_matrix=matrix))
    expected = f"dispatch_matrix: {message}" if field == "dispatch_matrix" else f"{field} {message}"
    assert (excinfo.value.field, str(excinfo.value)) == (field, expected)


def test_notes_must_be_strings():
    raw = make_scenario_dict(notes=[42])
    with pytest.raises(ValidationError, match="notes"):
        scenario_from_dict(raw)


@pytest.mark.parametrize("notes", ["hi", None, 5, {"a": "b"}])
def test_notes_must_be_a_json_list(notes):
    # JSON has no tuples: a file's notes that are not a list are named as a list is, as pv_arrays are
    with pytest.raises(ValidationError) as excinfo:
        scenario_from_json(json.dumps(make_scenario_dict(notes=notes)))
    assert (excinfo.value.field, str(excinfo.value)) == ("notes", "notes must be a list")


def test_invalid_json_reported():
    with pytest.raises(ValidationError, match="invalid JSON"):
        scenario_from_json("{not json")


def test_a_file_that_is_not_utf8_is_a_validation_error(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff" + json.dumps(make_scenario_dict()).encode("utf-8"))
    with pytest.raises(ValidationError, match="^not UTF-8 text: 'utf-8' codec can't decode byte 0xff") as excinfo:
        scenario_module.load_scenario(path)
    assert excinfo.value.field == "scenario"


def test_load_scenario_skips_a_utf8_bom(tmp_path):
    # a file saved as "UTF-8 with BOM" reads as its text; a second BOM is text that JSON rejects
    text = json.dumps(make_scenario_dict())
    path = tmp_path / "bom.json"
    path.write_text(text, "utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert scenario_module.load_scenario(path) == scenario_from_json(text)
    path.write_text("\ufeff" + text, "utf-8-sig")
    with pytest.raises(ValidationError, match="^invalid JSON: Unexpected UTF-8 BOM"):
        scenario_module.load_scenario(path)


def test_defaults_for_pv_and_wind_assets():
    pv = PvArraySpec.create(panel_area=50000.0, module_efficiency=0.17)
    assert pv.irradiance == 1.0
    assert pv.peak_power == 8500.0
    assert pv.sun_hours == 1176.5 and pv.performance_ratio == 0.8
    wt = WindTurbineSpec.create(swept_area=100.0, wind_speed=10.0, operating_hours=4000.0)
    assert wt.air_density == 1.225 and wt.power_coefficient == 0.4
    assert wt.average_power == pytest.approx(24.5)


@given(
    teu=st.floats(min_value=0, max_value=1e9, allow_nan=False),
    unit=st.floats(min_value=0, max_value=1e4, allow_nan=False),
    a=st.floats(min_value=0, max_value=1, allow_nan=False),
    b=st.floats(min_value=0, max_value=1, allow_nan=False),
    renewable=st.floats(min_value=0, max_value=1e7, allow_nan=False),
)
def test_round_trip_property(teu, unit, a, b, renewable):
    if a + b > 1:
        a, b = a / 2, b / 2
    c = max(1.0 - a - b, 0.0)
    raw = make_scenario_dict(
        throughput={"teu_per_year": teu, "unit_energy": unit},
        shares={"equipment_share": a, "transport_share": b, "buildings_share": c},
        renewables={"renewable_energy": renewable, "source": "explicit"},
    )
    scenario = validate_scenario(scenario_from_dict(raw))
    assert validate_scenario(scenario_from_json(scenario_to_json(scenario))) == scenario


# ---------------------------------------------------------------------------
# A Scenario is checked once, when it is built
# ---------------------------------------------------------------------------


def count_checks(monkeypatch):
    calls = []
    check = scenario_module._check_scenario

    def counting(scenario):
        calls.append(scenario.name)
        check(scenario)

    monkeypatch.setattr(scenario_module, "_check_scenario", counting)
    return calls


def test_cli_run_checks_the_scenario_once(tmp_path, monkeypatch, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(make_scenario_dict()))
    calls = count_checks(monkeypatch)
    assert main(["run", str(path)]) == 0
    assert calls == ["test-port"]


def test_cli_run_with_both_overrides_checks_the_scenario_twice(tmp_path, monkeypatch, capsys):
    # the file's Scenario, then one Scenario built with both overrides, not one per override
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(make_scenario_dict()))
    calls = count_checks(monkeypatch)
    assert main(["run", str(path), "--shares", "0.5,0.3,0.2", "--weights", "2,1,1,1"]) == 0
    assert calls == ["test-port", "test-port"]


def test_library_run_checks_the_preset_once(monkeypatch):
    calls = count_checks(monkeypatch)
    run_scenario(get_preset("yangshan-phase4"))
    assert calls == ["yangshan-phase4"]


def test_validate_scenario_returns_its_argument(minimal_scenario):
    assert validate_scenario(minimal_scenario) is minimal_scenario


def test_int_values_are_accepted_when_built_by_hand(minimal_scenario):
    scenario = replace(minimal_scenario, throughput=ThroughputSpec(1000, 100))
    assert scenario.throughput.teu_per_year == 1000
    # a source is a plain str, given to create or to the record itself
    for supply in (
        RenewableSupplySpec.create(78750.0, "explicit", 75000.0),
        RenewableSupplySpec(78750.0, "explicit", 75000.0),
    ):
        scenario = replace(get_preset("yangshan-phase4"), renewables=supply)
        assert scenario.renewables.source == RenewableSource.EXPLICIT


def test_a_scenario_stores_each_int_as_its_float(minimal_scenario):
    throughput, costs = ThroughputSpec(1000, 100), CostParameters(250, 175)
    scenario = replace(minimal_scenario, throughput=throughput, costs=costs)
    assert scenario.throughput is throughput and scenario.costs is costs  # the record itself
    numbers = [throughput.teu_per_year, throughput.unit_energy]
    numbers += [costs.baseline_cost_per_teu, costs.optimized_cost_per_teu]
    assert numbers == [1000.0, 100.0, 250.0, 175.0]
    assert all(type(value) is float for value in numbers)


HAND_BUILT_DEFECTS = [
    (
        lambda s: replace(s, throughput=ThroughputSpec(-1.0, 100.0)),
        "throughput.teu_per_year",
        "throughput.teu_per_year must be non-negative, got -1",
    ),
    (  # each int is in range, but their int product is past the float range
        lambda s: replace(s, throughput=ThroughputSpec(10**200, 10**200)),
        "throughput",
        "implied total energy teu_per_year * unit_energy overflows",
    ),
    (
        lambda s: with_shares(s, SectorShares(0.5, 0.3, 0.3)),
        "shares",
        "shares sum to 1.1",
    ),
    (
        lambda s: replace(s, name=""),
        "name",
        "name must be a non-empty string",
    ),
    (
        lambda s: replace(
            s,
            pv_arrays=(
                PvArraySpec.create(panel_area=10.0, module_efficiency=0.2),
                PvArraySpec.create(panel_area=10.0, module_efficiency=1.5),
            ),
        ),
        "pv_arrays[1].module_efficiency",
        "pv_arrays[1].module_efficiency must be within [0, 1], got 1.5",
    ),
    (
        lambda s: replace(
            s,
            wind_turbines=(
                WindTurbineSpec.create(
                    swept_area=10.0, wind_speed=5.0, operating_hours=10.0, air_density=0.0
                ),
            ),
        ),
        "wind_turbines[0].air_density",
        "wind_turbines[0].air_density must be positive, got 0",
    ),
    (
        lambda s: with_weights(s, ObjectiveWeights(norm_energy=0.0)),
        "objective_weights.norm_energy",
        "objective_weights.norm_energy must be positive, got 0",
    ),
    (
        lambda s: replace(s, notes=("fine", 3)),
        "notes[1]",
        "notes[1] must be a string",
    ),
    (
        lambda s: Scenario(
            name="hand-built",
            throughput=s.throughput,
            shares=s.shares,
            factors=EmissionFactorSet(0.5, 0.7, math.nan, 0.4),
            renewables=s.renewables,
            costs=s.costs,
        ),
        "factors.buildings_factor",
        "factors.buildings_factor must be finite, got nan",
    ),
    # Structure: a record of the wrong class, whether the parse marked it in range or not,
    # or a value that is no record, tuple or matrix at all
    (
        lambda s: replace(s, pv_arrays=(s.shares,)),
        "pv_arrays[0]",
        "pv_arrays[0] must be of type PvArraySpec",
    ),
    (
        lambda s: replace(s, throughput=SectorShares(0.5, 0.25, 0.25)),
        "throughput",
        "throughput must be of type ThroughputSpec",
    ),
    (
        lambda s: replace(s, renewables=s.costs),
        "renewables",
        "renewables must be of type RenewableSupplySpec",
    ),
    (
        lambda s: replace(s, factors="x"),
        "factors",
        "factors must be of type EmissionFactorSet",
    ),
    (
        lambda s: with_weights(s, None),
        "objective_weights",
        "objective_weights must be of type ObjectiveWeights",
    ),
    (
        lambda s: replace(s, notes="abc"),
        "notes",
        "notes must be a tuple",
    ),
    (
        lambda s: replace(s, pv_arrays=[]),
        "pv_arrays",
        "pv_arrays must be a tuple",
    ),
    (
        lambda s: replace(s, dispatch_matrix=[[1.0, 2.0]]),
        "dispatch_matrix",
        "dispatch_matrix must be of type CostMatrix or None",
    ),
    (
        lambda s: replace(s, name=["x"]),
        "name",
        "name must be a non-empty string",
    ),
]


@pytest.mark.parametrize("build, field, message", HAND_BUILT_DEFECTS)
def test_invalid_scenario_cannot_be_built(minimal_scenario, build, field, message):
    with pytest.raises(ValidationError) as excinfo:
        build(minimal_scenario)
    assert excinfo.value.field == field
    assert str(excinfo.value) == message


YANGSHAN = get_preset("yangshan-phase4")
#: Each field's value in the preset (its records marked in range by the parse), an unmarked
#: record, one asset of each kind, and atoms
PARTS = st.sampled_from(
    [getattr(YANGSHAN, name) for name in Scenario.__match_args__]
    + [replace(YANGSHAN.shares), PvArraySpec.create(panel_area=10.0, module_efficiency=0.2),
       WindTurbineSpec.create(swept_area=10.0, wind_speed=5.0, operating_hours=10.0)]
    + [None, False, 1, 2.5, math.nan, "", "port", b"port", RenewableSource.EXPLICIT]
)
FIELD_VALUES = PARTS | st.lists(PARTS, max_size=3) | st.lists(PARTS, max_size=3).map(tuple)


@given(st.sampled_from(Scenario.__match_args__), FIELD_VALUES)
def test_any_field_value_builds_a_runnable_scenario_or_is_named(name, value):
    try:
        scenario = replace(YANGSHAN, **{name: value})
    except ValidationError as exc:
        assert exc.field.startswith(name)
        return
    assert hash(scenario) == hash(replace(scenario))
    run_scenario(scenario)


#: Every numeric field of FULL_SCENARIO: (path, record key, index, name, check).
NUMERIC_FIELDS = (
    [("throughput", None, name, "non_negative") for name in ("teu_per_year", "unit_energy")]
    + [
        ("shares", None, name, "fraction")
        for name in ("equipment_share", "transport_share", "buildings_share")
    ]
    + [
        ("factors", None, name, "non_negative")
        for name in ("equipment_factor", "transport_factor", "buildings_factor", "grid_factor")
    ]
    + [
        ("renewables", None, name, "non_negative")
        for name in ("renewable_energy", "new_green_energy")
    ]
    + [
        ("pv_arrays", 0, name, check)
        for name, check in (
            ("panel_area", "non_negative"),
            ("irradiance", "non_negative"),
            ("module_efficiency", "fraction"),
            ("peak_power", "non_negative"),
            ("sun_hours", "non_negative"),
            ("performance_ratio", "fraction"),
        )
    ]
    + [
        ("wind_turbines", 0, name, check)
        for name, check in (
            ("air_density", "positive"),
            ("swept_area", "non_negative"),
            ("wind_speed", "non_negative"),
            ("power_coefficient", "betz"),
            ("average_power", "non_negative"),
            ("operating_hours", "non_negative"),
        )
    ]
    + [
        ("costs", None, name, "non_negative")
        for name in ("baseline_cost_per_teu", "optimized_cost_per_teu")
    ]
    + [
        ("objective_weights", None, f"w_{name}", "non_negative")
        for name in ("emissions", "energy", "dispatch", "renewables")
    ]
    + [
        ("objective_weights", None, f"norm_{name}", "positive")
        for name in ("emissions", "energy", "dispatch", "renewables")
    ]
)

FULL_SCENARIO = make_scenario_dict(
    renewables={"renewable_energy": 10000.0, "source": "explicit", "new_green_energy": 900.0},
    pv_arrays=[
        {"panel_area": 100.0, "irradiance": 0.9, "module_efficiency": 0.2,
         "peak_power": 18.0, "sun_hours": 1000.0, "performance_ratio": 0.8}
    ],
    wind_turbines=[
        {"air_density": 1.2, "swept_area": 50.0, "wind_speed": 8.0,
         "power_coefficient": 0.4, "average_power": 12.0, "operating_hours": 3000.0}
    ],
    objective_weights={
        "w_emissions": 1.0, "w_energy": 0.5, "w_dispatch": 2.0, "w_renewables": 1.0,
        "norm_emissions": 10.0, "norm_energy": 1.0, "norm_dispatch": 3.0, "norm_renewables": 1.0,
    },
)

BAD_VALUES = [math.nan, math.inf, -math.inf, True, "1.0", 10**400, -1, -0.5, 0.0, 0, 1.5, 2, 0.6]

RANGE_MESSAGES = {
    "non_negative": "must be non-negative",
    "fraction": "must be within [0, 1]",
    "positive": "must be positive",
    "betz": "must be within (0, 0.593]",
}


def expected_message(check, value):
    """The message start for a bad value, or None if the value is valid there."""
    if isinstance(value, (bool, str)):
        return "must be a number"
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        return "must be finite, got an integer too large for a float"
    if not math.isfinite(value):
        return f"must be finite, got {float(value)}"
    valid = {
        "non_negative": value >= 0,
        "fraction": 0 <= value <= 1,
        "positive": value > 0,
        "betz": 0 < value <= 0.593,
    }[check]
    return None if valid else f"{RANGE_MESSAGES[check]}, got"


@given(st.sampled_from(NUMERIC_FIELDS), st.sampled_from(BAD_VALUES))
def test_one_bad_value_is_rejected_at_its_path(spot, value):
    record, index, name, check = spot
    message = expected_message(check, value)
    assume(message is not None)
    path = f"{record}.{name}" if index is None else f"{record}[{index}].{name}"

    raw = copy.deepcopy(FULL_SCENARIO)
    (raw[record] if index is None else raw[record][index])[name] = value
    with pytest.raises(ValidationError) as from_file:
        scenario_from_dict(raw)
    assert from_file.value.field == path
    assert str(from_file.value).startswith(f"{path} {message}")

    # The same value put in by hand is rejected the same way.
    scenario = scenario_from_dict(FULL_SCENARIO)
    if index is None:
        changes = {record: replace(getattr(scenario, record), **{name: value})}
    else:
        changes = {record: (replace(getattr(scenario, record)[0], **{name: value}),)}
    with pytest.raises(ValidationError) as by_hand:
        replace(scenario, **changes)
    assert by_hand.value.field == path
    assert str(by_hand.value).startswith(f"{path} {message}")


# ---------------------------------------------------------------------------
# One field table per record: ranges, required keys and defaults
# ---------------------------------------------------------------------------

#: Each record a file describes, its table and where its keys sit in a file.
TABLES = [
    (ThroughputSpec, scenario_module._THROUGHPUT, "throughput"),
    (SectorShares, scenario_module._SHARES, "shares"),
    (EmissionFactorSet, scenario_module._FACTORS, "factors"),
    (RenewableSupplySpec, scenario_module._SUPPLY, "renewables"),
    (PvArraySpec, scenario_module._PV, "pv_arrays[]"),
    (WindTurbineSpec, scenario_module._WIND, "wind_turbines[]"),
    (CostParameters, scenario_module._COSTS, "costs"),
    (ObjectiveWeights, scenario_module._WEIGHTS, "objective_weights"),
]
NOT_NUMBERS = {"source", "renewables_reduce_score"}
REQUIRED = scenario_module._REQUIRED


@pytest.mark.parametrize("cls, table, where", TABLES, ids=[cls.__name__ for cls, _, _ in TABLES])
def test_every_field_has_one_row_in_declaration_order(cls, table, where):
    assert list(table.rows) == [name for name in cls.__match_args__ if name not in NOT_NUMBERS]
    assert all(row[0] == name for name, row in table.rows.items())
    assert table.fields == set(cls.__match_args__)
    assert table.others == NOT_NUMBERS & table.fields
    assert list(table.required) == [name for name, row in table.rows.items() if row[4] is REQUIRED]
    for name, row in table.rows.items():  # a default the record declares is the table's
        assert row[4] == vars(cls).get(name, row[4])


@pytest.mark.parametrize("cls, table", [(PvArraySpec, scenario_module._PV),
                                        (WindTurbineSpec, scenario_module._WIND)])
def test_create_takes_the_required_fields_then_the_table_defaults(cls, table):
    params = inspect.signature(cls.create).parameters
    optional = {name: row[4] for name, row in table.rows.items() if row[4] is not REQUIRED}
    assert list(params) == [*table.required, *optional]
    assert {name: p.default for name, p in params.items() if p.default is not p.empty} == optional


def readme_fields():
    """The README's field reference: (key, required, default) per row."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    rows = text.split("| key | required | default | meaning |", 1)[1].split("\n\n", 1)[0]
    cells = [[cell.strip() for cell in line.strip("|").split("|")] for line in rows.splitlines()]
    return [(key.strip("`"), required, default) for key, required, default, _ in cells[2:]]


def test_the_readme_field_reference_agrees_with_the_tables():
    rows = readme_fields()
    for cls, table, where in TABLES:
        for name, (*_, default) in table.rows.items():
            found = [(r, d) for key, r, d in rows if fnmatch.fnmatchcase(f"{where}.{name}", key)]
            assert found, f"{where}.{name} is missing from the README"
            for required, stated in found:
                if default is REQUIRED:
                    assert (required, stated) == ("yes", ""), name
                elif default is None:  # derived from the other fields
                    assert required != "yes" and stated.startswith("derived: "), name
                else:
                    assert required == "no" and float(stated.split()[0]) == default, name
    for key, _, _ in rows:  # and no row names a field that does not exist
        prefix, _, pattern = key.rpartition(".")
        fields = [cls.__match_args__ for cls, _, where in TABLES if where == prefix]
        assert not prefix or any(fnmatch.filter(names, pattern) for names in fields), key


def readme_ledger():
    """The README's fast-path ledger: (fast path, rests on, pinned by, buys) per row."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    rows = text.split("| fast path | rests on | pinned by | buys |", 1)[1].split("\n\n", 1)[0]
    return [[cell.strip() for cell in line.strip("|").split("|")] for line in rows.splitlines()[2:]]


def test_the_readme_ledger_names_code_and_tests_that_exist():
    root = Path(__file__).resolve().parent.parent
    rows = readme_ledger()
    assert rows
    for path, _, pinned, buys in rows:
        names = re.findall(r"`([^`]+)`", path)
        assert names, path
        for name in names:  # every name in this column is portsim's: module.attribute, or portsim.attribute
            module, *attrs = name.split(".")
            found = importlib.import_module("portsim" if module == "portsim" else f"portsim.{module}")
            for attr in attrs:
                assert hasattr(found, attr), f"{name} is gone"
                found = getattr(found, attr)
        nodes = re.findall(r"`([^`]+)`", pinned)
        assert nodes, pinned
        for node in nodes:
            file, _, test = node.partition("::")
            assert file.startswith("tests/") and test.startswith("test_"), node
            tree = ast.parse((root / file).read_text(encoding="utf-8"))
            assert test in {f.name for f in tree.body if isinstance(f, ast.FunctionDef)}, f"{node} is gone"
        assert re.search(r"\bPR \d+\b", buys), f"no source for {buys}"  # the change that measured it
    readme = (root / "README.md").read_text(encoding="utf-8")
    for name in sorted(set(re.findall(r"\bBENCH_\d+\.json\b", readme))):  # each cited BENCH file, run by run
        runs = json.loads((root / name).read_text(encoding="utf-8"))["runs"]
        assert runs, name
        for run in runs:  # the harness's own last line, kept verbatim
            result = json.loads(run["line"])
            assert (result["correct"], result["failed"]) == (True, 0), (name, run["command"])


def test_a_null_new_green_energy_is_rejected():
    raw = make_scenario_dict(
        renewables={"renewable_energy": 10.0, "source": "explicit", "new_green_energy": None}
    )
    with pytest.raises(ValidationError) as excinfo:
        scenario_from_dict(raw)
    assert (excinfo.value.field, str(excinfo.value)) == (
        "renewables.new_green_energy", "renewables.new_green_energy must be a number"
    )
    supply = RenewableSupplySpec.create(10, RenewableSource.EXPLICIT, new_green_energy=None)
    assert supply.new_green_energy == 10.0


def counting_models(monkeypatch):
    import portsim.renewables as renewables_module

    calls = []
    model = renewables_module.annual_generation
    monkeypatch.setattr(
        renewables_module, "annual_generation", lambda *args: calls.append(1) or model(*args)
    )
    return calls


def test_a_modeled_supply_is_modeled_once_per_scenario(monkeypatch):
    calls = counting_models(monkeypatch)
    model = annual_generation
    pv = [{"panel_area": 5000.0, "module_efficiency": 0.2}]
    stated = model([PvArraySpec.create(**pv[0])], []).total_annual_mwh
    raw = make_scenario_dict(
        renewables={"renewable_energy": stated, "source": "from_pv_wind_models"}, pv_arrays=pv
    )
    scenario = scenario_from_dict(raw)
    report = run_scenario(scenario)
    assert len(calls) == 1
    assert report.generation == model(scenario.pv_arrays, ())
    # the result is kept outside the fields
    twin = Scenario(*[getattr(scenario, name) for name in Scenario.__match_args__])
    assert twin == scenario and hash(twin) == hash(scenario) and repr(twin) == repr(scenario)
    assert run_scenario(pickle.loads(pickle.dumps(scenario))) == report
    assert run_scenario(with_shares(scenario, SectorShares(0.2, 0.3, 0.5))).generation == (
        report.generation
    )
    no_assets = replace(scenario.renewables, renewable_energy=0.0)
    changed = replace(scenario, pv_arrays=(), renewables=no_assets)
    assert run_scenario(changed).generation == model((), ())


DERIVED_SUPPLY = make_scenario_dict(
    renewables={"source": "from_pv_wind_models"},
    pv_arrays=[{"panel_area": 5000.0, "module_efficiency": 0.2}],
    wind_turbines=[{"swept_area": 2000.0, "wind_speed": 7.5, "operating_hours": 2500.0}],
)


def test_a_derived_supply_reports_as_its_stated_twin_and_its_overrides():
    from portsim import serialize_report

    scenario = scenario_from_dict(copy.deepcopy(DERIVED_SUPPLY))
    generation = annual_generation(scenario.pv_arrays, scenario.wind_turbines)
    # the twin states the value the assets model, which the file leaves to them
    twin = copy.deepcopy(DERIVED_SUPPLY)
    twin["renewables"]["renewable_energy"] = generation.total_annual_mwh
    stated = scenario_from_dict(twin)
    assert stated == scenario
    for fmt in ("json", "csv"):
        assert serialize_report(run_scenario(stated), fmt) == serialize_report(
            run_scenario(scenario), fmt
        )
    overridden = with_shares(scenario, SectorShares(0.2, 0.3, 0.5))
    overridden = with_weights(overridden, ObjectiveWeights(w_energy=2.0))
    assert run_scenario(overridden).generation == generation
    # the same assets in new tuples are modeled again, and agree
    fresh = replace(scenario, pv_arrays=tuple([*scenario.pv_arrays]))
    assert fresh == scenario and run_scenario(fresh).generation == generation


def test_new_assets_under_a_derived_supply_are_still_checked():
    scenario = scenario_from_dict(copy.deepcopy(DERIVED_SUPPLY))
    stated = scenario.renewables.renewable_energy
    other = (PvArraySpec.create(panel_area=6000.0, module_efficiency=0.2),)
    fields = [getattr(scenario, name) for name in Scenario.__match_args__]
    for build, pv_arrays, wind_turbines in [
        (lambda: replace(scenario, pv_arrays=other), other, scenario.wind_turbines),
        (lambda: Scenario(*fields[:6], other, *fields[7:]), other, scenario.wind_turbines),
        (lambda: replace(scenario, wind_turbines=()), scenario.pv_arrays, ()),
    ]:
        modeled = annual_generation(pv_arrays, wind_turbines).total_annual_mwh
        with pytest.raises(ValidationError) as excinfo:
            build()
        assert (excinfo.value.field, str(excinfo.value)) == (
            "renewables.renewable_energy",
            f"renewables.renewable_energy is {stated:.12g} but the PV/wind assets model "
            f"{modeled:.12g} MWh/yr",
        )


def test_a_derived_supply_pickles_and_copies_without_its_assets():
    from portsim import serialize_report

    scenario = scenario_from_dict(copy.deepcopy(DERIVED_SUPPLY))
    supply = scenario.renewables
    kept = supply.__dict__.keys()
    assert scenario_module._IN_RANGE not in kept  # a supply is never marked: the check walks it
    assert b"PvArraySpec" not in pickle.dumps(supply)
    for twin in (pickle.loads(pickle.dumps(supply)), copy.deepcopy(supply)):
        assert twin == supply and twin.__dict__.keys() == kept
    # a Scenario still carries what its check modeled, and reports the same
    report = serialize_report(run_scenario(scenario), "json")
    for twin in (pickle.loads(pickle.dumps(scenario)), copy.deepcopy(scenario)):
        assert twin._generation == scenario._generation is not None
        assert serialize_report(run_scenario(twin), "json") == report


def records_of(scenario):
    """Each record a file describes, in the order of ``TABLES``."""
    return [scenario.throughput, scenario.shares, scenario.factors, scenario.renewables,
            scenario.pv_arrays[0], scenario.wind_turbines[0], scenario.costs,
            scenario.objective_weights]


@pytest.mark.parametrize("weights", [{}, {"w_energy": 2.0, "renewables_reduce_score": False}])
def test_a_record_read_in_one_walk_behaves_like_one_built_by_hand(weights):
    import dataclasses

    from portsim._record import asdict as record_asdict
    from portsim._record import replace as record_replace

    raw = copy.deepcopy(DERIVED_SUPPLY)
    raw["objective_weights"] = weights
    scenario = scenario_from_dict(raw)
    for (cls, _, _), record in zip(TABLES, records_of(scenario)):
        marked = scenario_module._IN_RANGE in record.__dict__  # every record but the supply took the walk
        assert marked is (cls is not RenewableSupplySpec), cls
        twin = cls(*[getattr(record, name) for name in cls.__match_args__])
        assert scenario_module._IN_RANGE not in twin.__dict__
        assert record == twin and twin == record and not record != twin
        assert hash(record) == hash(twin) and repr(record) == repr(twin)
        assert pickle.loads(pickle.dumps(record)) == twin
        assert copy.deepcopy(record) == twin
        assert record_asdict(record) == record_asdict(twin) == dataclasses.asdict(twin)
        assert dataclasses.asdict(record) == dataclasses.asdict(twin)
        for again in (record_replace(record), dataclasses.replace(record)):
            assert again == twin and scenario_module._IN_RANGE not in again.__dict__
        assert [f.name for f in dataclasses.fields(record)] == list(cls.__match_args__)
    # and so does a Scenario holding them
    twin = Scenario(*[getattr(scenario, name) for name in Scenario.__match_args__])
    assert twin == scenario and hash(twin) == hash(scenario) and repr(twin) == repr(scenario)
    assert scenario_to_json(twin) == scenario_to_json(scenario)
    assert run_scenario(twin) == run_scenario(scenario)


#: Assets in range whose derived power is not, with the error the program gave before the
#: one-walk read marked records in range: the derived field, checked by the Scenario.
DERIVED_OVERFLOWS = [
    ("pv_arrays", {"panel_area": 1e308, "irradiance": 10.0, "module_efficiency": 1.0},
     "pv_arrays[0].peak_power", "pv_arrays[0].peak_power must be finite, got inf"),
    ("pv_arrays", {"panel_area": 1e308, "irradiance": 10.0, "module_efficiency": 0.0},
     "pv_arrays[0].peak_power", "pv_arrays[0].peak_power must be finite, got nan"),
    ("wind_turbines", {"swept_area": 1e308, "wind_speed": 100.0, "operating_hours": 1.0},
     "wind_turbines[0].average_power", "wind_turbines[0].average_power must be finite, got inf"),
    ("wind_turbines", {"swept_area": 1e308, "wind_speed": 1e200, "operating_hours": 1.0,
                       "power_coefficient": 1e-300},
     "wind_turbines[0].average_power", "wind_turbines[0].average_power must be finite, got inf"),
]


@pytest.mark.parametrize("key, item, field, message", DERIVED_OVERFLOWS,
                         ids=["pv-inf", "pv-nan", "wind-inf", "wind-cube-inf"])
def test_a_derived_power_out_of_range_is_rejected(key, item, field, message):
    for exact in (False, True):  # the one-walk read, then the exact path
        raw = make_scenario_dict(**{key: [item]})
        if exact:
            raw[key] = [MappingProxyType(item)]
        with pytest.raises(ValidationError) as excinfo:
            scenario_from_dict(raw)
        assert (excinfo.value.field, str(excinfo.value)) == (field, message)


def test_a_reader_that_marks_a_derived_power_out_of_range_fails_a_test(monkeypatch):
    # a one-line mutation of _parse_records: without the derived-field break, an asset whose
    # peak_power overflowed is marked, and the Scenario's check passes it
    assert_the_test_catches(
        monkeypatch, lambda: test_a_derived_power_out_of_range_is_rejected(*DERIVED_OVERFLOWS[0]),
        "scenario_from_dict", scenario_module,
        "# an overflow to inf, or a NaN\n                            break",
        "# an overflow to inf, or a NaN\n                            pass",
    )


@pytest.mark.parametrize("pattern, case", [
    ("if pv.__class__ is not PvArraySpec or _IN_RANGE", 0),
    ("if wt.__class__ is not WindTurbineSpec or _IN_RANGE", 2),
], ids=["pv", "wind"])
def test_a_scenario_check_that_passes_an_unmarked_asset_fails_a_test(monkeypatch, pattern, case):
    # a one-line mutation of _check_scenario's asset test, ``or`` made ``and``: an asset of the
    # right class is then passed unchecked whether or not the parse marked it in range
    assert_the_test_catches(
        monkeypatch, lambda: test_a_derived_power_out_of_range_is_rejected(*DERIVED_OVERFLOWS[case]),
        "scenario_from_dict", scenario_module, pattern, pattern.replace(" or ", " and "),
    )


def test_a_record_check_that_reads_the_mark_before_the_class_fails_a_test(monkeypatch):
    # a one-line mutation of _check_record: a record of another class that the parse marked in
    # range (here the file's shares, given as a PV array) passes unchecked
    defect = next(case for case in HAND_BUILT_DEFECTS if case[1] == "pv_arrays[0]")
    pattern = "    if record.__class__ is not table.cls:  # tested before the mark"
    assert_the_test_catches(
        monkeypatch,
        lambda: test_invalid_scenario_cannot_be_built(scenario_from_dict(make_scenario_dict()), *defect),
        "scenario_from_dict", scenario_module,
        pattern, "    if _IN_RANGE in record.__dict__:\n        return\n" + pattern,
    )


@pytest.mark.parametrize("cls, table, where", TABLES, ids=[cls.__name__ for cls, _, _ in TABLES])
def test_every_table_default_lies_in_its_range(cls, table, where):
    # a record read in one walk takes its constant defaults unchecked
    for name, low, high, _, default in table.rows.values():
        if default is not REQUIRED and default is not None:
            assert type(default) is float and low <= default <= high, name


# ---------------------------------------------------------------------------
# A record of finite floats is read in one walk; anything else takes the exact path
# ---------------------------------------------------------------------------

#: Each record a file holds as a dict of numbers, by its key, as its table. Assets are read
#: as a list, the others one at a time, weights with their flag riding through.
RECORDS = {
    "pv_arrays": scenario_module._PV,
    "wind_turbines": scenario_module._WIND,
    "throughput": scenario_module._THROUGHPUT,
    "shares": scenario_module._SHARES,
    "factors": scenario_module._FACTORS,
    "costs": scenario_module._COSTS,
    "objective_weights": scenario_module._WEIGHTS,
}
ASSET_KEYS = {"pv_arrays", "wind_turbines"}

FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
ANY_VALUES = st.one_of(
    FINITE_FLOATS,
    st.integers(min_value=-(10**6), max_value=10**6),
    st.sampled_from([10**400, -(10**400), True, False, "1.0", None, math.nan, math.inf, -math.inf]),
)


@st.composite
def record_items(draw, key):
    table = RECORDS[key]
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from([None, [], "pv", 3.0, [1.0], ()]))
    # A required key is there three times in four, any other key once in four. A third of
    # the objects hold finite floats only, which the one walk takes when their keys are
    # right, and a third floats of any kind, NaN and the infinities among them. Weights
    # hold their flag half the time, of any type: only the Scenario's check tests it.
    names = []
    for name in [*table.rows, "colour"]:
        if draw(st.integers(0, 3)) >= (1 if name in table.required else 3):
            names.append(name)
    values = draw(st.sampled_from([FINITE_FLOATS, st.floats(), ANY_VALUES]))
    item = {name: draw(values) for name in draw(st.permutations(names))}
    if key == "objective_weights" and draw(st.booleans()):
        item["renewables_reduce_score"] = draw(st.sampled_from([True, False, 1, "yes", None]))
    return item


def outcome(read):
    """The record read, as its repr (so 1 and 1.0 differ), or the error's field and message."""
    try:
        return repr(read())
    except ValidationError as exc:
        return exc.field, str(exc)


def one_walk_and_exact(key, item):
    """Two reads of ``item`` as the record under ``key``: as a file's is read, and by the exact
    path alone, which a Mapping that is not a dict always takes."""
    table = RECORDS[key]
    exact_item = MappingProxyType(item) if isinstance(item, dict) else item
    if key in ASSET_KEYS:
        return (lambda: scenario_module._parse_assets({key: [item]}, key, table)[0],
                lambda: table.build(**scenario_module._parse_numbers(exact_item, table, f"{key}[0]")))
    return (lambda: scenario_module._parse_record(item, table, key),
            lambda: table.build(**scenario_module._parse_numbers(exact_item, table, key)))


RECORD_CASES = st.sampled_from(sorted(RECORDS)).flatmap(
    lambda key: st.tuples(st.just(key), record_items(key))
)


@settings(max_examples=350)  # about as many asset cases as before the single records joined
@given(RECORD_CASES)
@example(("pv_arrays", {"panel_area": math.nan, "module_efficiency": 0.2}))
@example(("wind_turbines", {"swept_area": 1.0, "wind_speed": -math.inf, "operating_hours": 2.0}))
@example(("pv_arrays", {"module_efficiency": 0.2, "panel_area": 10, "peak_power": 1e308}))
@example(("pv_arrays", {"panel_area": 5000.0}))  # a required key missing: create raises TypeError
@example(("wind_turbines", {}))
@example(("throughput", {"teu_per_year": 1e6}))
@example(("shares", {"equipment_share": 0.5, "transport_share": 0.3, "buildings_share": 0.2,
                     "colour": 1.0}))
@example(("costs", {"baseline_cost_per_teu": 250, "optimized_cost_per_teu": 175.0}))
@example(("objective_weights", {"w_energy": 2.0}))
@example(("objective_weights", {"w_energy": 2.0, "renewables_reduce_score": False}))
@example(("objective_weights", {"w_energy": -1.0, "renewables_reduce_score": "yes"}))
def test_one_walk_read_matches_the_exact_path(case):
    key, item = case
    fast, exact = one_walk_and_exact(key, item)
    assert outcome(fast) == outcome(exact)
    # a record the one-walk read marks in range passes the range check that the mark skips
    try:
        record = fast()
    except ValidationError:
        return
    assert scenario_module._IN_RANGE not in exact().__dict__
    if scenario_module._IN_RANGE in record.__dict__:
        scenario_module._check_record(replace(record), RECORDS[key], key, 0 if key in ASSET_KEYS else None)


def test_a_file_s_assets_are_read_once_per_list_and_checked_inline(monkeypatch):
    # 16 PV arrays and 24 turbines, as the largest documents of a parameter sweep: each list
    # enters the reader once, and the Scenario's check calls _check_record for the single
    # records only, passing every marked asset without a call
    entered, checked = [], []
    parse_records, check_record = scenario_module._parse_records, scenario_module._check_record

    def counting_parse_records(raws, table, where, indexed=True):
        entered.append((where, len(raws)))
        return parse_records(raws, table, where, indexed)

    def counting_check_record(record, table, where, index=None):
        checked.append(where if index is None else f"{where}[{index}]")
        check_record(record, table, where, index)

    monkeypatch.setattr(scenario_module, "_parse_records", counting_parse_records)
    monkeypatch.setattr(scenario_module, "_check_record", counting_check_record)
    raw = make_scenario_dict(
        renewables={"source": "from_pv_wind_models"},
        pv_arrays=[{"panel_area": 4000.0 + i, "module_efficiency": 0.2} for i in range(16)],
        wind_turbines=[
            {"swept_area": 2000.0, "wind_speed": 6.0 + i / 8, "operating_hours": 2500.0}
            for i in range(24)
        ],
    )
    scenario = validate_scenario(scenario_from_json(json.dumps(raw)))
    assert [where for where, _ in entered if where in ("pv_arrays", "wind_turbines")] == [
        "pv_arrays", "wind_turbines"
    ]
    assert ("pv_arrays", 16) in entered and ("wind_turbines", 24) in entered
    assert checked == ["throughput", "shares", "factors", "renewables", "costs", "objective_weights"]
    assert all(scenario_module._IN_RANGE in asset.__dict__
               for asset in (*scenario.pv_arrays, *scenario.wind_turbines))


def test_a_record_at_the_ends_of_its_ranges_is_read_in_one_walk_and_marked():
    # every range is closed: 0.0, the largest float, a fraction's 1.0, the Betz limit and the
    # smallest positive float are in range, so every record but the supply is marked
    raw = make_scenario_dict(
        throughput={"teu_per_year": 0.0, "unit_energy": 0.0},
        shares={"equipment_share": 1.0, "transport_share": 0.0, "buildings_share": 0.0},
        factors=dict.fromkeys(scenario_module._FACTORS.rows, 0.0),
        costs={"baseline_cost_per_teu": 0.0, "optimized_cost_per_teu": sys.float_info.max},
        pv_arrays=[{"panel_area": 0.0, "module_efficiency": 1.0, "performance_ratio": 1.0}],
        wind_turbines=[{"swept_area": 0.0, "wind_speed": 0.0, "operating_hours": 0.0,
                        "power_coefficient": BETZ_LIMIT}],
        objective_weights={"w_energy": 0.0, "norm_energy": 5e-324},
    )
    scenario = scenario_from_dict(raw)
    for (cls, _, _), record in zip(TABLES, records_of(scenario)):
        assert (scenario_module._IN_RANGE in record.__dict__) is (cls is not RenewableSupplySpec), cls


def test_a_reader_whose_ranges_are_open_at_the_low_end_fails_a_test(monkeypatch):
    # a one-line mutation of _parse_records: a value at the low end of its range misses the walk
    assert_the_test_catches(
        monkeypatch, test_a_record_at_the_ends_of_its_ranges_is_read_in_one_walk_and_marked,
        "scenario_from_dict", scenario_module,
        "not low <= value <= high) and", "not low < value <= high) and",
    )


def test_an_asset_missing_a_required_key_is_named_by_the_exact_path():
    # create raises TypeError without the key, which sends the dict down the exact path
    with pytest.raises(ValidationError) as excinfo:
        scenario_from_dict(make_scenario_dict(pv_arrays=[{"panel_area": 5000.0}]))
    assert str(excinfo.value) == "missing required key 'module_efficiency' in pv_arrays[0]"


def test_a_reader_that_lets_create_s_type_error_out_fails_a_test(monkeypatch):
    # a one-line mutation of _parse_records: create's TypeError escapes the read
    assert_the_test_catches(
        monkeypatch, test_an_asset_missing_a_required_key_is_named_by_the_exact_path,
        "scenario_from_dict", scenario_module,
        "except (KeyError, TypeError):", "except KeyError:", fails_with=TypeError,
    )


PV = {"panel_area": 100.0, "module_efficiency": 0.2}

#: Documents with two defects, and the error found first. The first two are as before
#: records were read in one walk: key and type errors of every record come before any range
#: error. The JSON shape of a list is found before the Scenario's checks of a name or notes;
#: notes that are no list are found after every other parse error, before those checks.
TWO_DEFECTS = [
    (
        make_scenario_dict(
            pv_arrays=[PV, {**PV, "module_efficiency": 1.5}], throughput={"teu_per_year": 1e6}
        ),
        "throughput.unit_energy",
        "missing required key 'unit_energy' in throughput",
    ),
    (
        make_scenario_dict(
            pv_arrays=[{**PV, "panel_area": "big"}],
            shares={"equipment_share": 0.5, "transport_share": 0.3, "buildings_share": 0.3},
        ),
        "pv_arrays[0].panel_area",
        "pv_arrays[0].panel_area must be a number",
    ),
    (
        make_scenario_dict(name=5, pv_arrays={"panel_area": 1.0}),
        "pv_arrays",
        "pv_arrays must be a list",
    ),
    (
        make_scenario_dict(notes=[42], dispatch_matrix=[1.0, 2.0]),
        "dispatch_matrix",
        "dispatch_matrix must be a list of rows",
    ),
    (
        make_scenario_dict(renewables={"renewable_energy": 1.0, "source": 1}, notes=[42]),
        "renewables.source",
        "renewables.source must be one of ['explicit', 'from_pv_wind_models'], got 1",
    ),
    (
        make_scenario_dict(
            notes="hi", shares={"equipment_share": 0.5, "transport_share": 0.3, "buildings_share": 0.3}
        ),
        "notes",
        "notes must be a list",
    ),
]


@pytest.mark.parametrize(
    "raw, field, message",
    TWO_DEFECTS,
    ids=["range-and-key", "type-and-sum", "assets-and-name", "matrix-and-notes", "source-and-notes", "notes-and-sum"],
)
def test_the_first_of_two_defects_is_reported(raw, field, message):
    with pytest.raises(ValidationError) as excinfo:
        scenario_from_dict(raw)
    assert (excinfo.value.field, str(excinfo.value)) == (field, message)


# ---------------------------------------------------------------------------
# Objective weights: the boolean flag does not keep the numbers off the one walk
# ---------------------------------------------------------------------------


def test_weights_with_the_flag_are_read_in_one_walk(monkeypatch):
    checked = []
    check_keys = scenario_module._check_keys

    def recording_check_keys(raw, allowed, required, where):
        checked.append(where)
        check_keys(raw, allowed, required, where)

    monkeypatch.setattr(scenario_module, "_check_keys", recording_check_keys)
    weights = {"w_energy": 2.0, "renewables_reduce_score": False}
    scenario = scenario_from_dict(make_scenario_dict(objective_weights=weights))
    assert scenario.objective_weights == ObjectiveWeights(w_energy=2.0, renewables_reduce_score=False)
    assert "objective_weights" not in checked
    assert scenario_module._IN_RANGE in scenario.objective_weights.__dict__
    assert weights == {"w_energy": 2.0, "renewables_reduce_score": False}  # the input is left as it was


def test_a_reader_that_sends_the_flag_down_the_exact_path_fails_a_test(monkeypatch):
    # a one-line mutation of _parse_records: without the others test, the flag, no float, sends
    # the weights down the exact path, unmarked (the spy sees only the real module's calls)
    assert_the_test_catches(
        monkeypatch, lambda: test_weights_with_the_flag_are_read_in_one_walk(monkeypatch),
        "scenario_from_dict", scenario_module, ") and key not in others:", "):",
    )


#: Weights objects holding the flag and a defect, with the error the program gave before
#: the flag was taken out ahead of the walk: key and number errors first, then the flag,
#: and the flag before any range error.
WEIGHT_DEFECTS = [
    ({"w_emissions": "x", "renewables_reduce_score": 1},
     "objective_weights.w_emissions", "objective_weights.w_emissions must be a number"),
    ({"renewables_reduce_score": 1, "colour": 1.0},
     "objective_weights.colour", "unknown key 'colour' in objective_weights"),
    ({"renewables_reduce_score": "yes", "w_energy": 2},
     "objective_weights.renewables_reduce_score",
     "objective_weights.renewables_reduce_score must be a boolean"),
    ({"renewables_reduce_score": 1, "w_energy": -2.0},
     "objective_weights.renewables_reduce_score",
     "objective_weights.renewables_reduce_score must be a boolean"),
]


@pytest.mark.parametrize(
    "weights, field, message", WEIGHT_DEFECTS, ids=["number", "unknown-key", "flag", "flag-and-range"]
)
def test_weights_errors_keep_their_order(weights, field, message):
    for weights_raw in (weights, MappingProxyType(weights)):
        raw = make_scenario_dict()
        raw["objective_weights"] = weights_raw
        with pytest.raises(ValidationError) as excinfo:
            scenario_from_dict(raw)
        assert (excinfo.value.field, str(excinfo.value)) == (field, message)


# ---------------------------------------------------------------------------
# Scenario text is read by json's C scanner, with json.loads's outcome for any text
# ---------------------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=12,
)
#: JSON's whitespace, and characters that are whitespace to str.strip but not to JSON
PADDING = st.text(alphabet=" \t\n\r\x0b\x0c\xa0\u2028", max_size=3)


@st.composite
def json_texts(draw):
    """A document as json.dumps writes it, padded, and one time in two with a few
    characters spliced in or cut out, which mostly makes it invalid."""
    text = json.dumps(
        draw(JSON_VALUES), ensure_ascii=draw(st.booleans()), indent=draw(st.none() | st.just(2))
    )
    text = draw(PADDING) + text + draw(PADDING)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 2))
        splice = draw(st.text(alphabet='{}[]",:\\ 0-.eEaNI\ufeff\x01', max_size=2))
        text = text[:at] + splice + text[at + cut:]
    return text


JSON_EDGE_CASES = {
    "bom": "\ufeff{}",
    "bom-only": "\ufeff",
    "empty": "",
    "whitespace-only": " \t\n\r",
    "trailing-data": '{"a": 1} x',
    "two-values": "1 2",
    "trailing-whitespace": '  {"a": [1, 2.5, true, null]} \n\t\r',
    "not-json-whitespace": "\x0c{}\xa0",
    "constants": "[NaN, Infinity, -Infinity]",
    "long-int": "9" * 5000,
    "control-character": '{"name": "a\x01b"}',
    "nesting": "[" * 100_000,
    "truncated": '{"name": "x", "shares": {',
    "repeated-key": '{"a": 1, "a": 2}',
    "lone-surrogate": '"\\ud800"',
    "bytes": b'{"a": [1.5]}',
}


def json_outcome(read, text):
    """What reading ``text`` gives: the value's repr (so 1, 1.0 and True differ and NaN
    equals NaN), or the exception's type and text."""
    try:
        return repr(read(text))
    except (ValueError, RecursionError) as exc:
        return type(exc).__name__, str(exc)


def assert_reads_like_json_loads(text, with_c_scanner):
    with pytest.MonkeyPatch.context() as mp:
        if not with_c_scanner:  # as on an interpreter without the _json accelerator
            mp.setitem(sys.modules, "_json", None)
            mp.setattr(scenario_module._Json, "scan", None)
        assert json_outcome(scenario_module._loads, text) == json_outcome(json.loads, text)


@pytest.mark.parametrize("with_c_scanner", [True, False], ids=["c-scanner", "no-_json"])
@pytest.mark.parametrize("text", JSON_EDGE_CASES.values(), ids=JSON_EDGE_CASES.keys())
def test_scenario_text_edge_cases_read_like_json_loads(text, with_c_scanner):
    assert_reads_like_json_loads(text, with_c_scanner)


@given(json_texts(), st.booleans())
def test_scenario_text_reads_like_json_loads(text, with_c_scanner):
    assert_reads_like_json_loads(text, with_c_scanner)


def test_a_fresh_interpreter_reads_like_json_loads():
    # Before Python 3.12 the C scanner can raise its syntax errors only when json.decoder
    # is loaded, and a cold `portsim validate FILE` has not loaded it: each text is read
    # with json unloaded again.
    src = os.path.dirname(os.path.dirname(os.path.abspath(scenario_module.__file__)))
    code = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "from portsim.scenario import _loads\n"
        "outcomes = []\n"
        f"for text in {list(JSON_EDGE_CASES.values())!r}:\n"
        "    for name in [m for m in sys.modules if m == 'json' or m.startswith('json.')]:\n"
        "        del sys.modules[name]\n"
        "    try:\n"
        "        outcomes.append(repr(_loads(text)))\n"
        "    except (ValueError, RecursionError) as exc:\n"
        "        outcomes.append((type(exc).__name__, str(exc)))\n"
        "print(repr(outcomes))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-E", "-S", "-c", code], capture_output=True, text=True, check=True
    )
    expected = [json_outcome(json.loads, text) for text in JSON_EDGE_CASES.values()]
    assert ast.literal_eval(proc.stdout) == expected


def test_the_scanner_is_built_once():
    scenario_module._loads("{}")
    scan = scenario_module._Json.scan
    assert scan is not None
    assert scenario_module._loads('{"a": [1]}') == {"a": [1]} and scenario_module._Json.scan is scan
