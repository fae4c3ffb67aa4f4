import json
import math
from dataclasses import replace

import pytest

from portsim import (
    ValidationError,
    get_preset,
    report_from_json,
    run_scenario,
    scenario_from_dict,
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


def test_run_rejects_a_dispatch_total_past_the_float_range():
    scenario = scenario_from_dict(make_scenario_dict(dispatch_matrix=[[1e308, 1e308]] * 2))
    with pytest.raises(ValidationError) as excinfo:
        run_scenario(scenario)
    assert excinfo.value.field == "assignment.total_cost"


def test_json_refuses_a_number_that_is_not_finite(yangshan_report):
    # run_scenario rejects such a report; one built by hand is caught when serialized
    bad = replace(yangshan_report, objective=replace(yangshan_report.objective, total=math.nan))
    with pytest.raises(ValueError, match="not JSON compliant"):
        serialize_report(bad, "json")
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
