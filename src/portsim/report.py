"""Scenario pipeline and report serialization.

``run_scenario`` wires the engines together: energy, emissions, modeled
generation (when the scenario derives its supply from assets), AGV
dispatch (when a matrix is present), costs and the objective score. The
result is a plain immutable record that serializes to JSON (machine
readable, full precision, round-trippable) or CSV (one metric per row:
``metric,value,unit``, plot-ready).

Reports are deterministic: the same scenario always produces the same
bytes, and every number in them is finite. Presentation rounding happens
only in ``summarize``, the human-readable digest printed by the CLI on
the error stream.
"""

from __future__ import annotations

import json
import math
import sys

from ._record import record
from .dispatch import Assignment, solve_assignment
from .economics import CostReport, cost_report
from .emissions import EmissionsResult, evaluate_emissions
from .energy import EnergyResult, evaluate_energy
from .errors import DispatchError, ValidationError
from .objective import ObjectiveScore, score_scenario
from .renewables import GenerationResult, annual_generation
from .scenario import RenewableSource, Scenario, SectorEnergyBreakdown

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any

_MAX = sys.float_info.max


@record
class SimulationReport:
    scenario_name: str
    energy: EnergyResult
    emissions: EmissionsResult
    generation: GenerationResult | None
    assignment: Assignment | None
    costs: CostReport
    objective: ObjectiveScore
    flags: tuple[str, ...]


def run_scenario(scenario: Scenario) -> SimulationReport:
    """Evaluate one scenario into a full report.

    The scenario was checked when it was built and is not checked again.
    The report is checked instead: if one of its numbers is not finite
    (the scenario's values overflow), :class:`ValidationError` names the
    first one by its report path, e.g. ``emissions.baseline_emissions``.
    """
    renewable = scenario.renewables.renewable_energy

    energy = evaluate_energy(scenario.throughput, scenario.shares, renewable)
    emissions = evaluate_emissions(
        sectors=energy.baseline_by_sector,
        factors=scenario.factors,
        renewable_energy=renewable,
        green_energy=scenario.renewables.new_green_energy,
        baseline_energy_mwh=energy.baseline_total,
        optimized_energy_mwh=energy.optimized_total,
    )

    generation = None
    if scenario.renewables.source is RenewableSource.FROM_PV_WIND_MODELS:
        generation = annual_generation(scenario.pv_arrays, scenario.wind_turbines)

    assignment = None
    if scenario.dispatch_matrix is not None:
        try:
            assignment = solve_assignment(scenario.dispatch_matrix)
        except DispatchError as exc:  # a checked matrix fails only when its total overflows
            raise ValidationError("assignment.total_cost", f"assignment.total_cost: {exc}") from None

    costs = cost_report(scenario.throughput.teu_per_year, scenario.costs)
    objective = score_scenario(
        emissions=emissions.optimized_emissions,
        energy=energy.optimized_total,
        dispatch_cost=assignment.total_cost if assignment is not None else 0.0,
        renewable_energy=renewable,
        weights=scenario.objective_weights,
    )

    flags: list[str] = []
    if renewable > energy.baseline_total:
        flags.append("renewables exceed demand: optimized energy clamped to zero")
    if emissions.renewable_credit > emissions.baseline_emissions:
        flags.append("renewable credit exceeds emissions: optimized emissions clamped to zero")
    flags.extend(scenario.notes)

    report = SimulationReport(
        scenario_name=scenario.name,
        energy=energy,
        emissions=emissions,
        generation=generation,
        assignment=assignment,
        costs=costs,
        objective=objective,
        flags=tuple(flags),
    )
    _reject_non_finite(report)
    return report


def _reject_non_finite(report: SimulationReport) -> None:
    """Raise naming the first inf or NaN in the report."""
    e = report.energy
    for section, record in (
        ("energy", e),
        ("energy.baseline_by_sector", e.baseline_by_sector),
        ("emissions", report.emissions),
        ("generation", report.generation),
        ("assignment", report.assignment),
        ("costs", report.costs),
        ("objective", report.objective),
    ):
        if record is None:
            continue
        for name, value in vars(record).items():
            if type(value) is float and not -_MAX <= value <= _MAX:
                path = f"{section}.{name}"
                raise ValidationError(
                    path, f"{path} is {value}: the scenario's values overflow the report"
                )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def report_to_dict(report: SimulationReport) -> dict[str, Any]:
    e = report.energy
    m = report.emissions
    c = report.costs
    o = report.objective
    return {
        "scenario_name": report.scenario_name,
        "energy": {
            "baseline_total": e.baseline_total,
            "baseline_by_sector": {
                "equipment": e.baseline_by_sector.equipment,
                "transport": e.baseline_by_sector.transport,
                "buildings": e.baseline_by_sector.buildings,
            },
            "optimized_total": e.optimized_total,
            "reduction_fraction": e.reduction_fraction,
        },
        "emissions": {
            "baseline_emissions": m.baseline_emissions,
            "optimized_emissions": m.optimized_emissions,
            "reduction": m.reduction,
            "renewable_credit": m.renewable_credit,
            "baseline_intensity": m.baseline_intensity,
            "optimized_intensity": m.optimized_intensity,
            "substitution_efficiency": m.substitution_efficiency,
        },
        "generation": (
            None
            if report.generation is None
            else {
                "pv_annual": report.generation.pv_annual,
                "wind_annual": report.generation.wind_annual,
                "total_annual_mwh": report.generation.total_annual_mwh,
            }
        ),
        "assignment": (
            None
            if report.assignment is None
            else {
                "mapping": list(report.assignment.mapping),
                "total_cost": report.assignment.total_cost,
            }
        ),
        "costs": {
            "per_teu_baseline": c.per_teu_baseline,
            "per_teu_optimized": c.per_teu_optimized,
            "per_teu_savings": c.per_teu_savings,
            "total_baseline": c.total_baseline,
            "total_optimized": c.total_optimized,
            "total_savings": c.total_savings,
            "savings_fraction": c.savings_fraction,
        },
        "objective": {
            "total": o.total,
            "emissions_term": o.emissions_term,
            "energy_term": o.energy_term,
            "dispatch_term": o.dispatch_term,
            "renewables_term": o.renewables_term,
        },
        "flags": list(report.flags),
    }


def report_from_dict(raw: dict[str, Any]) -> SimulationReport:
    energy = EnergyResult(
        baseline_total=raw["energy"]["baseline_total"],
        baseline_by_sector=SectorEnergyBreakdown(**raw["energy"]["baseline_by_sector"]),
        optimized_total=raw["energy"]["optimized_total"],
        reduction_fraction=raw["energy"]["reduction_fraction"],
    )
    emissions = EmissionsResult(**raw["emissions"])
    generation = None if raw["generation"] is None else GenerationResult(**raw["generation"])
    assignment = None
    if raw["assignment"] is not None:
        assignment = Assignment(
            mapping=tuple(raw["assignment"]["mapping"]),
            total_cost=raw["assignment"]["total_cost"],
        )
    return SimulationReport(
        scenario_name=raw["scenario_name"],
        energy=energy,
        emissions=emissions,
        generation=generation,
        assignment=assignment,
        costs=CostReport(**raw["costs"]),
        objective=ObjectiveScore(**raw["objective"]),
        flags=tuple(raw["flags"]),
    )


def report_from_json(data: bytes | str) -> SimulationReport:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        raw = json.loads(data)
    # JSONDecodeError, an int beyond Python's digit limit, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise ValidationError("report", f"invalid report JSON: {exc}") from None
    return report_from_dict(raw)


def _format_value(value: float) -> str:
    """Integral values print without a trailing ``.0``; others at full precision."""
    if value == int(value) and abs(value) < 1e15 and not math.isnan(value):
        return str(int(value))
    return repr(value)


def _csv_rows(report: SimulationReport) -> list[tuple[str, float, str]]:
    e = report.energy
    m = report.emissions
    c = report.costs
    o = report.objective
    rows = [
        ("baseline_total_mwh", e.baseline_total, "MWh"),
        ("equipment_energy_mwh", e.baseline_by_sector.equipment, "MWh"),
        ("transport_energy_mwh", e.baseline_by_sector.transport, "MWh"),
        ("buildings_energy_mwh", e.baseline_by_sector.buildings, "MWh"),
        ("optimized_total_mwh", e.optimized_total, "MWh"),
        ("energy_reduction_fraction", e.reduction_fraction, "fraction"),
        ("baseline_emissions_kg", m.baseline_emissions, "kg CO2"),
        ("optimized_emissions_kg", m.optimized_emissions, "kg CO2"),
        ("emission_reduction_kg", m.reduction, "kg CO2"),
        ("renewable_credit_kg", m.renewable_credit, "kg CO2"),
        ("baseline_intensity", m.baseline_intensity, "kg CO2/MWh"),
        ("optimized_intensity", m.optimized_intensity, "kg CO2/MWh"),
        ("substitution_efficiency", m.substitution_efficiency, "kg CO2/MWh"),
    ]
    if report.generation is not None:
        rows += [
            ("pv_annual_kwh", report.generation.pv_annual, "kWh"),
            ("wind_annual_kwh", report.generation.wind_annual, "kWh"),
            ("modeled_renewable_mwh", report.generation.total_annual_mwh, "MWh"),
        ]
    if report.assignment is not None:
        rows.append(("dispatch_total_cost", report.assignment.total_cost, "km"))
    rows += [
        ("per_teu_baseline", c.per_teu_baseline, "USD/TEU"),
        ("per_teu_optimized", c.per_teu_optimized, "USD/TEU"),
        ("per_teu_savings", c.per_teu_savings, "USD/TEU"),
        ("total_baseline_usd", c.total_baseline, "USD"),
        ("total_optimized_usd", c.total_optimized, "USD"),
        ("total_savings_usd", c.total_savings, "USD"),
        ("savings_fraction", c.savings_fraction, "fraction"),
        ("objective_total", o.total, "score"),
        ("objective_emissions_term", o.emissions_term, "score"),
        ("objective_energy_term", o.energy_term, "score"),
        ("objective_dispatch_term", o.dispatch_term, "score"),
        ("objective_renewables_term", o.renewables_term, "score"),
    ]
    return rows


def serialize_report(report: SimulationReport, format: str) -> bytes:
    """Serialize to ``"json"`` (structured) or ``"csv"`` (tabular) bytes."""
    if format == "json":
        text = json.dumps(report_to_dict(report), indent=2, allow_nan=False)
        return (text + "\n").encode("utf-8")
    if format == "csv":
        lines = ["metric,value,unit"]
        lines += [f"{name},{_format_value(value)},{unit}" for name, value, unit in _csv_rows(report)]
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unknown report format {format!r} (expected 'json' or 'csv')")


def summarize(report: SimulationReport) -> str:
    """Short human-readable digest; values rounded for presentation only."""
    e = report.energy
    m = report.emissions
    c = report.costs
    lines = [
        f"scenario: {report.scenario_name}",
        f"  energy: {_format_value(e.baseline_total)} -> {_format_value(e.optimized_total)} MWh"
        f" ({e.reduction_fraction * 100:.1f}% lower)",
        f"  emissions: {_format_value(m.baseline_emissions)} -> "
        f"{_format_value(m.optimized_emissions)} kg CO2"
        f" ({_format_value(m.reduction)} kg avoided)",
        f"  carbon intensity: {m.baseline_intensity:.2f} -> {m.optimized_intensity:.2f} kg CO2/MWh",
        f"  substitution efficiency: {m.substitution_efficiency:.2f} kg CO2/MWh",
    ]
    if report.generation is not None:
        lines.append(
            f"  modeled renewables: {report.generation.total_annual_mwh:.1f} MWh/yr"
            f" (pv {report.generation.pv_annual:.0f} kWh, wind {report.generation.wind_annual:.0f} kWh)"
        )
    if report.assignment is not None:
        pairs = ", ".join(
            f"{i}->{'unassigned' if j is None else j}"
            for i, j in enumerate(report.assignment.mapping)
        )
        lines.append(
            f"  dispatch: total {_format_value(report.assignment.total_cost)} ({pairs})"
        )
    lines.append(
        f"  cost: ${c.total_baseline / 1e6:.1f}M -> ${c.total_optimized / 1e6:.1f}M"
        f" (savings ${c.total_savings / 1e6:.1f}M, {c.savings_fraction * 100:.1f}%)"
    )
    lines.append(f"  objective score: {_format_value(report.objective.total)}")
    for flag in report.flags:
        lines.append(f"  note: {flag}")
    return "\n".join(lines)
