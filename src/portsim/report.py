"""Scenario pipeline and report serialization.

``run_scenario`` wires the engines together: energy, emissions, modeled
generation (as the scenario's check modeled it from the assets), AGV
dispatch (when a matrix is present), costs and the objective score. The
result is a plain immutable record that checks itself when it is built, by
``run_scenario``, ``report_from_json`` or a ``replace``, so every number in
it is a finite float and the writers check nothing. It serializes to JSON (full
precision, round-trippable) or CSV (one metric per row:
``metric,value,unit``, plot-ready). Every metric is declared once, in the
``_REPORT`` table, which both formats and the check walk; its rows follow
each record's fields, so the dict form walks the records themselves. The
JSON bytes are those of ``json.dumps(report_to_dict(r), indent=2)`` plus a
newline, written without it: non-ASCII characters as ``\\uXXXX`` escapes,
floats as Python's shortest ``repr``. Reports are deterministic;
presentation rounding happens only in ``summarize``, the CLI's digest.
"""

from __future__ import annotations

from ._record import asdict, record
from .dispatch import Assignment, format_number, solve_assignment
from .economics import CostReport, cost_report
from .emissions import EmissionsResult, evaluate_emissions
from .energy import EnergyResult, evaluate_energy
from .errors import DispatchError, ValidationError, _detached
from .objective import ObjectiveScore, score_scenario
from .renewables import GenerationResult
from .scenario import _MAX, _MIN, Scenario, SectorEnergyBreakdown, _loads

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any


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

    def __post_init__(self) -> None:
        _check_report(self)


def run_scenario(scenario: Scenario) -> SimulationReport:
    """Evaluate one scenario, checked when it was built, into a report that checks itself:
    if one of its numbers is not finite (the scenario's values overflow),
    :class:`ValidationError` names the first by its path, e.g. ``emissions.baseline_emissions``."""
    try:
        renewable = scenario.renewables.renewable_energy

        energy = evaluate_energy(scenario.throughput, scenario.shares, renewable)
        emissions = evaluate_emissions(
            sectors=energy.baseline_by_sector, factors=scenario.factors, renewable_energy=renewable,
            green_energy=scenario.renewables.new_green_energy,
            baseline_energy_mwh=energy.baseline_total, optimized_energy_mwh=energy.optimized_total,
        )

        assignment = None
        if scenario.dispatch_matrix is not None:
            try:
                assignment = solve_assignment(scenario.dispatch_matrix)
            except DispatchError as exc:  # a checked matrix fails only when its total overflows
                raise ValidationError("assignment.total_cost", f"assignment.total_cost: {exc}") from None

        costs = cost_report(scenario.throughput.teu_per_year, scenario.costs)
        objective = score_scenario(
            emissions=emissions.optimized_emissions, energy=energy.optimized_total,
            dispatch_cost=assignment.total_cost if assignment is not None else 0.0,
            renewable_energy=renewable, weights=scenario.objective_weights,
        )

        flags: list[str] = []
        if renewable > energy.baseline_total:
            flags.append("renewables exceed demand: optimized energy clamped to zero")
        if emissions.renewable_credit > emissions.baseline_emissions:
            flags.append("renewable credit exceeds emissions: optimized emissions clamped to zero")
        flags.extend(scenario.notes)

        generation = scenario._generation  # what the check modeled, if the assets give the supply
        return SimulationReport(
            scenario.name, energy, emissions, generation, assignment, costs, objective, tuple(flags)
        )
    except ValidationError as exc:  # raised again from here, without the report's frames or records
        energy = emissions = assignment = costs = objective = flags = None
        raise _detached(exc)


# Every report field, in report order; ``name`` is both the attribute and the JSON key.
# A number is (name, CSV metric, unit), a nested record is (name, its class, its
# rows), and any other field (a name, a list) is (name, None, None).
_REPORT = (
    ("scenario_name", None, None),
    ("energy", EnergyResult, (
        ("baseline_total", "baseline_total_mwh", "MWh"),
        ("baseline_by_sector", SectorEnergyBreakdown, (
            ("equipment", "equipment_energy_mwh", "MWh"),
            ("transport", "transport_energy_mwh", "MWh"),
            ("buildings", "buildings_energy_mwh", "MWh"),
        )),
        ("optimized_total", "optimized_total_mwh", "MWh"),
        ("reduction_fraction", "energy_reduction_fraction", "fraction"),
    )),
    ("emissions", EmissionsResult, (
        ("baseline_emissions", "baseline_emissions_kg", "kg CO2"),
        ("optimized_emissions", "optimized_emissions_kg", "kg CO2"),
        ("reduction", "emission_reduction_kg", "kg CO2"),
        ("renewable_credit", "renewable_credit_kg", "kg CO2"),
        ("baseline_intensity", "baseline_intensity", "kg CO2/MWh"),
        ("optimized_intensity", "optimized_intensity", "kg CO2/MWh"),
        ("substitution_efficiency", "substitution_efficiency", "kg CO2/MWh"),
    )),
    ("generation", GenerationResult, (
        ("pv_annual", "pv_annual_kwh", "kWh"),
        ("wind_annual", "wind_annual_kwh", "kWh"),
        ("total_annual_mwh", "modeled_renewable_mwh", "MWh"),
    )),
    ("assignment", Assignment, (
        ("mapping", None, None), ("total_cost", "dispatch_total_cost", "km"))),
    ("costs", CostReport, (
        ("per_teu_baseline", "per_teu_baseline", "USD/TEU"),
        ("per_teu_optimized", "per_teu_optimized", "USD/TEU"),
        ("per_teu_savings", "per_teu_savings", "USD/TEU"),
        ("total_baseline", "total_baseline_usd", "USD"),
        ("total_optimized", "total_optimized_usd", "USD"),
        ("total_savings", "total_savings_usd", "USD"),
        ("savings_fraction", "savings_fraction", "fraction"),
    )),
    ("objective", ObjectiveScore, (
        ("total", "objective_total", "score"),
        ("emissions_term", "objective_emissions_term", "score"),
        ("energy_term", "objective_energy_term", "score"),
        ("dispatch_term", "objective_dispatch_term", "score"),
        ("renewables_term", "objective_renewables_term", "score"),
    )),
    ("flags", None, None),
)


def _check_report(record: Any, rows: tuple = _REPORT, prefix: str = "") -> None:
    """Raise :class:`ValidationError` naming the first field of ``record`` its row does not
    allow. A number passes on one type test; an int a float can hold is stored as its float."""
    values = record.__dict__  # faster than getattr, and run_scenario pays for this walk
    for name, kind, info in rows:
        value = values[name]
        if type(kind) is str:
            if type(value) is float and _MIN <= value <= _MAX:
                continue
            path = prefix + name
            if type(value) is float:  # inf or NaN
                raise ValidationError(path, f"{path} is {value}: report numbers must be finite")
            if type(value) is not int or not _MIN <= value <= _MAX:  # a bool is not a number
                what = "an integer too large for a float" if type(value) is int else "not a number"
                raise ValidationError(path, f"{path} is {what}")
            values[name] = float(value)  # so equal reports write equal bytes
        elif kind is None:
            _check_other(prefix + name, value)
        elif value.__class__ is kind:
            _check_report(value, info, f"{prefix}{name}.")
        elif value is not None or kind not in (GenerationResult, Assignment):  # optional
            raise ValidationError(prefix + name, f"{prefix}{name} is not of type {kind.__name__}")


def _check_other(path: str, value: Any) -> None:
    """Reject a ``scenario_name`` that is not a str, a list field that is not a tuple of its
    items, or a mapping that gives one column to two rows."""
    if path == "scenario_name":
        if not isinstance(value, str):  # a str subclass is a str
            raise ValidationError(path, f"{path} is not a string")
        return
    if type(value) is not tuple:  # a list field is a list in JSON, and read as a tuple
        raise ValidationError(path, f"{path} is not a {'tuple' if type(value) is list else 'list'}")
    columns = set()  # an assignment gives each column to one row at most
    for i, item in enumerate(value):
        if path == "flags":
            if isinstance(item, str):
                continue
            what = "is not a string"
        elif item is None:
            continue
        elif type(item) is not int or item < 0:  # an exact type test: a bool is not an index
            what = "is not a column index or null"
        elif item in columns:
            what = f"repeats column {item}"
        else:
            columns.add(item)
            continue
        raise ValidationError(f"{path}[{i}]", f"{path}[{i}] {what}")


def report_to_dict(report: SimulationReport) -> dict[str, Any]:
    return asdict(report)


def _from_dict(raw: Any, cls: type, rows: tuple, prefix: str = "") -> Any:
    """``raw`` as a ``cls``, its lists as tuples; the report's check judges the values."""
    if type(raw) is not dict:
        where = prefix[:-1] or "report"
        raise ValidationError(where, f"{where} is not an object")
    fields = {}
    for name, kind, info in rows:
        if name not in raw:
            raise ValidationError(prefix + name, f"{prefix}{name} is missing from the report")
        value = raw[name]
        if isinstance(kind, type) and value is not None:
            value = _from_dict(value, kind, info, f"{prefix}{name}.")
        fields[name] = tuple(value) if isinstance(value, list) else value
    return cls(**fields)


def report_from_dict(raw: dict[str, Any]) -> SimulationReport:
    """The inverse of ``report_to_dict``. A missing key, a section that is not an object, or
    anything the report's check rejects is a ValidationError naming its report path. The
    report does not carry the matrix shape, so a column past the last one, or more rows than
    the matrix had, is not detected."""
    try:
        return _from_dict(raw, SimulationReport, _REPORT)
    except ValidationError as exc:
        raw = None  # the error keeps this frame, but not the document
        raise _detached(exc)


def report_from_json(data: bytes | str) -> SimulationReport:
    """Parse a JSON report, e.g. one ``serialize_report`` wrote; see ``report_from_dict``."""
    try:
        try:
            raw = _loads(data)
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too many digits, too deep
            raise ValidationError("report", f"invalid report JSON: {exc}") from None
        return report_from_dict(raw)
    except ValidationError as exc:
        raw = None  # the error keeps this frame, but not the document
        raise _detached(exc)


def _json_steps(rows: tuple, depth: int) -> tuple:
    """Per row (the text before its value, name, nested steps, indent), then ``}``."""
    pad = "\n" + "  " * depth
    steps = tuple(
        (f'{"," if i else "{"}{pad}"{name}": ', name,
         _json_steps(info, depth + 1) if isinstance(kind, type) else None, pad)
        for i, (name, kind, info) in enumerate(rows)
    )
    return steps, pad[:-2] + "}"


_JSON = _json_steps(_REPORT, 1)


def _json_scalar(value: Any) -> str:
    """``value``, a str, an int or None, as ``json.dumps`` writes it."""
    if isinstance(value, str):
        if value.isascii() and value.isprintable() and '"' not in value and "\\" not in value:
            return f'"{value}"'  # exactly the strings json writes unescaped
        from json.encoder import encode_basestring_ascii
        return encode_basestring_ascii(value)
    return "null" if value is None else int.__repr__(value)


def _write_json(record: Any, section: tuple, out: list[str]) -> None:
    steps, close = section
    for head, name, nested, pad in steps:
        value = getattr(record, name)
        out.append(head)
        if type(value) is float:  # nearly every value; the report's check made it finite
            out.append(repr(value))
        elif nested is not None and value is not None:
            _write_json(value, nested, out)
        elif type(value) is tuple:
            items = f",{pad}  ".join([_json_scalar(item) for item in value])
            out.append(f"[{pad}  {items}{pad}]" if value else "[]")
        else:
            out.append(_json_scalar(value))
    out.append(close)


def _csv_rows(record: Any, rows: tuple, out: list[str]) -> None:
    values = record.__dict__
    for name, kind, info in rows:
        value = values[name]
        if type(kind) is str:
            out.append(f"{kind},{format_number(value)},{info}")
        elif kind is not None and value is not None:
            _csv_rows(value, info, out)


def serialize_report(report: SimulationReport, format: str) -> bytes:
    """Serialize to ``"json"`` or ``"csv"`` bytes; the report was checked when it was built."""
    if format == "json":
        out: list[str] = []
        _write_json(report, _JSON, out)
        return ("".join(out) + "\n").encode("utf-8")
    if format == "csv":
        lines = ["metric,value,unit"]
        _csv_rows(report, _REPORT, lines)
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unknown report format {format!r} (expected 'json' or 'csv')")


def _printable(text: str) -> str:
    """``text`` with each character that is not printable written as its backslash escape."""
    if text.isprintable():
        return text
    return "".join([ch if ch.isprintable() else repr(ch)[1:-1] for ch in text])


def summarize(report: SimulationReport) -> str:
    """Short human-readable digest, one line per item; values rounded for presentation only,
    and control characters in the name and notes written as escapes (``\\n``, ``\\x07``)."""
    e, m, c = report.energy, report.emissions, report.costs
    lines = [
        f"scenario: {_printable(report.scenario_name)}",
        f"  energy: {format_number(e.baseline_total)} -> {format_number(e.optimized_total)} MWh"
        f" ({e.reduction_fraction:.1%} lower)",
        f"  emissions: {format_number(m.baseline_emissions)} -> "
        f"{format_number(m.optimized_emissions)} kg CO2"
        f" ({format_number(m.reduction)} kg avoided)",
        f"  carbon intensity: {m.baseline_intensity:.2f} -> {m.optimized_intensity:.2f} kg CO2/MWh",
        f"  substitution efficiency: {m.substitution_efficiency:.2f} kg CO2/MWh",
    ]
    if report.generation is not None:
        lines.append(
            f"  modeled renewables: {report.generation.total_annual_mwh:.1f} MWh/yr"
            f" (pv {report.generation.pv_annual:.0f} kWh, wind {report.generation.wind_annual:.0f} kWh)"
        )
    if report.assignment is not None:
        mapping = enumerate(report.assignment.mapping)
        pairs = ", ".join(f"{i}->{'unassigned' if j is None else j}" for i, j in mapping)
        lines.append(f"  dispatch: total {format_number(report.assignment.total_cost)} ({pairs})")
    lines.append(
        f"  cost: ${c.total_baseline / 1e6:.1f}M -> ${c.total_optimized / 1e6:.1f}M"
        f" (savings ${c.total_savings / 1e6:.1f}M, {c.savings_fraction:.1%})"
    )
    lines.append(f"  objective score: {format_number(report.objective.total)}")
    lines += [f"  note: {_printable(flag)}" for flag in report.flags]
    return "\n".join(lines)
