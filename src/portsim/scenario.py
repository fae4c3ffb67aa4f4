"""Domain types for a port scenario, checked once when they are built.

A scenario is the complete declarative description of one port case:
throughput, sector split, emission factors, renewable supply, generation
assets, costs, an optional AGV dispatch matrix and objective weights.
Everything is immutable after construction, and a ``Scenario`` checks
every invariant in ``__post_init__``: an invalid one cannot be built,
whether it comes from a file, from ``Scenario(...)`` or from a
``replace`` of one of its fields. The first violated field is reported
by its dotted path (``pv_arrays[2].module_efficiency``), in field
declaration order.

Each record's numeric fields are declared once, in ``*_RULES`` tables of
``name -> (name, low, high, wording)`` steps. A value passes on one
comparison, ``type(v) is float and low <= v <= high``, which also fails
for NaN and the infinities; only a failing value takes the slow path,
which accepts an int in range or raises with the field path, formatted
only then. A file's record of finite floats under known keys is read in
one walk, and any miss takes the exact path. Parsing, checking and
``scenario_to_dict`` all read the same tables.

Scenario files are JSON with keys named exactly like the record fields
below. Unknown keys are rejected rather than ignored, so a typo in a file
fails loudly instead of silently falling back to a default.

Canonical units: energy in MWh (asset-level PV/wind formulas run in kWh
and are converted at the boundary), emissions in kg CO2, money in USD.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping
from enum import Enum

from . import renewables as renewables_model
from ._record import record, replace
from .dispatch import CostMatrix
from .errors import DispatchError, ValidationError
from .objective import ObjectiveWeights

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable, Collection, Iterable, KeysView
    from os import PathLike
    from typing import Any

    _Rules = dict[str, tuple[str, float, float, str]]

#: Sector shares must sum to 1 within this tolerance; inputs are
#: human-authored decimals, so anything larger is a typo.
SHARE_SUM_TOLERANCE = 1e-9

#: Relative tolerance for agreement between a stated renewable supply and
#: the value modeled from the scenario's PV/wind assets.
MODELED_SUPPLY_TOLERANCE = 1e-6

_MAX = sys.float_info.max
_TINY = 5e-324  # the smallest positive float


class RenewableSource(str, Enum):
    """Where the scenario's renewable supply figure comes from."""

    EXPLICIT = "explicit"
    FROM_PV_WIND_MODELS = "from_pv_wind_models"


@record
class ThroughputSpec:
    teu_per_year: float  # TEU/yr
    unit_energy: float  # kWh/TEU


@record
class SectorEnergyBreakdown:
    """Per-sector energy consumption in MWh."""

    equipment: float
    transport: float
    buildings: float

    def total(self) -> float:
        return self.equipment + self.transport + self.buildings


@record
class SectorShares:
    """Fractions of total energy taken by each sector; must sum to 1."""

    equipment_share: float
    transport_share: float
    buildings_share: float


@record
class EmissionFactorSet:
    """Per-sector emission factors plus the grid average factor, kg CO2/MWh."""

    equipment_factor: float
    transport_factor: float
    buildings_factor: float
    grid_factor: float


@record
class RenewableSupplySpec:
    """Annual renewable supply in MWh.

    ``renewable_energy`` offsets grid consumption in the energy and
    emissions engines. ``new_green_energy`` is the newly introduced green
    energy used as the denominator of the carbon substitution efficiency;
    the two differ in some reference datasets, so both are first-class
    inputs (``new_green_energy`` defaults to ``renewable_energy``).
    """

    renewable_energy: float
    source: RenewableSource
    new_green_energy: float

    @classmethod
    def create(
        cls,
        renewable_energy: float,
        source: RenewableSource = RenewableSource.EXPLICIT,
        new_green_energy: float | None = None,
    ) -> "RenewableSupplySpec":
        if new_green_energy is None:
            new_green_energy = renewable_energy
        return cls(float(renewable_energy), source, float(new_green_energy))


@record
class PvArraySpec:
    """One PV installation.

    ``sun_hours`` and ``performance_ratio`` default to calibration values
    (see :mod:`portsim.renewables`); ``peak_power`` defaults to the
    instantaneous output at the stated irradiance.
    """

    panel_area: float  # m2
    irradiance: float  # kW/m2
    module_efficiency: float  # 0..1
    peak_power: float  # kW
    sun_hours: float  # h/yr
    performance_ratio: float  # 0..1

    @classmethod
    def create(
        cls,
        panel_area: float,
        module_efficiency: float,
        irradiance: float = 1.0,
        peak_power: float | None = None,
        sun_hours: float = renewables_model.DEFAULT_SUN_HOURS,
        performance_ratio: float = renewables_model.DEFAULT_PERFORMANCE_RATIO,
    ) -> "PvArraySpec":
        peak_power = None if peak_power is None else float(peak_power)
        return _pv_array(
            float(panel_area), float(module_efficiency), float(irradiance), peak_power,
            float(sun_hours), float(performance_ratio),
        )


@record
class WindTurbineSpec:
    """One wind turbine.

    ``average_power`` defaults to the instantaneous output at the stated
    wind speed; the power coefficient is capped at the Betz limit.
    """

    air_density: float  # kg/m3
    swept_area: float  # m2
    wind_speed: float  # m/s
    power_coefficient: float  # (0, 0.593]
    average_power: float  # kW
    operating_hours: float  # h/yr

    @classmethod
    def create(
        cls,
        swept_area: float,
        wind_speed: float,
        operating_hours: float,
        air_density: float = renewables_model.STANDARD_AIR_DENSITY,
        power_coefficient: float = renewables_model.DEFAULT_POWER_COEFFICIENT,
        average_power: float | None = None,
    ) -> "WindTurbineSpec":
        average_power = None if average_power is None else float(average_power)
        return _wind_turbine(
            float(swept_area), float(wind_speed), float(operating_hours), float(air_density),
            float(power_coefficient), average_power,
        )


# ``create`` minus its float() calls, for parsed floats; ``create``'s defaults are set below.
def _pv_array(panel_area, module_efficiency, irradiance, peak_power, sun_hours, performance_ratio):
    if peak_power is None:
        peak_power = renewables_model.pv_instant_power(panel_area, irradiance, module_efficiency)
    return PvArraySpec(
        panel_area, irradiance, module_efficiency, peak_power, sun_hours, performance_ratio
    )


def _wind_turbine(
    swept_area, wind_speed, operating_hours, air_density, power_coefficient, average_power
):
    if average_power is None:
        average_power = renewables_model.wind_instant_power(
            air_density, swept_area, wind_speed, power_coefficient
        )
    return WindTurbineSpec(
        air_density, swept_area, wind_speed, power_coefficient, average_power, operating_hours
    )


_pv_array.__defaults__ = PvArraySpec.create.__defaults__
_wind_turbine.__defaults__ = WindTurbineSpec.create.__defaults__


@record
class CostParameters:
    baseline_cost_per_teu: float  # USD/TEU
    optimized_cost_per_teu: float  # USD/TEU


@record
class Scenario:
    name: str
    throughput: ThroughputSpec
    shares: SectorShares
    factors: EmissionFactorSet
    renewables: RenewableSupplySpec
    costs: CostParameters
    pv_arrays: tuple[PvArraySpec, ...] = ()
    wind_turbines: tuple[WindTurbineSpec, ...] = ()
    dispatch_matrix: CostMatrix | None = None
    objective_weights: ObjectiveWeights = ObjectiveWeights()  # frozen, so one can be shared
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _check_scenario(self)


# ---------------------------------------------------------------------------
# Checks: one comparison per value, and a slow path only when it fails
# ---------------------------------------------------------------------------


def _number(value: Any, field_name: str) -> float:
    if type(value) is float and -_MAX <= value <= _MAX:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(field_name, f"{field_name} must be a number")
    try:
        value = float(value)
    except OverflowError:
        raise ValidationError(
            field_name, f"{field_name} must be finite, got an integer too large for a float"
        ) from None
    if not math.isfinite(value):
        raise ValidationError(field_name, f"{field_name} must be finite, got {value}")
    return value


def _out_of_range(value: Any, field_name: str, low: float, high: float, bounds: str) -> None:
    """Slow path of a range check: accept an int in range, else raise."""
    value = _number(value, field_name)
    if not low <= value <= high:
        raise ValidationError(field_name, f"{field_name} must be {bounds}, got {value:.12g}")


# Ranges as (low, high, wording): ``low <= v <= high`` is the whole test.
_NON_NEGATIVE = (0.0, _MAX, "non-negative")
_FRACTION = (0.0, 1.0, "within [0, 1]")
_POSITIVE = (_TINY, _MAX, "positive")
_BETZ = (_TINY, renewables_model.BETZ_LIMIT, f"within (0, {renewables_model.BETZ_LIMIT}]")


def _rules(**ranges: tuple[float, float, str]) -> _Rules:
    return {name: (name, *bounds) for name, bounds in ranges.items()}


# Each record's numeric fields and their check steps, in declaration order.
_THROUGHPUT_RULES = _rules(teu_per_year=_NON_NEGATIVE, unit_energy=_NON_NEGATIVE)
_SHARE_RULES = _rules(
    equipment_share=_FRACTION, transport_share=_FRACTION, buildings_share=_FRACTION
)
_FACTOR_RULES = _rules(
    equipment_factor=_NON_NEGATIVE,
    transport_factor=_NON_NEGATIVE,
    buildings_factor=_NON_NEGATIVE,
    grid_factor=_NON_NEGATIVE,
)
_SUPPLY_RULES = _rules(renewable_energy=_NON_NEGATIVE, new_green_energy=_NON_NEGATIVE)
_PV_RULES = _rules(
    panel_area=_NON_NEGATIVE,
    irradiance=_NON_NEGATIVE,
    module_efficiency=_FRACTION,
    peak_power=_NON_NEGATIVE,
    sun_hours=_NON_NEGATIVE,
    performance_ratio=_FRACTION,
)
_WIND_RULES = _rules(
    air_density=_POSITIVE,
    swept_area=_NON_NEGATIVE,
    wind_speed=_NON_NEGATIVE,
    power_coefficient=_BETZ,
    average_power=_NON_NEGATIVE,
    operating_hours=_NON_NEGATIVE,
)
_COST_RULES = _rules(baseline_cost_per_teu=_NON_NEGATIVE, optimized_cost_per_teu=_NON_NEGATIVE)
_WEIGHT_RULES = _rules(
    w_emissions=_NON_NEGATIVE,
    w_energy=_NON_NEGATIVE,
    w_dispatch=_NON_NEGATIVE,
    w_renewables=_NON_NEGATIVE,
    norm_emissions=_POSITIVE,
    norm_energy=_POSITIVE,
    norm_dispatch=_POSITIVE,
    norm_renewables=_POSITIVE,
)


def _check_record(record: Any, rules: _Rules, where: str, index: int | None = None) -> None:
    values = record.__dict__
    for name, low, high, bounds in rules.values():
        value = values[name]
        if type(value) is not float or not low <= value <= high:
            path = where if index is None else f"{where}[{index}]"
            _out_of_range(value, f"{path}.{name}", low, high, bounds)


def _modeled_supply(
    pv_arrays: Iterable[PvArraySpec], wind_turbines: Iterable[WindTurbineSpec]
) -> float:
    try:
        return renewables_model.annual_generation(pv_arrays, wind_turbines).total_annual_mwh
    except (OverflowError, ValueError):  # math.fsum past the float range, or inf - inf
        raise ValidationError(
            "renewables.renewable_energy",
            "renewables.renewable_energy must be finite, but the PV/wind assets "
            "model more than the largest float",
        ) from None


def _check_scenario(scenario: Scenario) -> None:
    """Raise :class:`ValidationError` naming the first violated field."""
    if not isinstance(scenario.name, str) or not scenario.name:
        raise ValidationError("name", "name must be a non-empty string")

    t = scenario.throughput
    _check_record(t, _THROUGHPUT_RULES, "throughput")
    if not math.isfinite(t.teu_per_year * t.unit_energy):
        raise ValidationError(
            "throughput", "implied total energy teu_per_year * unit_energy overflows"
        )

    s = scenario.shares
    _check_record(s, _SHARE_RULES, "shares")
    share_sum = s.equipment_share + s.transport_share + s.buildings_share
    if abs(share_sum - 1.0) > SHARE_SUM_TOLERANCE:
        raise ValidationError("shares", f"shares sum to {share_sum:.12g}")

    _check_record(scenario.factors, _FACTOR_RULES, "factors")

    r = scenario.renewables
    _check_record(r, _SUPPLY_RULES, "renewables")
    if not isinstance(r.source, RenewableSource):
        raise ValidationError(
            "renewables.source",
            f"renewables.source must be one of {[m.value for m in RenewableSource]}",
        )

    for i, pv in enumerate(scenario.pv_arrays):
        _check_record(pv, _PV_RULES, "pv_arrays", i)
    for i, wt in enumerate(scenario.wind_turbines):
        _check_record(wt, _WIND_RULES, "wind_turbines", i)

    if r.source is RenewableSource.FROM_PV_WIND_MODELS:
        modeled = _modeled_supply(scenario.pv_arrays, scenario.wind_turbines)
        if not math.isclose(
            r.renewable_energy, modeled, rel_tol=MODELED_SUPPLY_TOLERANCE, abs_tol=0.0
        ):
            raise ValidationError(
                "renewables.renewable_energy",
                f"renewables.renewable_energy is {r.renewable_energy:.12g} but the "
                f"PV/wind assets model {modeled:.12g} MWh/yr",
            )

    _check_record(scenario.costs, _COST_RULES, "costs")

    w = scenario.objective_weights
    _check_record(w, _WEIGHT_RULES, "objective_weights")
    if not isinstance(w.renewables_reduce_score, bool):
        raise ValidationError(
            "objective_weights.renewables_reduce_score",
            "objective_weights.renewables_reduce_score must be a boolean",
        )

    for i, note in enumerate(scenario.notes):
        if not isinstance(note, str):
            raise ValidationError(f"notes[{i}]", f"notes[{i}] must be a string")


def validate_scenario(scenario: Scenario) -> Scenario:
    """Return ``scenario`` unchanged.

    Every ``Scenario`` is checked when it is built (see the module
    docstring), so there is nothing left to check here; the function stays
    for callers that validate explicitly.
    """
    return scenario


# ---------------------------------------------------------------------------
# JSON schema (fail-closed parsing)
# ---------------------------------------------------------------------------


_SCENARIO_REQUIRED = ("name", "throughput", "shares", "factors", "renewables", "costs")
_SCENARIO_KEYS = {
    *_SCENARIO_REQUIRED,
    "pv_arrays", "wind_turbines", "dispatch_matrix", "objective_weights", "notes",
}
_SUPPLY_KEYS = {*_SUPPLY_RULES, "source"}
_PV_REQUIRED = dict.fromkeys(("panel_area", "module_efficiency")).keys()
_WIND_REQUIRED = dict.fromkeys(("swept_area", "wind_speed", "operating_hours")).keys()
_WEIGHT_KEYS = {*_WEIGHT_RULES, "renewables_reduce_score"}


def _check_keys(
    raw: Mapping[str, Any], allowed: Collection[str], required: Iterable[str], where: str
) -> None:
    if type(raw) is not dict and not isinstance(raw, Mapping):
        raise ValidationError(where, f"{where} must be an object")
    for key in raw:
        if key not in allowed:
            raise ValidationError(f"{where}.{key}", f"unknown key '{key}' in {where}")
    for key in required:
        if key not in raw:
            raise ValidationError(f"{where}.{key}", f"missing required key '{key}' in {where}")


def _parse_numbers(
    raw: Mapping[str, Any],
    rules: _Rules,
    where: str,
    required: KeysView[str] | frozenset[str] | None = None,
    allowed: Collection[str] | None = None,
    index: int | None = None,
) -> Mapping[str, Any]:
    """The keys of ``rules`` present in ``raw``, as finite floats.

    By default every key of ``rules`` is required and no other is allowed.
    Only types and finiteness are checked here; ranges are checked when
    the Scenario is built, so errors keep their established order. A dict
    of finite floats holding every ``required`` key (a keys view: set-like,
    and ordered for the error) is returned as it is.
    """
    if required is None:
        required = rules.keys()
    if type(raw) is dict and raw.keys() >= required:
        for key, value in raw.items():
            if key not in rules or type(value) is not float or not -_MAX <= value <= _MAX:
                break
        else:
            return raw
    where = where if index is None else f"{where}[{index}]"
    _check_keys(raw, rules if allowed is None else allowed, required, where)
    return {name: _number(raw[name], f"{where}.{name}") for name in rules if name in raw}


def _parse_assets(
    raw: Mapping[str, Any], key: str, build: Callable, rules: _Rules, required: KeysView[str]
) -> tuple[Any, ...]:
    items = raw.get(key, [])
    if not isinstance(items, list):
        raise ValidationError(key, f"{key} must be a list")
    return tuple([
        build(**_parse_numbers(item, rules, key, required, index=i))
        for i, item in enumerate(items)
    ])


def _parse_renewables(
    raw: Mapping[str, Any],
    pv_arrays: tuple[PvArraySpec, ...],
    wind_turbines: tuple[WindTurbineSpec, ...],
) -> RenewableSupplySpec:
    _check_keys(raw, _SUPPLY_KEYS, ("source",), "renewables")
    source_raw = raw["source"]
    try:
        source = RenewableSource(source_raw)
    except ValueError:
        raise ValidationError(
            "renewables.source",
            f"renewables.source must be one of {[m.value for m in RenewableSource]}, "
            f"got {source_raw!r}",
        ) from None
    if "renewable_energy" in raw:
        renewable_energy = _number(raw["renewable_energy"], "renewables.renewable_energy")
    elif source is RenewableSource.FROM_PV_WIND_MODELS:
        # Derive the supply from the scenario's own generation assets.
        renewable_energy = _modeled_supply(pv_arrays, wind_turbines)
    else:
        raise ValidationError(
            "renewables.renewable_energy",
            "missing required key 'renewable_energy' in renewables "
            "(required unless source is from_pv_wind_models)",
        )
    new_green = raw.get("new_green_energy")
    if new_green is not None:
        new_green = _number(new_green, "renewables.new_green_energy")
    return RenewableSupplySpec.create(renewable_energy, source, new_green)


def _parse_weights(raw: Mapping[str, Any]) -> ObjectiveWeights:
    kwargs = _parse_numbers(raw, _WEIGHT_RULES, "objective_weights", frozenset(), _WEIGHT_KEYS)
    if "renewables_reduce_score" in raw:
        flag = raw["renewables_reduce_score"]
        if not isinstance(flag, bool):
            raise ValidationError(
                "objective_weights.renewables_reduce_score",
                "objective_weights.renewables_reduce_score must be a boolean",
            )
        kwargs["renewables_reduce_score"] = flag
    return ObjectiveWeights(**kwargs)


def _finite_cells(rows: list[list[Any]]) -> bool:
    for row in rows:
        for cell in row:
            if (type(cell) is not float and type(cell) is not int) or not -_MAX <= cell <= _MAX:
                return False
    return True


def _parse_matrix(raw: Any) -> CostMatrix | None:
    if raw is None:
        return None
    if not isinstance(raw, list) or not all(isinstance(row, list) for row in raw):
        raise ValidationError("dispatch_matrix", "dispatch_matrix must be a list of rows")
    if not _finite_cells(raw):
        for i, row in enumerate(raw):
            for j, cell in enumerate(row):
                _number(cell, f"dispatch_matrix[{i}][{j}]")
    try:
        return CostMatrix.from_rows(raw)
    except DispatchError as exc:
        raise ValidationError("dispatch_matrix", f"dispatch_matrix: {exc}") from None


def scenario_from_dict(raw: Mapping[str, Any]) -> Scenario:
    """Build a checked Scenario from a parsed JSON object.

    Unknown keys, missing keys and values of the wrong type are rejected
    while parsing; every other invariant is checked as the Scenario is
    built. Either way a :class:`ValidationError` names the field.
    """
    _check_keys(raw, _SCENARIO_KEYS, _SCENARIO_REQUIRED, "scenario")

    name = raw["name"]
    if not isinstance(name, str):
        raise ValidationError("name", "name must be a string")

    pv_arrays = _parse_assets(raw, "pv_arrays", _pv_array, _PV_RULES, _PV_REQUIRED)
    wind_turbines = _parse_assets(raw, "wind_turbines", _wind_turbine, _WIND_RULES, _WIND_REQUIRED)

    notes_raw = raw.get("notes", [])
    if not isinstance(notes_raw, list) or not all(isinstance(n, str) for n in notes_raw):
        raise ValidationError("notes", "notes must be a list of strings")

    return Scenario(
        name=name,
        throughput=ThroughputSpec(
            **_parse_numbers(raw["throughput"], _THROUGHPUT_RULES, "throughput")
        ),
        shares=SectorShares(**_parse_numbers(raw["shares"], _SHARE_RULES, "shares")),
        factors=EmissionFactorSet(**_parse_numbers(raw["factors"], _FACTOR_RULES, "factors")),
        renewables=_parse_renewables(raw["renewables"], pv_arrays, wind_turbines),
        costs=CostParameters(**_parse_numbers(raw["costs"], _COST_RULES, "costs")),
        pv_arrays=pv_arrays,
        wind_turbines=wind_turbines,
        dispatch_matrix=_parse_matrix(raw.get("dispatch_matrix")),
        objective_weights=_parse_weights(raw.get("objective_weights", {})),
        notes=tuple(notes_raw),
    )


def _numbers(record: Any, rules: _Rules) -> dict[str, Any]:
    return {name: getattr(record, name) for name in rules}


def scenario_to_dict(scenario: Scenario) -> dict[str, Any]:
    """Inverse of :func:`scenario_from_dict`; round-trips exactly."""
    r = scenario.renewables
    w = scenario.objective_weights
    return {
        "name": scenario.name,
        "throughput": _numbers(scenario.throughput, _THROUGHPUT_RULES),
        "shares": _numbers(scenario.shares, _SHARE_RULES),
        "factors": _numbers(scenario.factors, _FACTOR_RULES),
        "renewables": {
            "renewable_energy": r.renewable_energy,
            "source": r.source.value,
            "new_green_energy": r.new_green_energy,
        },
        "costs": _numbers(scenario.costs, _COST_RULES),
        "pv_arrays": [_numbers(pv, _PV_RULES) for pv in scenario.pv_arrays],
        "wind_turbines": [_numbers(wt, _WIND_RULES) for wt in scenario.wind_turbines],
        "dispatch_matrix": (
            None
            if scenario.dispatch_matrix is None
            else [list(row) for row in scenario.dispatch_matrix.entries]
        ),
        "objective_weights": {
            **_numbers(w, _WEIGHT_RULES),
            "renewables_reduce_score": w.renewables_reduce_score,
        },
        "notes": list(scenario.notes),
    }


def scenario_to_json(scenario: Scenario) -> str:
    import json
    return json.dumps(scenario_to_dict(scenario), indent=2) + "\n"


def scenario_from_json(text: str) -> Scenario:
    import json  # here, not at the top: a preset never parses JSON text
    try:
        raw = json.loads(text)
    # JSONDecodeError, an int beyond Python's digit limit, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise ValidationError("scenario", f"invalid JSON: {exc}") from None
    return scenario_from_dict(raw)


def load_scenario(path: str | PathLike[str]) -> Scenario:
    """Read a scenario file; the Scenario it returns is checked and valid."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return scenario_from_json(text)


def with_shares(scenario: Scenario, shares: SectorShares) -> Scenario:
    return replace(scenario, shares=shares)


def with_weights(scenario: Scenario, weights: ObjectiveWeights) -> Scenario:
    return replace(scenario, objective_weights=weights)
