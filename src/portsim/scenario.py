"""Domain types for a port scenario and their validation.

A scenario is the complete declarative description of one port case:
throughput, sector split, emission factors, renewable supply, generation
assets, costs, an optional AGV dispatch matrix and objective weights.
Everything is immutable after construction; ``validate_scenario`` checks
every invariant and reports the first violated field.

Scenario files are JSON with keys named exactly like the dataclass fields
below. Unknown keys are rejected rather than ignored, so a typo in a file
fails loudly instead of silently falling back to a default.

Canonical units: energy in MWh (asset-level PV/wind formulas run in kWh
and are converted at the boundary), emissions in kg CO2, money in USD.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from enum import Enum

from . import renewables as renewables_model
from .dispatch import CostMatrix
from .errors import DispatchError, ValidationError
from .objective import ObjectiveWeights

TYPE_CHECKING = False
if TYPE_CHECKING:
    from os import PathLike
    from typing import Any

#: Sector shares must sum to 1 within this tolerance; inputs are
#: human-authored decimals, so anything larger is a typo.
SHARE_SUM_TOLERANCE = 1e-9

#: Relative tolerance for agreement between a stated renewable supply and
#: the value modeled from the scenario's PV/wind assets.
MODELED_SUPPLY_TOLERANCE = 1e-6


class RenewableSource(str, Enum):
    """Where the scenario's renewable supply figure comes from."""

    EXPLICIT = "explicit"
    FROM_PV_WIND_MODELS = "from_pv_wind_models"


@dataclass(frozen=True)
class ThroughputSpec:
    teu_per_year: float  # TEU/yr
    unit_energy: float  # kWh/TEU


@dataclass(frozen=True)
class SectorEnergyBreakdown:
    """Per-sector energy consumption in MWh."""

    equipment: float
    transport: float
    buildings: float

    def total(self) -> float:
        return self.equipment + self.transport + self.buildings


@dataclass(frozen=True)
class SectorShares:
    """Fractions of total energy taken by each sector; must sum to 1."""

    equipment_share: float
    transport_share: float
    buildings_share: float


@dataclass(frozen=True)
class EmissionFactorSet:
    """Per-sector emission factors plus the grid average factor, kg CO2/MWh."""

    equipment_factor: float
    transport_factor: float
    buildings_factor: float
    grid_factor: float


@dataclass(frozen=True)
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
        return cls(
            renewable_energy=float(renewable_energy),
            source=source,
            new_green_energy=float(new_green_energy),
        )


@dataclass(frozen=True)
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
        if peak_power is None:
            peak_power = renewables_model.pv_instant_power(
                float(panel_area), float(irradiance), float(module_efficiency)
            )
        return cls(
            panel_area=float(panel_area),
            irradiance=float(irradiance),
            module_efficiency=float(module_efficiency),
            peak_power=float(peak_power),
            sun_hours=float(sun_hours),
            performance_ratio=float(performance_ratio),
        )


@dataclass(frozen=True)
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
        if average_power is None:
            average_power = renewables_model.wind_instant_power(
                float(air_density), float(swept_area), float(wind_speed), float(power_coefficient)
            )
        return cls(
            air_density=float(air_density),
            swept_area=float(swept_area),
            wind_speed=float(wind_speed),
            power_coefficient=float(power_coefficient),
            average_power=float(average_power),
            operating_hours=float(operating_hours),
        )


@dataclass(frozen=True)
class CostParameters:
    baseline_cost_per_teu: float  # USD/TEU
    optimized_cost_per_teu: float  # USD/TEU


@dataclass(frozen=True)
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
    objective_weights: ObjectiveWeights = field(default_factory=ObjectiveWeights)
    notes: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _number(value: Any, field_name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(field_name, f"{field_name} must be a number")
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(field_name, f"{field_name} must be finite, got {value}")
    return value


def _non_negative(value: Any, field_name: str) -> float:
    value = _number(value, field_name)
    if value < 0:
        raise ValidationError(
            field_name, f"{field_name} must be non-negative, got {value:.12g}"
        )
    return value


def _fraction(value: Any, field_name: str) -> float:
    value = _number(value, field_name)
    if not 0.0 <= value <= 1.0:
        raise ValidationError(
            field_name, f"{field_name} must be within [0, 1], got {value:.12g}"
        )
    return value


def validate_scenario(scenario: Scenario) -> Scenario:
    """Check every invariant; return the scenario unchanged if all hold.

    Raises :class:`ValidationError` naming the first violated field, in
    field declaration order. Validation is deterministic and idempotent.
    """
    if not isinstance(scenario.name, str) or not scenario.name:
        raise ValidationError("name", "name must be a non-empty string")

    t = scenario.throughput
    _non_negative(t.teu_per_year, "throughput.teu_per_year")
    _non_negative(t.unit_energy, "throughput.unit_energy")
    if not math.isfinite(t.teu_per_year * t.unit_energy):
        raise ValidationError(
            "throughput", "implied total energy teu_per_year * unit_energy overflows"
        )

    s = scenario.shares
    _fraction(s.equipment_share, "shares.equipment_share")
    _fraction(s.transport_share, "shares.transport_share")
    _fraction(s.buildings_share, "shares.buildings_share")
    share_sum = s.equipment_share + s.transport_share + s.buildings_share
    if abs(share_sum - 1.0) > SHARE_SUM_TOLERANCE:
        raise ValidationError("shares", f"shares sum to {share_sum:.12g}")

    f = scenario.factors
    _non_negative(f.equipment_factor, "factors.equipment_factor")
    _non_negative(f.transport_factor, "factors.transport_factor")
    _non_negative(f.buildings_factor, "factors.buildings_factor")
    _non_negative(f.grid_factor, "factors.grid_factor")

    r = scenario.renewables
    _non_negative(r.renewable_energy, "renewables.renewable_energy")
    _non_negative(r.new_green_energy, "renewables.new_green_energy")
    if not isinstance(r.source, RenewableSource):
        raise ValidationError(
            "renewables.source",
            f"renewables.source must be one of {[m.value for m in RenewableSource]}",
        )

    for i, pv in enumerate(scenario.pv_arrays):
        prefix = f"pv_arrays[{i}]"
        _non_negative(pv.panel_area, f"{prefix}.panel_area")
        _non_negative(pv.irradiance, f"{prefix}.irradiance")
        _fraction(pv.module_efficiency, f"{prefix}.module_efficiency")
        _non_negative(pv.peak_power, f"{prefix}.peak_power")
        _non_negative(pv.sun_hours, f"{prefix}.sun_hours")
        _fraction(pv.performance_ratio, f"{prefix}.performance_ratio")

    for i, wt in enumerate(scenario.wind_turbines):
        prefix = f"wind_turbines[{i}]"
        density = _number(wt.air_density, f"{prefix}.air_density")
        if density <= 0:
            raise ValidationError(
                f"{prefix}.air_density",
                f"{prefix}.air_density must be positive, got {density:.12g}",
            )
        _non_negative(wt.swept_area, f"{prefix}.swept_area")
        _non_negative(wt.wind_speed, f"{prefix}.wind_speed")
        cp = _number(wt.power_coefficient, f"{prefix}.power_coefficient")
        if not 0.0 < cp <= renewables_model.BETZ_LIMIT:
            raise ValidationError(
                f"{prefix}.power_coefficient",
                f"{prefix}.power_coefficient must be within "
                f"(0, {renewables_model.BETZ_LIMIT}], got {cp:.12g}",
            )
        _non_negative(wt.average_power, f"{prefix}.average_power")
        _non_negative(wt.operating_hours, f"{prefix}.operating_hours")

    if r.source is RenewableSource.FROM_PV_WIND_MODELS:
        modeled = renewables_model.annual_generation(
            scenario.pv_arrays, scenario.wind_turbines
        ).total_annual_mwh
        if not math.isclose(
            r.renewable_energy, modeled, rel_tol=MODELED_SUPPLY_TOLERANCE, abs_tol=0.0
        ):
            raise ValidationError(
                "renewables.renewable_energy",
                f"renewables.renewable_energy is {r.renewable_energy:.12g} but the "
                f"PV/wind assets model {modeled:.12g} MWh/yr",
            )

    c = scenario.costs
    _non_negative(c.baseline_cost_per_teu, "costs.baseline_cost_per_teu")
    _non_negative(c.optimized_cost_per_teu, "costs.optimized_cost_per_teu")

    w = scenario.objective_weights
    for name in ("w_emissions", "w_energy", "w_dispatch", "w_renewables"):
        _non_negative(getattr(w, name), f"objective_weights.{name}")
    for name in ("norm_emissions", "norm_energy", "norm_dispatch", "norm_renewables"):
        value = _number(getattr(w, name), f"objective_weights.{name}")
        if value <= 0:
            raise ValidationError(
                f"objective_weights.{name}",
                f"objective_weights.{name} must be positive, got {value:.12g}",
            )
    if not isinstance(w.renewables_reduce_score, bool):
        raise ValidationError(
            "objective_weights.renewables_reduce_score",
            "objective_weights.renewables_reduce_score must be a boolean",
        )

    for i, note in enumerate(scenario.notes):
        if not isinstance(note, str):
            raise ValidationError(f"notes[{i}]", f"notes[{i}] must be a string")

    return scenario


# ---------------------------------------------------------------------------
# JSON schema (fail-closed parsing)
# ---------------------------------------------------------------------------


def _check_keys(raw: Mapping[str, Any], allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(raw, Mapping):
        raise ValidationError(where, f"{where} must be an object")
    for key in raw:
        if key not in allowed:
            raise ValidationError(f"{where}.{key}", f"unknown key '{key}' in {where}")
    for key in required:
        if key not in raw:
            raise ValidationError(f"{where}.{key}", f"missing required key '{key}' in {where}")


def _parse_throughput(raw: Mapping[str, Any]) -> ThroughputSpec:
    keys = {"teu_per_year", "unit_energy"}
    _check_keys(raw, keys, keys, "throughput")
    return ThroughputSpec(
        teu_per_year=_number(raw["teu_per_year"], "throughput.teu_per_year"),
        unit_energy=_number(raw["unit_energy"], "throughput.unit_energy"),
    )


def _parse_shares(raw: Mapping[str, Any]) -> SectorShares:
    keys = {"equipment_share", "transport_share", "buildings_share"}
    _check_keys(raw, keys, keys, "shares")
    return SectorShares(
        equipment_share=_number(raw["equipment_share"], "shares.equipment_share"),
        transport_share=_number(raw["transport_share"], "shares.transport_share"),
        buildings_share=_number(raw["buildings_share"], "shares.buildings_share"),
    )


def _parse_factors(raw: Mapping[str, Any]) -> EmissionFactorSet:
    keys = {"equipment_factor", "transport_factor", "buildings_factor", "grid_factor"}
    _check_keys(raw, keys, keys, "factors")
    return EmissionFactorSet(
        equipment_factor=_number(raw["equipment_factor"], "factors.equipment_factor"),
        transport_factor=_number(raw["transport_factor"], "factors.transport_factor"),
        buildings_factor=_number(raw["buildings_factor"], "factors.buildings_factor"),
        grid_factor=_number(raw["grid_factor"], "factors.grid_factor"),
    )


def _parse_renewables(
    raw: Mapping[str, Any],
    pv_arrays: tuple[PvArraySpec, ...],
    wind_turbines: tuple[WindTurbineSpec, ...],
) -> RenewableSupplySpec:
    allowed = {"renewable_energy", "source", "new_green_energy"}
    _check_keys(raw, allowed, {"source"}, "renewables")
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
        renewable_energy = renewables_model.annual_generation(
            pv_arrays, wind_turbines
        ).total_annual_mwh
    else:
        raise ValidationError(
            "renewables.renewable_energy",
            "missing required key 'renewable_energy' in renewables "
            "(required unless source is from_pv_wind_models)",
        )
    new_green = raw.get("new_green_energy")
    if new_green is not None:
        new_green = _number(new_green, "renewables.new_green_energy")
    return RenewableSupplySpec.create(
        renewable_energy=renewable_energy, source=source, new_green_energy=new_green
    )


def _parse_pv(raw: Mapping[str, Any], where: str) -> PvArraySpec:
    allowed = {
        "panel_area", "irradiance", "module_efficiency",
        "peak_power", "sun_hours", "performance_ratio",
    }
    _check_keys(raw, allowed, {"panel_area", "module_efficiency"}, where)
    kwargs: dict[str, float] = {}
    for key in allowed:
        if key in raw:
            kwargs[key] = _number(raw[key], f"{where}.{key}")
    return PvArraySpec.create(**kwargs)


def _parse_wind(raw: Mapping[str, Any], where: str) -> WindTurbineSpec:
    allowed = {
        "air_density", "swept_area", "wind_speed",
        "power_coefficient", "average_power", "operating_hours",
    }
    _check_keys(raw, allowed, {"swept_area", "wind_speed", "operating_hours"}, where)
    kwargs: dict[str, float] = {}
    for key in allowed:
        if key in raw:
            kwargs[key] = _number(raw[key], f"{where}.{key}")
    return WindTurbineSpec.create(**kwargs)


def _parse_costs(raw: Mapping[str, Any]) -> CostParameters:
    keys = {"baseline_cost_per_teu", "optimized_cost_per_teu"}
    _check_keys(raw, keys, keys, "costs")
    return CostParameters(
        baseline_cost_per_teu=_number(raw["baseline_cost_per_teu"], "costs.baseline_cost_per_teu"),
        optimized_cost_per_teu=_number(raw["optimized_cost_per_teu"], "costs.optimized_cost_per_teu"),
    )


def _parse_weights(raw: Mapping[str, Any]) -> ObjectiveWeights:
    allowed = {
        "w_emissions", "w_energy", "w_dispatch", "w_renewables",
        "norm_emissions", "norm_energy", "norm_dispatch", "norm_renewables",
        "renewables_reduce_score",
    }
    _check_keys(raw, allowed, set(), "objective_weights")
    kwargs: dict[str, Any] = {}
    for key in allowed - {"renewables_reduce_score"}:
        if key in raw:
            kwargs[key] = _number(raw[key], f"objective_weights.{key}")
    if "renewables_reduce_score" in raw:
        flag = raw["renewables_reduce_score"]
        if not isinstance(flag, bool):
            raise ValidationError(
                "objective_weights.renewables_reduce_score",
                "objective_weights.renewables_reduce_score must be a boolean",
            )
        kwargs["renewables_reduce_score"] = flag
    return ObjectiveWeights(**kwargs)


def _parse_matrix(raw: Any) -> CostMatrix | None:
    if raw is None:
        return None
    if not isinstance(raw, list) or not all(isinstance(row, list) for row in raw):
        raise ValidationError("dispatch_matrix", "dispatch_matrix must be a list of rows")
    for i, row in enumerate(raw):
        for j, cell in enumerate(row):
            _number(cell, f"dispatch_matrix[{i}][{j}]")
    try:
        return CostMatrix.from_rows(raw)
    except DispatchError as exc:
        raise ValidationError("dispatch_matrix", f"dispatch_matrix: {exc}") from None


def scenario_from_dict(raw: Mapping[str, Any]) -> Scenario:
    """Build a Scenario from a parsed JSON object. Rejects unknown keys.

    Only structural and type errors are raised here; value invariants are
    the job of :func:`validate_scenario`.
    """
    allowed = {
        "name", "throughput", "shares", "factors", "renewables", "costs",
        "pv_arrays", "wind_turbines", "dispatch_matrix", "objective_weights", "notes",
    }
    required = {"name", "throughput", "shares", "factors", "renewables", "costs"}
    _check_keys(raw, allowed, required, "scenario")

    name = raw["name"]
    if not isinstance(name, str):
        raise ValidationError("name", "name must be a string")

    pv_raw = raw.get("pv_arrays", [])
    if not isinstance(pv_raw, list):
        raise ValidationError("pv_arrays", "pv_arrays must be a list")
    pv_arrays = tuple(_parse_pv(item, f"pv_arrays[{i}]") for i, item in enumerate(pv_raw))

    wind_raw = raw.get("wind_turbines", [])
    if not isinstance(wind_raw, list):
        raise ValidationError("wind_turbines", "wind_turbines must be a list")
    wind_turbines = tuple(
        _parse_wind(item, f"wind_turbines[{i}]") for i, item in enumerate(wind_raw)
    )

    notes_raw = raw.get("notes", [])
    if not isinstance(notes_raw, list) or not all(isinstance(n, str) for n in notes_raw):
        raise ValidationError("notes", "notes must be a list of strings")

    return Scenario(
        name=name,
        throughput=_parse_throughput(raw["throughput"]),
        shares=_parse_shares(raw["shares"]),
        factors=_parse_factors(raw["factors"]),
        renewables=_parse_renewables(raw["renewables"], pv_arrays, wind_turbines),
        costs=_parse_costs(raw["costs"]),
        pv_arrays=pv_arrays,
        wind_turbines=wind_turbines,
        dispatch_matrix=_parse_matrix(raw.get("dispatch_matrix")),
        objective_weights=_parse_weights(raw.get("objective_weights", {})),
        notes=tuple(notes_raw),
    )


def scenario_to_dict(scenario: Scenario) -> dict[str, Any]:
    """Inverse of :func:`scenario_from_dict`; round-trips exactly."""
    return {
        "name": scenario.name,
        "throughput": {
            "teu_per_year": scenario.throughput.teu_per_year,
            "unit_energy": scenario.throughput.unit_energy,
        },
        "shares": {
            "equipment_share": scenario.shares.equipment_share,
            "transport_share": scenario.shares.transport_share,
            "buildings_share": scenario.shares.buildings_share,
        },
        "factors": {
            "equipment_factor": scenario.factors.equipment_factor,
            "transport_factor": scenario.factors.transport_factor,
            "buildings_factor": scenario.factors.buildings_factor,
            "grid_factor": scenario.factors.grid_factor,
        },
        "renewables": {
            "renewable_energy": scenario.renewables.renewable_energy,
            "source": scenario.renewables.source.value,
            "new_green_energy": scenario.renewables.new_green_energy,
        },
        "costs": {
            "baseline_cost_per_teu": scenario.costs.baseline_cost_per_teu,
            "optimized_cost_per_teu": scenario.costs.optimized_cost_per_teu,
        },
        "pv_arrays": [
            {
                "panel_area": pv.panel_area,
                "irradiance": pv.irradiance,
                "module_efficiency": pv.module_efficiency,
                "peak_power": pv.peak_power,
                "sun_hours": pv.sun_hours,
                "performance_ratio": pv.performance_ratio,
            }
            for pv in scenario.pv_arrays
        ],
        "wind_turbines": [
            {
                "air_density": wt.air_density,
                "swept_area": wt.swept_area,
                "wind_speed": wt.wind_speed,
                "power_coefficient": wt.power_coefficient,
                "average_power": wt.average_power,
                "operating_hours": wt.operating_hours,
            }
            for wt in scenario.wind_turbines
        ],
        "dispatch_matrix": (
            None
            if scenario.dispatch_matrix is None
            else [list(row) for row in scenario.dispatch_matrix.entries]
        ),
        "objective_weights": {
            "w_emissions": scenario.objective_weights.w_emissions,
            "w_energy": scenario.objective_weights.w_energy,
            "w_dispatch": scenario.objective_weights.w_dispatch,
            "w_renewables": scenario.objective_weights.w_renewables,
            "norm_emissions": scenario.objective_weights.norm_emissions,
            "norm_energy": scenario.objective_weights.norm_energy,
            "norm_dispatch": scenario.objective_weights.norm_dispatch,
            "norm_renewables": scenario.objective_weights.norm_renewables,
            "renewables_reduce_score": scenario.objective_weights.renewables_reduce_score,
        },
        "notes": list(scenario.notes),
    }


def scenario_to_json(scenario: Scenario) -> str:
    return json.dumps(scenario_to_dict(scenario), indent=2) + "\n"


def scenario_from_json(text: str) -> Scenario:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError("scenario", f"invalid JSON: {exc}") from None
    return scenario_from_dict(raw)


def load_scenario(path: str | PathLike[str]) -> Scenario:
    """Parse and fully validate a scenario file."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return validate_scenario(scenario_from_json(text))


def with_shares(scenario: Scenario, shares: SectorShares) -> Scenario:
    return replace(scenario, shares=shares)


def with_weights(scenario: Scenario, weights: ObjectiveWeights) -> Scenario:
    return replace(scenario, objective_weights=weights)
