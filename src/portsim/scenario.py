"""Domain types for a port scenario, checked once when they are built.

A scenario is the complete declarative description of one port case:
throughput, sector split, emission factors, renewable supply, generation
assets, costs, an optional AGV dispatch matrix and objective weights.
Everything is immutable after construction, and a ``Scenario`` checks
every invariant in ``__post_init__``, structure too (each record's class,
the tuples, the matrix type): an invalid one cannot be built, whether it
comes from a file, from ``Scenario(...)`` or from a ``replace`` of one of
its fields. The first violated field is reported by its dotted path
(``pv_arrays[2].module_efficiency``). The parse checks only what JSON
alone decides (keys, numbers, finiteness, the cells of a matrix) and
leaves every other invariant to that check.

Each record's numeric fields are declared once, in a ``_Table`` of their
ranges ``(low, high, wording)`` and defaults: required, a constant, or
derived by ``create`` from the other fields. A value passes on one
comparison, ``type(v) is float and low <= v <= high``, which also fails
for NaN and the infinities; only a failing value takes the slow path,
which stores an int in range as its float in the record (so equal
Scenarios write equal reports) or raises with the field path, formatted
only then. A file's record is read in one walk when its keys are known
and each of its numbers is a float in its range; a field that is no
number (the weights' flag) rides through as given, for the Scenario's
check to judge. An asset's required keys are proved by its build
(``create`` raises without one), a single record's by a key test first,
since a record class compiles its ``__init__`` on a call it cannot
bind. The record built from it is marked as in range if the fields
``create`` derives are in range too; the mark is kept outside the fields
(no comparison, hash, repr, ``replace`` or ``asdict`` sees it), and the
Scenario's check passes a marked record of the table's class without
walking it again. Any miss takes the exact path, which checks keys,
types and finiteness and leaves ranges to the check, so a document's
first error is the same on either path. The supply is read unmarked, so
the check walks its two numbers. A supply the file leaves to the assets
is modeled by the parse, to fill it in, and again by the check, which
compares and keeps the result. Parsing, the range check, the allowed and
required keys and ``create``'s defaults all read the same tables.

Scenario files are JSON with keys named exactly like the record fields
below. Unknown keys are rejected rather than ignored, so a typo in a file
fails loudly instead of silently falling back to a default.

Canonical units: energy in MWh (asset-level PV/wind formulas run in kWh
and are converted at the boundary), emissions in kg CO2, money in USD.
"""

from __future__ import annotations

import itertools
import math
import sys

from . import renewables as renewables_model
from ._record import asdict, record, replace
from .dispatch import CostMatrix
from .errors import DispatchError, ValidationError, _detaching
from .objective import ObjectiveWeights

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Collection, Iterable, Mapping
    from os import PathLike
    from typing import Any

    from .renewables import GenerationResult

#: Sector shares must sum to 1 within this tolerance; inputs are
#: human-authored decimals, so anything larger is a typo.
SHARE_SUM_TOLERANCE = 1e-9

#: Relative tolerance for agreement between a stated renewable supply and
#: the value modeled from the scenario's PV/wind assets.
MODELED_SUPPLY_TOLERANCE = 1e-6

_MAX = sys.float_info.max
_MIN = -_MAX  # a constant, so a finiteness test negates nothing
_TINY = 5e-324  # the smallest positive float


class RenewableSource:
    """The two values of ``RenewableSupplySpec.source``, plain ``str`` constants."""

    EXPLICIT = "explicit"
    FROM_PV_WIND_MODELS = "from_pv_wind_models"


_SOURCES = [RenewableSource.EXPLICIT, RenewableSource.FROM_PV_WIND_MODELS]


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
    source: str  # one of the RenewableSource constants
    new_green_energy: float

    @classmethod
    def create(
        cls,
        renewable_energy: float,
        source: str = RenewableSource.EXPLICIT,
        new_green_energy: float | None = None,
    ) -> "RenewableSupplySpec":
        if new_green_energy is None:
            new_green_energy = renewable_energy
        return cls(renewable_energy, source, new_green_energy)


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

    @staticmethod
    def create(
        panel_area: float,
        module_efficiency: float,
        irradiance: float,
        peak_power: float | None,
        sun_hours: float,
        performance_ratio: float,
    ) -> "PvArraySpec":  # the defaults are those of the ``_PV`` table
        if peak_power is None:
            peak_power = renewables_model.pv_instant_power(panel_area, irradiance, module_efficiency)
        return PvArraySpec(panel_area, irradiance, module_efficiency, peak_power, sun_hours,
                           performance_ratio)


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

    @staticmethod
    def create(
        swept_area: float,
        wind_speed: float,
        operating_hours: float,
        air_density: float,
        power_coefficient: float,
        average_power: float | None,
    ) -> "WindTurbineSpec":  # the defaults are those of the ``_WIND`` table
        if average_power is None:
            average_power = renewables_model.wind_instant_power(air_density, swept_area,
                                                                wind_speed, power_coefficient)
        return WindTurbineSpec(air_density, swept_area, wind_speed, power_coefficient,
                               average_power, operating_hours)


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

    _generation = None  # what the check modeled, if the assets give the supply; not a field

    def __post_init__(self) -> None:
        _check_scenario(self)


# ---------------------------------------------------------------------------
# Checks: one comparison per value, and a slow path only when it fails
# ---------------------------------------------------------------------------


def _number(value: Any, field_name: str) -> float:
    if type(value) is float and _MIN <= value <= _MAX:
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


def _out_of_range(value: Any, field_name: str, low: float, high: float, bounds: str) -> float:
    """Slow path of a range check: the float of an int in range, else raise."""
    value = _number(value, field_name)
    if not low <= value <= high:
        raise ValidationError(field_name, f"{field_name} must be {bounds}, got {value:.12g}")
    return value


# Ranges as (low, high, wording): ``low <= v <= high`` is the whole test.
_NON_NEGATIVE = (0.0, _MAX, "non-negative")
_FRACTION = (0.0, 1.0, "within [0, 1]")
_POSITIVE = (_TINY, _MAX, "positive")
_BETZ = (_TINY, renewables_model.BETZ_LIMIT, f"within (0, {renewables_model.BETZ_LIMIT}]")


_REQUIRED = "required"  # the default of a number that a file must give


class _Table:
    """A record class ``cls``, the only class the check passes, and its numeric fields in
    declaration order. Each is given as its range, if a file must give it (or the record
    declares its default), or as ``(range, default)``, the default being a constant, or None
    for a value ``create`` derives from the other fields. ``rows`` maps each to ``(name, low,
    high, wording, default)``; ``fields`` holds every key a file may give, ``others`` those
    that are no number, ``required`` (set-like, in order) the numbers it must give, and
    ``defaults`` the optional numbers' defaults in order, as ``create`` takes them. ``build``
    is ``create``, or the class if it has none. ``limits`` maps each key to ``(low, high)``,
    empty for ``others``, and ``derived`` holds ``(name, low, high)`` of those ``create``
    derives."""

    def __init__(self, cls: type, **rows: Any) -> None:
        self.cls, declared, self.rows = cls, vars(cls), {}
        for name, row in rows.items():
            limits, default = row if type(row[0]) is tuple else (row, declared.get(name, _REQUIRED))
            self.rows[name] = (name, *limits, default)
        self.fields = frozenset(cls.__match_args__)
        self.others = self.fields - self.rows.keys()
        self.build = getattr(cls, "create", cls)
        self.required = {n: None for n, *_, d in self.rows.values() if d is _REQUIRED}.keys()
        self.defaults = tuple(d for *_, d in self.rows.values() if d is not _REQUIRED)
        self.limits = {n: (low, high) for n, low, high, *_ in self.rows.values()}
        self.limits.update(dict.fromkeys(self.others, (_MAX, _MIN)))
        self.derived = tuple((n, low, high) for n, low, high, _, d in self.rows.values() if d is None)


_THROUGHPUT = _Table(ThroughputSpec, teu_per_year=_NON_NEGATIVE, unit_energy=_NON_NEGATIVE)
_SHARES = _Table(
    SectorShares, equipment_share=_FRACTION, transport_share=_FRACTION, buildings_share=_FRACTION
)
_FACTORS = _Table(
    EmissionFactorSet,
    equipment_factor=_NON_NEGATIVE,
    transport_factor=_NON_NEGATIVE,
    buildings_factor=_NON_NEGATIVE,
    grid_factor=_NON_NEGATIVE,
)
_SUPPLY = _Table(
    RenewableSupplySpec,
    renewable_energy=(_NON_NEGATIVE, None),  # modeled from the assets, if the source says so
    new_green_energy=(_NON_NEGATIVE, None),  # renewable_energy's value
)
_PV = _Table(
    PvArraySpec,
    panel_area=_NON_NEGATIVE,
    irradiance=(_NON_NEGATIVE, 1.0),
    module_efficiency=_FRACTION,
    peak_power=(_NON_NEGATIVE, None),  # the output at the stated irradiance
    sun_hours=(_NON_NEGATIVE, renewables_model.DEFAULT_SUN_HOURS),
    performance_ratio=(_FRACTION, renewables_model.DEFAULT_PERFORMANCE_RATIO),
)
_WIND = _Table(
    WindTurbineSpec,
    air_density=(_POSITIVE, renewables_model.STANDARD_AIR_DENSITY),
    swept_area=_NON_NEGATIVE,
    wind_speed=_NON_NEGATIVE,
    power_coefficient=(_BETZ, renewables_model.DEFAULT_POWER_COEFFICIENT),
    average_power=(_NON_NEGATIVE, None),  # the output at the stated wind speed
    operating_hours=_NON_NEGATIVE,
)
_COSTS = _Table(
    CostParameters, baseline_cost_per_teu=_NON_NEGATIVE, optimized_cost_per_teu=_NON_NEGATIVE
)
_WEIGHTS = _Table(
    ObjectiveWeights,  # which declares each default
    w_emissions=_NON_NEGATIVE,
    w_energy=_NON_NEGATIVE,
    w_dispatch=_NON_NEGATIVE,
    w_renewables=_NON_NEGATIVE,
    norm_emissions=_POSITIVE,
    norm_energy=_POSITIVE,
    norm_dispatch=_POSITIVE,
    norm_renewables=_POSITIVE,
)
PvArraySpec.create.__defaults__ = _PV.defaults
WindTurbineSpec.create.__defaults__ = _WIND.defaults


#: The key, outside the fields, that marks a record whose every field is in range; like
#: ``Scenario._generation``, no comparison, hash, repr, ``replace`` or ``asdict`` sees it.
_IN_RANGE = "_in_range"


def _check_record(record: Any, table: _Table, where: str, index: int | None = None) -> None:
    if record.__class__ is not table.cls:  # tested before the mark, which any record may carry
        path = where if index is None else f"{where}[{index}]"
        raise ValidationError(path, f"{path} must be of type {table.cls.__name__}")
    values = record.__dict__
    if _IN_RANGE in values:
        return
    for name, low, high, bounds, _ in table.rows.values():
        value = values[name]
        if type(value) is not float or not low <= value <= high:
            path = where if index is None else f"{where}[{index}]"
            values[name] = _out_of_range(value, f"{path}.{name}", low, high, bounds)


def _items(value: Any, where: str) -> Iterable[tuple[int, Any]]:
    if value.__class__ is not tuple:
        raise ValidationError(where, f"{where} must be a tuple")
    return enumerate(value)


def _modeled(
    pv_arrays: Iterable[PvArraySpec], wind_turbines: Iterable[WindTurbineSpec]
) -> GenerationResult:
    try:
        return renewables_model.annual_generation(pv_arrays, wind_turbines)
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
    _check_record(t, _THROUGHPUT, "throughput")
    if not math.isfinite(t.teu_per_year * t.unit_energy):
        raise ValidationError(
            "throughput", "implied total energy teu_per_year * unit_energy overflows"
        )

    s = scenario.shares
    _check_record(s, _SHARES, "shares")
    share_sum = s.equipment_share + s.transport_share + s.buildings_share
    if abs(share_sum - 1.0) > SHARE_SUM_TOLERANCE:
        raise ValidationError("shares", f"shares sum to {share_sum:.12g}")

    _check_record(scenario.factors, _FACTORS, "factors")

    r = scenario.renewables
    _check_record(r, _SUPPLY, "renewables")
    if r.source not in _SOURCES:  # a list, not a set: the value may be unhashable
        raise ValidationError(
            "renewables.source", f"renewables.source must be one of {_SOURCES}, got {r.source!r}"
        )

    for i, pv in _items(scenario.pv_arrays, "pv_arrays"):  # a marked asset passes inline
        if pv.__class__ is not PvArraySpec or _IN_RANGE not in pv.__dict__:
            _check_record(pv, _PV, "pv_arrays", i)
    for i, wt in _items(scenario.wind_turbines, "wind_turbines"):
        if wt.__class__ is not WindTurbineSpec or _IN_RANGE not in wt.__dict__:
            _check_record(wt, _WIND, "wind_turbines", i)

    if r.source == RenewableSource.FROM_PV_WIND_MODELS:
        generation = _modeled(scenario.pv_arrays, scenario.wind_turbines)
        modeled = generation.total_annual_mwh
        if not math.isclose(
            r.renewable_energy, modeled, rel_tol=MODELED_SUPPLY_TOLERANCE, abs_tol=0.0
        ):
            raise ValidationError(
                "renewables.renewable_energy",
                f"renewables.renewable_energy is {r.renewable_energy:.12g} but the "
                f"PV/wind assets model {modeled:.12g} MWh/yr",
            )
        scenario.__dict__["_generation"] = generation

    _check_record(scenario.costs, _COSTS, "costs")

    if scenario.dispatch_matrix is not None and scenario.dispatch_matrix.__class__ is not CostMatrix:
        raise ValidationError("dispatch_matrix", "dispatch_matrix must be of type CostMatrix or None")

    w = scenario.objective_weights  # the flag is checked before the ranges
    if w.__class__ is ObjectiveWeights and not isinstance(w.renewables_reduce_score, bool):
        raise ValidationError(
            "objective_weights.renewables_reduce_score",
            "objective_weights.renewables_reduce_score must be a boolean",
        )
    _check_record(w, _WEIGHTS, "objective_weights")

    for i, note in _items(scenario.notes, "notes"):
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


_SCENARIO_KEYS = frozenset(Scenario.__match_args__)
_SCENARIO_REQUIRED = [name for name in Scenario.__match_args__ if name not in vars(Scenario)]


def _check_keys(
    raw: Mapping[str, Any], allowed: Collection[str], required: Iterable[str], where: str
) -> None:
    if type(raw) is not dict:
        from collections.abc import Mapping
        if not isinstance(raw, Mapping):
            raise ValidationError(where, f"{where} must be an object")
    for key in raw:
        if key not in allowed:
            raise ValidationError(f"{where}.{key}", f"unknown key '{key}' in {where}")
    for key in required:
        if key not in raw:
            raise ValidationError(f"{where}.{key}", f"missing required key '{key}' in {where}")


def _parse_numbers(
    raw: Mapping[str, Any], table: _Table, where: str, index: int | None = None
) -> dict[str, Any]:
    """The keys of ``table`` present in ``raw``, numbers as finite floats: the exact path.

    Only keys, types and finiteness are checked here; ranges and ``others``
    are checked when the Scenario is built, so errors keep their established order.
    """
    where = where if index is None else f"{where}[{index}]"
    _check_keys(raw, table.fields, table.required, where)
    numbers = {name: _number(raw[name], f"{where}.{name}") for name in table.rows if name in raw}
    return numbers | {name: raw[name] for name in table.others if name in raw}


def _parse_records(raws: Iterable[Any], table: _Table, where: str, indexed: bool = True) -> list[Any]:
    """``table.build`` of each of ``raws``: the one-walk read. A dict of known keys whose
    numbers are floats in their ranges is built from as it is, ``others`` as given, and marked
    if its derived fields are in range too; ``build`` proves the required keys (an asset's
    ``create`` raises ``TypeError`` without one). Anything else takes the exact path of
    ``_parse_numbers``, unmarked, as ``where[i]`` (``where`` if not ``indexed``)."""
    limits, others, derived, build, records = table.limits, table.others, table.derived, table.build, []
    for raw in raws:
        if type(raw) is dict:
            try:
                for key, value in raw.items():
                    low, high = limits[key]
                    if (type(value) is not float or not low <= value <= high) and key not in others:
                        break
                else:
                    built = build(**raw)
                    values = built.__dict__
                    for name, low, high in derived:
                        if not low <= values[name] <= high:  # an overflow to inf, or a NaN
                            break
                    else:
                        values[_IN_RANGE] = True
                    records.append(built)
                    continue
            except (KeyError, TypeError):  # a key the record does not have, or one it lacks
                pass
        index = len(records) if indexed else None
        records.append(build(**_parse_numbers(raw, table, where, index)))
    return records


def _parse_record(raw: Mapping[str, Any], table: _Table, where: str) -> Any:
    """One record of ``_parse_records``, its keys tested first: a record class's ``__init__``
    compiles itself on a call it cannot bind."""
    if type(raw) is dict and raw.keys() >= table.required:
        return _parse_records((raw,), table, where, False)[0]
    return table.build(**_parse_numbers(raw, table, where))


def _parse_assets(raw: Mapping[str, Any], key: str, table: _Table) -> tuple[Any, ...]:
    items = raw.get(key, [])
    if not isinstance(items, list):
        raise ValidationError(key, f"{key} must be a list")
    return tuple(_parse_records(items, table, key))


def _parse_renewables(
    raw: Mapping[str, Any],
    pv_arrays: tuple[PvArraySpec, ...],
    wind_turbines: tuple[WindTurbineSpec, ...],
) -> RenewableSupplySpec:
    _check_keys(raw, _SUPPLY.fields, ("source",), "renewables")
    if "renewable_energy" in raw:
        renewable_energy = _number(raw["renewable_energy"], "renewables.renewable_energy")
    elif raw["source"] == RenewableSource.FROM_PV_WIND_MODELS:
        # Derive the supply from the scenario's own generation assets.
        renewable_energy = _modeled(pv_arrays, wind_turbines).total_annual_mwh
    else:
        raise ValidationError(
            "renewables.renewable_energy",
            "missing required key 'renewable_energy' in renewables "
            "(required unless source is from_pv_wind_models)",
        )
    new_green = None
    if "new_green_energy" in raw:
        new_green = _number(raw["new_green_energy"], "renewables.new_green_energy")
    return RenewableSupplySpec.create(renewable_energy, raw["source"], new_green)


def _parse_notes(raw: Any) -> tuple[Any, ...]:
    if not isinstance(raw, (list, tuple)):
        raise ValidationError("notes", "notes must be a list")
    return tuple(raw)  # each note is checked with the Scenario


def _parse_matrix(raw: Any) -> CostMatrix | None:
    """A file's ``dispatch_matrix``, checked by ``CostMatrix``. Only a failure, or a cell that is
    no int or float (``float()`` takes ``true``), walks the cells, so that the first cell
    ``_number`` rejects is named before any shape or sign error that ``CostMatrix`` finds."""
    if raw is None:
        return None
    if not isinstance(raw, list) or not all(isinstance(row, list) for row in raw):
        raise ValidationError("dispatch_matrix", "dispatch_matrix must be a list of rows")
    try:
        matrix = CostMatrix.from_rows(raw)
    except DispatchError as exc:
        matrix, problem = None, f"dispatch_matrix: {exc}"
    if matrix is None or not {float, int}.issuperset(map(type, itertools.chain.from_iterable(raw))):
        for i, row in enumerate(raw):
            for j, value in enumerate(row):
                _number(value, f"dispatch_matrix[{i}][{j}]")
    if matrix is None:  # a shape or sign error
        raise ValidationError("dispatch_matrix", problem)
    return matrix


@_detaching
def scenario_from_dict(raw: Mapping[str, Any]) -> Scenario:
    """Build a checked Scenario from a parsed JSON object.

    Unknown or missing keys, numbers that are not finite JSON numbers, and
    assets or a matrix that are not JSON arrays are rejected while parsing;
    every other invariant is checked as the Scenario is built. Either way a
    :class:`ValidationError` names the field, raised with no frame below this call.
    """
    _check_keys(raw, _SCENARIO_KEYS, _SCENARIO_REQUIRED, "scenario")
    pv_arrays = _parse_assets(raw, "pv_arrays", _PV)
    wind_turbines = _parse_assets(raw, "wind_turbines", _WIND)

    return Scenario(
        name=raw["name"],
        throughput=_parse_record(raw["throughput"], _THROUGHPUT, "throughput"),
        shares=_parse_record(raw["shares"], _SHARES, "shares"),
        factors=_parse_record(raw["factors"], _FACTORS, "factors"),
        renewables=_parse_renewables(raw["renewables"], pv_arrays, wind_turbines),
        costs=_parse_record(raw["costs"], _COSTS, "costs"),
        pv_arrays=pv_arrays,
        wind_turbines=wind_turbines,
        dispatch_matrix=_parse_matrix(raw.get("dispatch_matrix")),
        objective_weights=_parse_record(raw.get("objective_weights", {}), _WEIGHTS, "objective_weights"),
        notes=_parse_notes(raw.get("notes", ())),  # read last, so every other parse error comes first
    )


def scenario_to_dict(scenario: Scenario) -> dict[str, Any]:
    """Inverse of :func:`scenario_from_dict`; round-trips exactly."""
    raw = asdict(scenario)
    if scenario.dispatch_matrix is not None:
        raw["dispatch_matrix"] = raw["dispatch_matrix"]["entries"]
    return raw


def scenario_to_json(scenario: Scenario) -> str:
    import json
    return json.dumps(scenario_to_dict(scenario), indent=2) + "\n"


class _Json:  # what json.loads gives its C scanner, and the scanner, built on first use
    strict, object_hook, object_pairs_hook = True, None, None
    parse_float, parse_int, scan = float, int, None
    parse_constant = {"NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf}.__getitem__


def _loads(text: str) -> Any:
    """``json.loads(text)``; json's own C scanner reads a valid document without ``json``."""
    try:
        if _Json.scan is None:
            from _json import make_scanner
            _Json.scan = make_scanner(_Json)
        if type(text) is str:  # bytes go to json, as does a BOM, which the scanner refuses
            value, end = _Json.scan(text, len(text) - len(text.lstrip(" \t\n\r")))
            if not text[end:].strip(" \t\n\r"):
                return value
    # SystemError: before Python 3.12 the scanner raises a syntax error only once json is loaded
    except (ImportError, StopIteration, ValueError, SystemError):
        pass
    import json
    return json.loads(text)


@_detaching
def scenario_from_json(text: str) -> Scenario:
    try:
        raw = _loads(text)
    # JSONDecodeError, an int beyond Python's digit limit, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise ValidationError("scenario", f"invalid JSON: {exc}") from None
    return scenario_from_dict(raw)


@_detaching
def load_scenario(path: str | PathLike[str]) -> Scenario:
    """Read a scenario file; the Scenario it returns is checked and valid."""
    with open(path, encoding="utf-8") as fh:
        try:
            return scenario_from_json(fh.read().removeprefix("\ufeff"))
        except UnicodeDecodeError as exc:
            raise ValidationError("scenario", f"not UTF-8 text: {exc}") from None


def with_shares(scenario: Scenario, shares: SectorShares) -> Scenario:
    return replace(scenario, shares=shares)


def with_weights(scenario: Scenario, weights: ObjectiveWeights) -> Scenario:
    return replace(scenario, objective_weights=weights)
