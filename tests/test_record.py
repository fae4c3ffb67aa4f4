"""The contract every frozen record type of portsim keeps.

One sample per record class, built by keyword with every field set, pins
the constructor (field names, order and defaults), equality and hashing
on the field tuple, the ``repr`` text, immutability, pickling and
copying, pattern matching, and the ``dataclasses`` functions that callers
use on records.
"""

import copy
import dataclasses
import inspect
import pickle
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError

import pytest

import portsim
from portsim import (
    Assignment,
    CostMatrix,
    CostParameters,
    CostReport,
    DispatchError,
    EmissionFactorSet,
    EmissionsResult,
    EnergyResult,
    GenerationResult,
    ObjectiveScore,
    ObjectiveWeights,
    PvArraySpec,
    RenewableSource,
    RenewableSupplySpec,
    Scenario,
    SectorEnergyBreakdown,
    SectorShares,
    SimulationReport,
    ThroughputSpec,
    ValidationError,
    WindTurbineSpec,
)
from portsim._record import _COMPILE_AFTER, record

THROUGHPUT = dict(teu_per_year=1e6, unit_energy=100.0)
SECTORS = dict(equipment=50000.0, transport=30000.0, buildings=20000.0)
SHARES = dict(equipment_share=0.5, transport_share=0.3, buildings_share=0.2)
FACTORS = dict(equipment_factor=0.5, transport_factor=0.7, buildings_factor=1.2, grid_factor=0.4)
SUPPLY = dict(renewable_energy=10000.0, source=RenewableSource.EXPLICIT, new_green_energy=9000.0)
PV = dict(
    panel_area=1000.0,
    irradiance=1.0,
    module_efficiency=0.2,
    peak_power=200.0,
    sun_hours=1176.5,
    performance_ratio=0.8,
)
WIND = dict(
    air_density=1.225,
    swept_area=5000.0,
    wind_speed=8.0,
    power_coefficient=0.4,
    average_power=1254.4,
    operating_hours=3000.0,
)
COSTS = dict(baseline_cost_per_teu=100.0, optimized_cost_per_teu=90.0)
WEIGHTS = dict(
    w_emissions=2.0,
    w_energy=3.0,
    w_dispatch=4.0,
    w_renewables=5.0,
    norm_emissions=6.0,
    norm_energy=7.0,
    norm_dispatch=8.0,
    norm_renewables=9.0,
    renewables_reduce_score=False,
)
MATRIX = dict(entries=((1.0, 2.0), (3.0, 4.0)))
ASSIGNMENT = dict(mapping=(0, None), total_cost=1.0)
SCORE = dict(
    total=-1.5, emissions_term=1.0, energy_term=2.0, dispatch_term=0.5, renewables_term=-5.0
)
ENERGY = dict(
    baseline_total=100000.0,
    baseline_by_sector=SectorEnergyBreakdown(**SECTORS),
    optimized_total=90000.0,
    reduction_fraction=0.1,
)
EMISSIONS = dict(
    baseline_emissions=73000.0,
    optimized_emissions=69000.0,
    reduction=4000.0,
    renewable_credit=4000.0,
    baseline_intensity=0.73,
    optimized_intensity=0.7666666666666667,
    substitution_efficiency=0.4444444444444444,
)
COST_REPORT = dict(
    per_teu_baseline=100.0,
    per_teu_optimized=90.0,
    per_teu_savings=10.0,
    total_baseline=1e8,
    total_optimized=9e7,
    total_savings=1e7,
    savings_fraction=0.1,
)
GENERATION = dict(pv_annual=188240.0, wind_annual=3763200.0, total_annual_mwh=3951.44)
SCENARIO = dict(
    name="test-port",
    throughput=ThroughputSpec(**THROUGHPUT),
    shares=SectorShares(**SHARES),
    factors=EmissionFactorSet(**FACTORS),
    renewables=RenewableSupplySpec(**SUPPLY),
    costs=CostParameters(**COSTS),
    pv_arrays=(PvArraySpec(**PV),),
    wind_turbines=(WindTurbineSpec(**WIND),),
    dispatch_matrix=CostMatrix(**MATRIX),
    objective_weights=ObjectiveWeights(**WEIGHTS),
    notes=("a note",),
)
REPORT = dict(
    scenario_name="test-port",
    energy=EnergyResult(**ENERGY),
    emissions=EmissionsResult(**EMISSIONS),
    generation=GenerationResult(**GENERATION),
    assignment=Assignment(**ASSIGNMENT),
    costs=CostReport(**COST_REPORT),
    objective=ObjectiveScore(**SCORE),
    flags=("a flag",),
)

# (class, every field in declaration order, the defaulted fields and their defaults)
RECORDS = [
    (ThroughputSpec, THROUGHPUT, {}),
    (SectorEnergyBreakdown, SECTORS, {}),
    (SectorShares, SHARES, {}),
    (EmissionFactorSet, FACTORS, {}),
    (RenewableSupplySpec, SUPPLY, {}),
    (PvArraySpec, PV, {}),
    (WindTurbineSpec, WIND, {}),
    (CostParameters, COSTS, {}),
    (
        Scenario,
        SCENARIO,
        dict(
            pv_arrays=(),
            wind_turbines=(),
            dispatch_matrix=None,
            objective_weights=ObjectiveWeights(),
            notes=(),
        ),
    ),
    (CostMatrix, MATRIX, {}),
    (Assignment, ASSIGNMENT, {}),
    (
        ObjectiveWeights,
        WEIGHTS,
        {**dict.fromkeys(WEIGHTS, 1.0), "renewables_reduce_score": True},
    ),
    (ObjectiveScore, SCORE, {}),
    (EnergyResult, ENERGY, {}),
    (EmissionsResult, EMISSIONS, {}),
    (CostReport, COST_REPORT, {}),
    (GenerationResult, GENERATION, {}),
    (SimulationReport, REPORT, {}),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


def test_every_record_class_is_covered():
    modules = "dispatch economics emissions energy objective renewables report scenario".split()
    found = {
        value
        for name in modules
        for value in vars(getattr(portsim, name)).values()
        if isinstance(value, type)
        and dataclasses.is_dataclass(value)
        and value.__module__ == f"portsim.{name}"
    }
    assert found == {cls for cls, _, _ in RECORDS}


@pytest.mark.parametrize("cls, values, defaults", RECORDS, ids=IDS)
def test_constructor_signature_and_defaults(cls, values, defaults):
    params = inspect.signature(cls).parameters
    assert list(params) == list(values)
    assert {n for n, p in params.items() if p.default is not p.empty} == set(defaults)
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params.values())
    required = {n: v for n, v in values.items() if n not in defaults}
    built = cls(**required)
    for name, default in defaults.items():
        assert getattr(built, name) == default
    assert cls(*values.values()) == cls(**values)
    with pytest.raises(TypeError):
        cls(**values, no_such_field=1)


@pytest.mark.parametrize("cls, values, defaults", RECORDS, ids=IDS)
def test_equality_and_hash_follow_the_field_tuple(cls, values, defaults):
    record = cls(**values)
    twin = cls(**values)
    assert record == twin and not record != twin
    assert hash(record) == hash(twin) == hash(tuple(values.values()))
    other_cls, other_values, _ = RECORDS[(IDS.index(cls.__name__) + 1) % len(RECORDS)]
    other = other_cls(**other_values)
    assert record != other and other != record
    assert record.__eq__(other) is NotImplemented


def test_records_of_different_classes_with_equal_fields_differ():
    assert ThroughputSpec(1.0, 2.0) != CostParameters(1.0, 2.0)
    assert ThroughputSpec(1.0, 2.0) == ThroughputSpec(1, 2)
    assert ThroughputSpec(1.0, 2.0) != ThroughputSpec(1.0, 3.0)


@pytest.mark.parametrize("cls, values, defaults", RECORDS, ids=IDS)
def test_repr_names_every_field(cls, values, defaults):
    fields = ", ".join(f"{name}={value!r}" for name, value in values.items())
    assert repr(cls(**values)) == f"{cls.__qualname__}({fields})"


def test_repr_text():
    assert repr(ThroughputSpec(1e6, 100.0)) == (
        "ThroughputSpec(teu_per_year=1000000.0, unit_energy=100.0)"
    )
    assert repr(Assignment((0, None), 1.0)) == "Assignment(mapping=(0, None), total_cost=1.0)"
    assert repr(RenewableSupplySpec(1.0, RenewableSource.EXPLICIT, 2.0)) == (
        "RenewableSupplySpec(renewable_energy=1.0, source='explicit', new_green_energy=2.0)"
    )


@pytest.mark.parametrize("cls, values, defaults", RECORDS, ids=IDS)
def test_records_are_frozen(cls, values, defaults):
    record = cls(**values)
    for name, value in values.items():
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, value)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    with pytest.raises(FrozenInstanceError):
        record.no_such_field = 1
    assert record == cls(**values)


@pytest.mark.parametrize("cls, values, defaults", RECORDS, ids=IDS)
def test_dataclasses_functions_work(cls, values, defaults):
    record = cls(**values)
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(record)
    assert [f.name for f in dataclasses.fields(cls)] == list(values)
    assert [f.name for f in dataclasses.fields(record)] == list(values)
    copied = dataclasses.replace(record)
    assert copied == record and copied is not record
    assert list(dataclasses.asdict(record)) == list(values)
    assert dataclasses.astuple(record) == dataclasses.astuple(cls(**values))


def test_asdict_recurses_into_records():
    raw = dataclasses.asdict(Scenario(**SCENARIO))
    assert raw["throughput"] == THROUGHPUT
    assert raw["pv_arrays"] == (PV,)
    assert raw["objective_weights"] == WEIGHTS
    assert dataclasses.asdict(EnergyResult(**ENERGY))["baseline_by_sector"] == SECTORS


def test_replace_rechecks_a_scenario():
    scenario = Scenario(**SCENARIO)
    changed = dataclasses.replace(scenario, name="other")
    assert changed.name == "other" and changed.throughput is scenario.throughput
    with pytest.raises(ValidationError, match="name must be a non-empty string"):
        dataclasses.replace(scenario, name="")
    with pytest.raises(ValidationError, match="shares sum to 1.1"):
        dataclasses.replace(scenario, shares=SectorShares(0.5, 0.3, 0.3))
    with pytest.raises(TypeError):
        dataclasses.replace(scenario, no_such_field=1)


@pytest.mark.parametrize("cls, values, defaults", RECORDS, ids=IDS)
def test_pickle_and_copy_round_trip(cls, values, defaults):
    record = cls(**values)
    for clone in (
        pickle.loads(pickle.dumps(record)),
        copy.deepcopy(record),
        copy.copy(record),
    ):
        assert type(clone) is cls and clone == record and hash(clone) == hash(record)
        assert repr(clone) == repr(record)
        with pytest.raises(FrozenInstanceError):
            setattr(clone, next(iter(values)), None)


@pytest.mark.parametrize("cls, values, defaults", RECORDS, ids=IDS)
def test_match_args_are_the_fields(cls, values, defaults):
    assert cls.__match_args__ == tuple(values)


def test_match_on_records():
    match Scenario(**SCENARIO):
        case Scenario(name, ThroughputSpec(teu, energy), objective_weights=ObjectiveWeights(w)):
            assert (name, teu, energy, w) == ("test-port", 1e6, 100.0, 2.0)
        case _:
            pytest.fail("no match")
    match Assignment((0, None), 1.0):
        case CostMatrix():
            pytest.fail("matched another class")
        case Assignment(mapping=(0, None), total_cost=cost):
            assert cost == 1.0
        case _:
            pytest.fail("no match")


# A record's first constructions bind their arguments in a closure; after
# _COMPILE_AFTER of them, or on a call the closure cannot bind, the class runs a
# compiled __init__. Each test below builds a fresh copy of a class, so that its
# first construction takes the closure whatever the rest of the suite has built.


def fresh(cls):
    """A new record class with the fields and methods of ``cls``, never built."""
    ns = {k: v for k, v in vars(cls).items() if k not in ("__dict__", "__weakref__")}
    return record(type(cls.__name__, cls.__bases__, ns))


def is_compiled(cls):
    return cls.__init__.__code__.co_filename == "<string>"


def compile_by_use(cls, values):
    for _ in range(_COMPILE_AFTER + 1):
        cls(**values)
    assert is_compiled(cls)
    return cls


def calls(values, defaults):
    """Ways to call a record's constructor: all positional, all keyword, positional
    then keyword, and with the defaulted fields left out."""
    required = {n: v for n, v in values.items() if n not in defaults}
    head = dict(list(values.items())[: len(values) // 2])
    tail = {n: v for n, v in values.items() if n not in head}
    return [
        lambda c: c(*values.values()),
        lambda c: c(**values),
        lambda c: c(*head.values(), **tail),
        lambda c: c(**required),
        lambda c: c(*required.values()),
    ]


@pytest.mark.parametrize("cls, values, defaults", RECORDS, ids=IDS)
def test_the_closure_and_the_compiled_init_build_the_same_record(cls, values, defaults):
    copy_ = fresh(cls)
    first = [call(copy_) for call in calls(values, defaults)]
    assert not is_compiled(copy_)
    compile_by_use(copy_, values)
    later = [call(copy_) for call in calls(values, defaults)]
    assert first == later
    assert first[:3] == [copy_(**values)] * 3
    assert first[3] == first[4] == copy_(**{**values, **defaults})
    for built in first + later:
        assert list(vars(built)) in (list(values), [*values, "_integral"])  # and a CostMatrix's integral mark
        assert type(built) is copy_


def bad_calls(values, defaults):
    """Calls that bind no record: too many positionals, an unknown keyword, a
    keyword repeating a positional, ``self`` by keyword and missing fields."""
    names, args = list(values), list(values.values())
    required = [n for n in names if n not in defaults]
    missing = [
        lambda c: c(**{n: v for n, v in values.items() if n != required[-1]}),
        lambda c: c(*args[: len(required) - 1]),
        lambda c: c(),
    ]
    return [
        lambda c: c(*args, None),
        lambda c: c(**values, no_such_field=1),
        lambda c: c(*args[:1], **{names[0]: args[0]}),
        lambda c: c(self=None, **values),
        *(missing if required else []),
    ]


@pytest.mark.parametrize("cls, values, defaults", RECORDS, ids=IDS)
def test_bad_calls_raise_the_same_type_error_on_both_paths(cls, values, defaults):
    compiled = compile_by_use(fresh(cls), values)
    for call in bad_calls(values, defaults):
        with pytest.raises(TypeError) as expected:
            call(compiled)
        first = fresh(cls)
        with pytest.raises(TypeError) as raised:
            call(first)
        assert str(raised.value) == str(expected.value)
        assert is_compiled(first)  # the closure handed the call to the compiled __init__


@pytest.mark.parametrize("cls, values, defaults", RECORDS, ids=IDS)
def test_signature_before_any_instance_is_built(cls, values, defaults):
    copy_ = fresh(cls)
    signature = inspect.signature(copy_)
    assert not is_compiled(copy_)
    params = signature.parameters
    assert list(params) == list(values)
    assert {n: p.default for n, p in params.items() if p.default is not p.empty} == defaults
    compile_by_use(copy_, values)
    assert inspect.signature(copy_) == signature
    # the compiled __init__ has the same parameters after ``self``, and no annotations
    compiled = inspect.signature(copy_.__init__)
    assert signature == compiled.replace(parameters=list(compiled.parameters.values())[1:])


def test_the_init_is_compiled_after_the_set_number_of_constructions():
    copy_ = fresh(ThroughputSpec)
    for _ in range(_COMPILE_AFTER):
        copy_(**THROUGHPUT)
    assert not is_compiled(copy_)
    built = copy_(**THROUGHPUT)
    assert is_compiled(copy_) and built == copy_(**THROUGHPUT)


def test_post_init_checks_run_on_the_first_construction():
    scenario, matrix = fresh(Scenario), fresh(CostMatrix)
    with pytest.raises(ValidationError, match="name must be a non-empty string"):
        scenario(**{**SCENARIO, "name": ""})
    with pytest.raises(DispatchError, match=r"entry \(0, 1\) is negative"):
        matrix(((1.0, -1.0),))
    assert not is_compiled(scenario) and not is_compiled(matrix)


def test_threads_building_across_the_switch_agree():
    # the construction count is not locked: a lost count only delays the switch, and
    # threads that cross it together may each compile and install an equal __init__
    copy_ = fresh(SectorShares)
    start = threading.Barrier(4, timeout=10)

    def build(_):
        start.wait()
        return [copy_(**SHARES) for _ in range(_COMPILE_AFTER)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(build, k) for k in range(4)]
            built = [r for future in futures for r in future.result(timeout=10)]
    finally:
        sys.setswitchinterval(interval)
    assert len(built) == 4 * _COMPILE_AFTER and is_compiled(copy_)
    assert all(r == copy_(**SHARES) and list(vars(r)) == list(SHARES) for r in built)
