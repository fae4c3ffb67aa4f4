import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from portsim import (
    EmissionFactorSet,
    SectorEnergyBreakdown,
    baseline_emissions,
    carbon_intensity,
    emission_reduction,
    evaluate_emissions,
    optimized_emissions,
    substitution_efficiency,
)

FACTORS = EmissionFactorSet(0.5, 0.7, 1.2, 0.4)

# zero included explicitly; tiny positives are floored so that products
# stay clear of the subnormal range where exact doubling breaks down
energies = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e9))
factors = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=10))


def sectors_strategy():
    return st.tuples(energies, energies, energies).map(lambda t: SectorEnergyBreakdown(*t))


def factors_strategy():
    return st.tuples(factors, factors, factors, factors).map(lambda t: EmissionFactorSet(*t))


def test_baseline_emissions_reconciled_split():
    sectors = SectorEnergyBreakdown(393750.0, 157500.0, 236250.0)
    assert baseline_emissions(sectors, FACTORS) == 590625.0


def test_baseline_emissions_stated_split():
    sectors = SectorEnergyBreakdown(393750.0, 236250.0, 157500.0)
    assert baseline_emissions(sectors, FACTORS) == 551250.0


def test_baseline_emissions_zero():
    assert baseline_emissions(SectorEnergyBreakdown(0.0, 0.0, 0.0), FACTORS) == 0.0


def test_optimized_emissions_credit():
    sectors = SectorEnergyBreakdown(393750.0, 157500.0, 236250.0)
    assert optimized_emissions(sectors, FACTORS, 78750.0) == 590625.0 - 31500.0 == 559125.0


def test_optimized_emissions_identity_without_renewables():
    sectors = SectorEnergyBreakdown(123.0, 456.0, 789.0)
    assert optimized_emissions(sectors, FACTORS, 0.0) == baseline_emissions(sectors, FACTORS)


def test_optimized_emissions_clamped():
    zero = SectorEnergyBreakdown(0.0, 0.0, 0.0)
    assert optimized_emissions(zero, FACTORS, 100.0) == 0.0


def test_emission_reduction_examples():
    assert emission_reduction(590625.0, 559125.0) == 31500.0
    assert emission_reduction(42.0, 42.0) == 0.0
    assert emission_reduction(551250.0, 519750.0) == 31500.0


def test_emission_reduction_sign_is_informative():
    assert emission_reduction(100.0, 150.0) == -50.0


def test_carbon_intensity_examples():
    assert carbon_intensity(590625.0, 787500.0) == 0.75
    assert carbon_intensity(559125.0, 708750.0) == pytest.approx(0.79, abs=0.005)
    assert carbon_intensity(0.0, 0.0) == 0.0


def test_substitution_efficiency_examples():
    assert substitution_efficiency(31500.0, 75000.0) == 0.42
    assert substitution_efficiency(31500.0, 78750.0) == 0.4
    assert substitution_efficiency(0.0, 12345.0) == 0.0
    assert substitution_efficiency(10.0, 0.0) == 0.0


@given(sectors=sectors_strategy(), fs=factors_strategy())
def test_doubling_all_sectors_doubles_emissions(sectors, fs):
    doubled = SectorEnergyBreakdown(
        2 * sectors.equipment, 2 * sectors.transport, 2 * sectors.buildings
    )
    assert baseline_emissions(doubled, fs) == 2 * baseline_emissions(sectors, fs)


@given(sectors=sectors_strategy(), fs=factors_strategy())
# both totals are rounded on their own, so the delta carries an error of a
# few ulps of the totals, which exceeds any fixed absolute tolerance
@example(
    sectors=SectorEnergyBreakdown(946380379.0, 735518166.51, 901929123.16),
    fs=EmissionFactorSet(1e-06, 8.0, 3.0, 0.0),
)
@example(
    sectors=SectorEnergyBreakdown(620591693.0, 0.0, 858993398.0),
    fs=EmissionFactorSet(1e-06, 0.0, 10.0, 0.0),
)
def test_doubling_one_sector_adds_its_contribution(sectors, fs):
    bumped = SectorEnergyBreakdown(
        2 * sectors.equipment, sectors.transport, sectors.buildings
    )
    before = baseline_emissions(sectors, fs)
    after = baseline_emissions(bumped, fs)
    contribution = sectors.equipment * fs.equipment_factor
    assert math.isclose(
        after - before, contribution, rel_tol=1e-9, abs_tol=4 * math.ulp(max(before, after))
    )


@given(sectors=sectors_strategy(), fs=factors_strategy())
def test_no_renewables_means_identical_emissions(sectors, fs):
    assert optimized_emissions(sectors, fs, 0.0) == baseline_emissions(sectors, fs)


@given(sectors=sectors_strategy(), fs=factors_strategy(), renewable=energies)
def test_reduction_equals_credit_when_not_clamped(sectors, fs, renewable):
    baseline = baseline_emissions(sectors, fs)
    credit = renewable * fs.grid_factor
    if credit > baseline:
        return
    reduction = emission_reduction(baseline, optimized_emissions(sectors, fs, renewable))
    assert math.isclose(reduction, credit, rel_tol=1e-9, abs_tol=1e-6)


@given(sectors=sectors_strategy(), fs=factors_strategy(), renewable=energies)
def test_published_metrics_non_negative(sectors, fs, renewable):
    result = evaluate_emissions(
        sectors, fs, renewable, renewable, sectors.total(), sectors.total()
    )
    assert result.baseline_emissions >= 0
    assert result.optimized_emissions >= 0
    assert result.renewable_credit >= 0
    assert result.baseline_intensity >= 0
    assert result.optimized_intensity >= 0


def test_evaluate_emissions_full_case():
    sectors = SectorEnergyBreakdown(393750.0, 157500.0, 236250.0)
    result = evaluate_emissions(
        sectors, FACTORS,
        renewable_energy=78750.0, green_energy=75000.0,
        baseline_energy_mwh=787500.0, optimized_energy_mwh=708750.0,
    )
    assert result.baseline_emissions == 590625.0
    assert result.optimized_emissions == 559125.0
    assert result.reduction == 31500.0
    assert result.renewable_credit == 31500.0
    assert result.baseline_intensity == 0.75
    assert result.optimized_intensity == pytest.approx(0.79, abs=0.005)
    assert result.substitution_efficiency == 0.42
    # reduction is exactly the serialized baseline minus optimized
    assert result.reduction == result.baseline_emissions - result.optimized_emissions
