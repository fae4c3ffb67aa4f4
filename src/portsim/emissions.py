"""Carbon accounting: sector emissions, renewable credit, derived metrics.

Baseline emissions are the sum over the three sectors of energy times
emission factor. The optimized case keeps the sector consumptions and
subtracts a credit of ``renewable_energy * grid_factor`` for the grid
energy the renewables displace; a credit larger than the gross emissions
clamps the result at zero rather than going negative.

All energies are MWh, factors kg CO2/MWh, emissions kg CO2.
"""

from __future__ import annotations

from ._record import record
from .scenario import EmissionFactorSet, SectorEnergyBreakdown


@record
class EmissionsResult:
    baseline_emissions: float  # kg CO2
    optimized_emissions: float  # kg CO2
    reduction: float  # kg CO2, baseline minus optimized
    renewable_credit: float  # kg CO2 displaced by renewables (unclamped)
    baseline_intensity: float  # kg CO2/MWh
    optimized_intensity: float  # kg CO2/MWh
    substitution_efficiency: float  # kg CO2 avoided per MWh of new green energy


def baseline_emissions(sectors: SectorEnergyBreakdown, factors: EmissionFactorSet) -> float:
    return (
        sectors.equipment * factors.equipment_factor
        + sectors.transport * factors.transport_factor
        + sectors.buildings * factors.buildings_factor
    )


def optimized_emissions(
    new_sectors: SectorEnergyBreakdown,
    factors: EmissionFactorSet,
    renewable_energy: float,
) -> float:
    """Sector emissions minus the renewable grid credit, clamped at zero."""
    gross = baseline_emissions(new_sectors, factors)
    return max(gross - renewable_energy * factors.grid_factor, 0.0)


def emission_reduction(baseline: float, optimized: float) -> float:
    """Signed reduction; negative means the optimized case emits more."""
    return baseline - optimized


def carbon_intensity(emissions: float, energy: float) -> float:
    """Emissions per unit of energy; zero by convention when energy is zero."""
    return emissions / energy if energy > 0 else 0.0


def substitution_efficiency(reduction: float, green_energy: float) -> float:
    """Emissions avoided per MWh of newly introduced green energy."""
    return reduction / green_energy if green_energy > 0 else 0.0


def evaluate_emissions(
    sectors: SectorEnergyBreakdown,
    factors: EmissionFactorSet,
    renewable_energy: float,
    green_energy: float,
    baseline_energy_mwh: float,
    optimized_energy_mwh: float,
) -> EmissionsResult:
    """Run the full emissions chain for one scenario.

    ``green_energy`` is the substitution-efficiency denominator, which may
    differ from the offsetting ``renewable_energy`` (see RenewableSupplySpec).
    """
    baseline = baseline_emissions(sectors, factors)
    optimized = optimized_emissions(sectors, factors, renewable_energy)
    reduction = emission_reduction(baseline, optimized)
    return EmissionsResult(
        baseline_emissions=baseline,
        optimized_emissions=optimized,
        reduction=reduction,
        renewable_credit=renewable_energy * factors.grid_factor,
        baseline_intensity=carbon_intensity(baseline, baseline_energy_mwh),
        optimized_intensity=carbon_intensity(optimized, optimized_energy_mwh),
        substitution_efficiency=substitution_efficiency(reduction, green_energy),
    )
