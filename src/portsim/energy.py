"""Total, per-sector and renewable-offset energy consumption."""

from __future__ import annotations

from ._record import record
from .scenario import SectorEnergyBreakdown, SectorShares, ThroughputSpec


@record
class EnergyResult:
    baseline_total: float  # MWh
    baseline_by_sector: SectorEnergyBreakdown
    optimized_total: float  # MWh
    reduction_fraction: float  # 0..1


def baseline_energy(throughput: ThroughputSpec) -> float:
    """Annual baseline consumption in MWh from throughput and per-TEU use."""
    return throughput.teu_per_year * throughput.unit_energy / 1000.0


def allocate_sectors(total: float, shares: SectorShares) -> SectorEnergyBreakdown:
    """Split a total (MWh) across equipment, transport and buildings."""
    return SectorEnergyBreakdown(
        equipment=total * shares.equipment_share,
        transport=total * shares.transport_share,
        buildings=total * shares.buildings_share,
    )


def optimized_energy(baseline: float, renewable_energy: float) -> float:
    """Consumption left after the renewable supply offsets the baseline.

    Clamped at zero; callers that care whether the clamp fired compare
    ``renewable_energy`` against ``baseline`` themselves.
    """
    return max(baseline - renewable_energy, 0.0)


def evaluate_energy(
    throughput: ThroughputSpec, shares: SectorShares, renewable_energy: float
) -> EnergyResult:
    """Run the full energy chain for one scenario."""
    baseline = baseline_energy(throughput)
    optimized = optimized_energy(baseline, renewable_energy)
    reduction = (baseline - optimized) / baseline if baseline > 0 else 0.0
    return EnergyResult(
        baseline_total=baseline,
        baseline_by_sector=allocate_sectors(baseline, shares),
        optimized_total=optimized,
        reduction_fraction=reduction,
    )
