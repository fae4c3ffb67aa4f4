"""Flat per-TEU operating cost comparison.

The model is deliberately simple: a baseline and an optimized cost per
TEU, scaled by annual throughput. Negative savings are legal and reported
as such. Currency is treated as an opaque unit (USD by convention, never
converted).
"""

from __future__ import annotations

from ._record import record
from .scenario import CostParameters


@record
class CostReport:
    per_teu_baseline: float  # USD/TEU
    per_teu_optimized: float  # USD/TEU
    per_teu_savings: float  # USD/TEU
    total_baseline: float  # USD
    total_optimized: float  # USD
    total_savings: float  # USD
    savings_fraction: float  # total_savings / total_baseline


def cost_report(teu_per_year: float, costs: CostParameters) -> CostReport:
    per_teu_savings = costs.baseline_cost_per_teu - costs.optimized_cost_per_teu
    total_baseline = costs.baseline_cost_per_teu * teu_per_year
    total_savings = per_teu_savings * teu_per_year
    return CostReport(
        per_teu_baseline=costs.baseline_cost_per_teu,
        per_teu_optimized=costs.optimized_cost_per_teu,
        per_teu_savings=per_teu_savings,
        total_baseline=total_baseline,
        total_optimized=costs.optimized_cost_per_teu * teu_per_year,
        total_savings=total_savings,
        savings_fraction=total_savings / total_baseline if total_baseline > 0 else 0.0,
    )
