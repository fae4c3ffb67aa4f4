"""Weighted-sum scalarization of the four operational goals.

Emissions, energy and dispatch distance are minimized; renewable supply is
maximized, so its term enters with a negative sign by default. Because the
raw quantities carry incompatible units (kg, MWh, km), each term can be
non-dimensionalized by a positive normalizer before weighting; with all
weights and normalizers at 1 the score is the plain sum of the inputs.

Setting ``renewables_reduce_score`` to false adds the renewable term
instead of subtracting it, for callers that want the strictly summed form.
"""

from __future__ import annotations

import math

from ._record import record


@record
class ObjectiveWeights:
    w_emissions: float = 1.0
    w_energy: float = 1.0
    w_dispatch: float = 1.0
    w_renewables: float = 1.0
    norm_emissions: float = 1.0  # kg
    norm_energy: float = 1.0  # MWh
    norm_dispatch: float = 1.0  # km
    norm_renewables: float = 1.0  # MWh
    renewables_reduce_score: bool = True


@record
class ObjectiveScore:
    """Score total plus the four signed, weighted, normalized terms."""

    total: float
    emissions_term: float
    energy_term: float
    dispatch_term: float
    renewables_term: float


def score_scenario(
    emissions: float,
    energy: float,
    dispatch_cost: float,
    renewable_energy: float,
    weights: ObjectiveWeights,
) -> ObjectiveScore:
    """Scalarize one scenario's outcomes into a single comparable score."""
    sign = -1.0 if weights.renewables_reduce_score else 1.0
    terms = (
        weights.w_emissions * (emissions / weights.norm_emissions),
        weights.w_energy * (energy / weights.norm_energy),
        weights.w_dispatch * (dispatch_cost / weights.norm_dispatch),
        sign * weights.w_renewables * (renewable_energy / weights.norm_renewables),
    )
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError):  # a sum past the float range, or inf - inf
        total = sum(terms)  # inf or NaN, which the report's check names
    return ObjectiveScore(
        total=total,
        emissions_term=terms[0],
        energy_term=terms[1],
        dispatch_term=terms[2],
        renewables_term=terms[3],
    )
