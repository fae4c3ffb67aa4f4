import copy
import itertools
import math
from fractions import Fraction

import pytest

from portsim import scenario_from_dict, validate_scenario

MINIMAL_SCENARIO = {
    "name": "test-port",
    "throughput": {"teu_per_year": 1.0e6, "unit_energy": 100.0},
    "shares": {
        "equipment_share": 0.5,
        "transport_share": 0.3,
        "buildings_share": 0.2,
    },
    "factors": {
        "equipment_factor": 0.5,
        "transport_factor": 0.7,
        "buildings_factor": 1.2,
        "grid_factor": 0.4,
    },
    "renewables": {"renewable_energy": 10000.0, "source": "explicit"},
    "costs": {"baseline_cost_per_teu": 100.0, "optimized_cost_per_teu": 90.0},
}


def make_scenario_dict(**overrides):
    """Fresh minimal scenario dict with top-level keys replaced by overrides."""
    raw = copy.deepcopy(MINIMAL_SCENARIO)
    raw.update(copy.deepcopy(overrides))
    return raw


@pytest.fixture
def minimal_scenario():
    return validate_scenario(scenario_from_dict(make_scenario_dict()))


@pytest.fixture
def zero_scenario_dict():
    return make_scenario_dict(
        name="empty-port",
        throughput={"teu_per_year": 0.0, "unit_energy": 0.0},
        renewables={"renewable_energy": 0.0, "source": "explicit"},
        costs={"baseline_cost_per_teu": 0.0, "optimized_cost_per_teu": 0.0},
    )


PAPER_MATRIX = [
    [420.0, 350.0, 450.0],
    [450.0, 400.0, 280.0],
    [420.0, 360.0, 390.0],
]


def _scaled(entries):
    """Every entry as an exact ``Fraction`` times their common denominator:
    integer costs in the same order, and that denominator."""
    exact = [[Fraction(x) for x in row] for row in entries]
    scale = math.lcm(*(f.denominator for row in exact for f in row))
    return [[int(f * scale) for f in row] for row in exact], scale


def enumerate_optima(entries):
    """Independent enumeration of a square matrix: the exact optimal total
    (a ``Fraction``) and every optimal permutation, in lexicographic order."""
    cost, scale = _scaled(entries)
    best, optima = None, []
    for perm in itertools.permutations(range(len(cost))):
        total = sum(map(list.__getitem__, cost, perm))
        if best is None or total < best:
            best, optima = total, [perm]
        elif total == best:
            optima.append(perm)
    return Fraction(best, scale), optima


def enumerate_injections(entries):
    """Exact optimum of a rectangular matrix with the documented tie-break.

    Every maximum-cardinality mapping is scored with exact fractions; the
    lexicographically smallest optimal one wins, an unassigned row (None)
    ordering after every column.
    """
    cost, scale = _scaled(entries)
    n_rows, n_cols = len(cost), len(cost[0])
    wide = n_rows <= n_cols
    best = None
    for chosen in itertools.permutations(range(max(n_rows, n_cols)), min(n_rows, n_cols)):
        if wide:  # chosen[i]: the column given row i
            mapping = list(chosen)
        else:  # chosen[j]: the row given column j
            mapping = [None] * n_rows
            for j, i in enumerate(chosen):
                mapping[i] = j
        total = sum(cost[i][j] for i, j in enumerate(mapping) if j is not None)
        key = (total, [n_cols if j is None else j for j in mapping])
        if best is None or key < best[0]:
            best = (key, tuple(mapping))
    return Fraction(best[0][0], scale), best[1]


def bound_tops(n, k):
    """Largest entries C against 2**53, the bound of the float solve, for a
    longer side n: C * (n + 2) at most 2**53 - 1, at least 2**53, and at
    least 2**53 + 2**k."""
    m = n + 2
    return (2**53 - 1) // m, -(-(2**53) // m), -(-(2**53 + 2**k) // m)


def tied_matrix(rng, rows, cols, top):
    """Integral float entries up to ``top``, most of them tied within 2 of it."""
    entries = [
        [float(top - rng.randint(0, 2) if rng.random() < 0.7 else rng.randint(0, top)) for _ in range(cols)]
        for _ in range(rows)
    ]
    entries[rng.randrange(rows)][rng.randrange(cols)] = float(top)
    return entries
