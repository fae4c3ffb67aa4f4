import copy
import itertools
import math
import sys
import types
from fractions import Fraction
from pathlib import Path

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


def module_variant(module, source):
    """``source`` run as a throwaway module of ``module``'s package; ``sys.modules`` stays as it is."""
    variant = types.ModuleType(f"{module.__name__}_variant")
    variant.__package__ = module.__package__  # for its relative imports
    exec(compile(source, module.__file__, "exec"), variant.__dict__)
    return variant


def assert_the_test_catches(monkeypatch, test, name, module, pattern, mutant,
                            fails_with=(AssertionError, pytest.fail.Exception)):
    """``test`` passes with its global ``name`` taken from ``module``'s source run as a variant, and
    fails with it taken from the variant whose one ``pattern`` is replaced by ``mutant``: it raises
    one of ``fails_with``, a failed assertion unless the mutant lets another error out."""
    source = Path(module.__file__).read_text(encoding="utf-8")
    assert source.count(pattern) == 1, pattern
    monkeypatch.setitem(test.__globals__, name, getattr(module_variant(module, source), name))
    test()
    mutated = module_variant(module, source.replace(pattern, mutant))
    monkeypatch.setitem(test.__globals__, name, getattr(mutated, name))
    with pytest.raises(fails_with):
        test()
    assert sys.modules[module.__name__] is module


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


def lexicographic_optimum(entries):
    """What ``enumerate_injections`` returns, at any size: one Kuhn-Munkres
    solve of a perturbed square matrix, on Python ints.

    The matrix is padded to n x n, n = max(rows, cols), and its exact costs
    are scaled to ints. With B = n + 1, real cell (i, j) costs
    ``c * B**n + key(j) * B**(n - 1 - i)``, key(j) being j for a real column
    and ``cols`` for a padded one (an unassigned row comes after every
    column); padded rows cost 0. The keys of an assignment form one base-B
    number below B**n, read row by row, so the one optimum of the perturbed
    matrix is the lexicographically smallest optimal mapping of the original
    (Burkard, Dell'Amico & Martello, *Assignment Problems*, 2009).
    """
    cost, scale = _scaled(entries)
    n_rows, n_cols = len(cost), len(cost[0])
    n = max(n_rows, n_cols)
    big = (n + 1) ** n
    a = [  # 1-based: column 0 is a placeholder
        [0, *[c * big + j * digit for j, c in enumerate(row)], *[n_cols * digit] * (n - n_cols)]
        for row, digit in zip(cost, [(n + 1) ** (n - 1 - i) for i in range(n_rows)])
    ]
    a += [[0] * (n + 1)] * (n - n_rows)
    # The potentials form of the Hungarian method (Kuhn 1955, Munkres 1957), 1-based: row p[j] holds
    # column j, and column 0 is the virtual start of each row's search. A search adds the rows it
    # reaches one by one. ``minv[j]`` is the least reduced cost into free column j from those rows plus
    # ``total``, the sum of the steps taken so far, so the potentials move once, as the search ends.
    u, v, p, way = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
    for i in range(1, n + 1):
        p[0], j0, total = i, 0, 0
        minv, free, reached = [math.inf] * (n + 1), [*range(1, n + 1)], []
        while p[j0]:
            reached.append((j0, total))
            row, base = a[p[j0] - 1], u[p[j0]] - total
            total = math.inf
            for j in free:
                cur = row[j] - base - v[j]
                if cur < minv[j]:
                    minv[j], way[j] = cur, j0
                else:
                    cur = minv[j]
                if cur < total:
                    total, j1 = cur, j
            free.remove(j1)
            j0 = j1
        for j, before in reached:
            u[p[j]] += total - before
            v[j] -= total - before
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    mapping = [None] * n_rows
    for j in range(1, n_cols + 1):
        if p[j] <= n_rows:
            mapping[p[j] - 1] = j - 1
    return Fraction(sum(cost[i][j] for i, j in enumerate(mapping) if j is not None), scale), tuple(mapping)


def bound_tops(n, k):
    """Values x against 2**53, the bound of the float solve, for a longer
    side n: x * (n + 2) at most 2**53 - 1, at least 2**53, and at least
    2**53 + 2**k. A matrix's total is held to this bound; the largest entry
    only needs to be."""
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
