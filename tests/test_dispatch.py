import math
import random
import re
import sys
import types
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from portsim import Assignment, CostMatrix, DispatchError, load_cost_matrix, solve_assignment
from portsim import dispatch
from portsim.dispatch import _shortest_paths
from conftest import (
    PAPER_MATRIX,
    bound_tops,
    enumerate_injections,
    enumerate_optima,
    lexicographic_optimum,
    module_variant,
)


def test_reference_matrix_oracle_first():
    best, optima = enumerate_optima(PAPER_MATRIX)
    assert best == 1050.0
    assert optima == [(1, 2, 0)]


def test_reference_matrix_solver_and_oracle():
    matrix = CostMatrix.from_rows(PAPER_MATRIX)
    solved = solve_assignment(matrix)
    best, optima = enumerate_optima(matrix.entries)
    assert solved.mapping == (1, 2, 0) == min(optima)
    assert solved.total_cost == 1050.0 == best


def test_all_zero_matrix_tie_break_is_identity():
    for n in range(1, 6):
        matrix = CostMatrix.from_rows([[0.0] * n for _ in range(n)])
        solved = solve_assignment(matrix)
        assert solved.mapping == tuple(range(n))
        assert solved.total_cost == 0.0
        assert min(enumerate_optima(matrix.entries)[1]) == solved.mapping


def test_symmetric_zero_diagonal_matrix():
    matrix = CostMatrix.from_rows([[0, 35, 40], [35, 0, 20], [40, 20, 0]])
    solved = solve_assignment(matrix)
    assert solved.mapping == (0, 1, 2)
    assert solved.total_cost == 0.0


def test_single_entry_matrix():
    assert solve_assignment(CostMatrix.from_rows([[7.25]])) == Assignment(mapping=(0,), total_cost=7.25)


def test_forced_zero_diagonal_optimum():
    # strictly increasing off-diagonal costs force the zero diagonal
    entries = [[0.0 if i == j else 10.0 + i + j for j in range(4)] for i in range(4)]
    assert enumerate_optima(entries)[1] == [(0, 1, 2, 3)]
    solved = solve_assignment(CostMatrix.from_rows(entries))
    assert solved.mapping == (0, 1, 2, 3)
    assert solved.total_cost == 0.0


def test_wide_matrix_pads_rows():
    # columns outnumber rows: every row is assigned
    # enumeration over injective mappings gives min 4 at (1, 0)
    matrix = CostMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
    solved = solve_assignment(matrix)
    assert solved.mapping == (1, 0)
    assert solved.total_cost == 4.0


def test_wide_range_costs_are_compared_exactly():
    # a padding sentinel near 3e17 would absorb the difference between 3 and 1
    solved = solve_assignment(CostMatrix.from_rows([[1e17, 3.0, 1.0]]))
    assert solved.mapping == (2,)
    assert solved.total_cost == 1.0


def test_tall_matrix_reports_unassigned_rows():
    # rows outnumber columns: the worst row stays unassigned
    matrix = CostMatrix.from_rows([[1, 2], [2, 4], [3, 6]])
    solved = solve_assignment(matrix)
    assert solved.mapping == (1, 0, None)
    assert solved.total_cost == 4.0


def test_non_finite_entries_rejected():
    with pytest.raises(DispatchError, match="not finite"):
        CostMatrix.from_rows([[1.0, math.nan], [2.0, 3.0]])
    with pytest.raises(DispatchError, match="not finite"):
        CostMatrix.from_rows([[1.0, math.inf], [2.0, 3.0]])


def test_integer_beyond_float_range_rejected():
    with pytest.raises(DispatchError, match="not finite"):
        CostMatrix.from_rows([[10**400]])


def test_negative_entries_rejected():
    with pytest.raises(DispatchError, match="negative"):
        CostMatrix.from_rows([[1.0, -0.5], [2.0, 3.0]])
    # construction validates too, so no solve has to check again
    with pytest.raises(DispatchError, match=r"entry \(1, 0\) is negative"):
        CostMatrix(entries=((1.0, 0.5), (-2.0, 3.0)))
    with pytest.raises(DispatchError, match="row 1 has 1 entries"):
        CostMatrix(entries=((1.0, 0.5), (2.0,)))


@pytest.mark.parametrize(
    ("value", "problem"),
    # a Decimal past the float range sums to a finite Decimal with the int cells
    [(math.nan, "not finite"), (math.inf, "not finite"), (Decimal("1e400"), "not finite"), (-0.5, "negative")],
)
def test_bad_entry_in_the_last_row_is_named(value, problem):
    with pytest.raises(DispatchError, match=rf"^cost matrix entry \(2, 1\) is {problem}$"):
        CostMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, value, 9]])


def test_short_row_after_good_rows_is_named():
    with pytest.raises(DispatchError, match="^cost matrix row 2 has 1 entries, expected 3$"):
        CostMatrix(entries=((1.0, 2.0, 3.0), (4.0, 5.0, 6.0), (7.0,)))


def test_empty_row_after_a_good_row_is_named():
    with pytest.raises(DispatchError, match=r"^cost matrix row 1 has 0 entries, expected 2$"):
        CostMatrix.from_rows([[1.0, 2.0], []])


@pytest.mark.parametrize("text", ["12", b"12", bytearray(b"12"), ""])
def test_text_row_is_named(text):
    # each character (or byte) of a text row used to become a cell
    with pytest.raises(DispatchError, match=r"^cost matrix row 1 is text, not a sequence of numbers$"):
        CostMatrix.from_rows([[1.0, 2.0], text])


@pytest.mark.parametrize(
    ("rows", "where", "shown"),
    [
        ([["1", b"2"]], "0, 0", "'1'"),
        ([[1.0, 2.0], [3.0, b"4"]], "1, 1", "b'4'"),
        ([[1, bytearray(b"2")]], "0, 1", "bytearray(b'2')"),
        ([[1.0, " 7 "], [2.0, 3.0]], "0, 1", "' 7 '"),
        ([[10**308, 10**308, "1"]], "0, 2", "'1'"),  # the int sum passes the float range first
    ],
)
def test_text_cell_is_named(rows, where, shown):
    # float() parses text, so each of these cells used to become a number
    message = rf"^cost matrix entry \({where}\) is not a number: {re.escape(shown)}$"
    with pytest.raises(DispatchError, match=message):
        CostMatrix.from_rows(rows)
    with pytest.raises(DispatchError, match=message):
        CostMatrix.from_rows(iter([iter(row) for row in rows]))


def test_numbers_that_sum_refuses_beside_a_float_are_accepted():
    from decimal import Decimal
    from fractions import Fraction

    rows = [[Decimal("1.5"), 2.0], [Fraction(1, 4), True]]
    assert CostMatrix.from_rows(rows).entries == ((1.5, 2.0), (0.25, 1.0))
    assert CostMatrix.from_rows([[10**308, 10**308, 1.0]]).entries == ((1e308, 1e308, 1.0),)


def test_matrix_given_as_one_string_is_named():
    with pytest.raises(DispatchError, match=r"^cost matrix row 0 is text"):
        CostMatrix.from_rows("12")
    for rows in (5, None):  # nor is a matrix that is not iterable at all
        with pytest.raises(DispatchError, match=r"^cost matrix is not a sequence of rows$"):
            CostMatrix(entries=rows)


def test_row_that_is_not_iterable_is_named():
    with pytest.raises(DispatchError, match=r"^cost matrix row 1 is not a sequence of numbers$"):
        CostMatrix.from_rows([[1.0, 2.0], 3.0])


@pytest.mark.parametrize(
    ("cell", "shown"), [("x", "'x'"), (None, "None"), ([1.0], "[1.0]"), ("", "''")]
)
def test_cell_that_float_rejects_is_named(cell, shown):
    message = rf"^cost matrix entry \(1, 2\) is not a number: {re.escape(shown)}$"
    with pytest.raises(DispatchError, match=message):
        CostMatrix.from_rows([[1, 2, 3], [4, 5, cell]])
    # rows and matrices given as iterators are named the same way
    with pytest.raises(DispatchError, match=message):
        CostMatrix.from_rows(iter([iter([1, 2, 3]), iter([4, 5, cell])]))


def test_first_failing_cell_decides_the_error():
    with pytest.raises(DispatchError, match=r"^cost matrix entry \(0, 1\) is not a number: 'x'$"):
        CostMatrix.from_rows([[1, "x", 10**400]])
    with pytest.raises(DispatchError, match=r"^cost matrix entry is not finite"):
        CostMatrix.from_rows([[1, 10**400, "x"]])
    # text that float() parses comes first too, and so does a bad value before a bad type
    with pytest.raises(DispatchError, match=r"^cost matrix entry \(0, 1\) is not a number: '1'$"):
        CostMatrix.from_rows([[1, "1", 10**400]])
    with pytest.raises(DispatchError, match=r"^cost matrix entry \(0, 0\) is negative$"):
        CostMatrix.from_rows([[-1, 2], ["x", 3]])
    with pytest.raises(DispatchError, match=r"^cost matrix row 1 has 1 entries, expected 2$"):
        CostMatrix.from_rows([[1, 2], [None], [math.nan, 3]])


def test_rows_of_any_iterable_are_accepted():
    expected = ((0.0, 1.0), (0.0, 1.0))
    assert CostMatrix.from_rows(map(range, [2, 2])).entries == expected
    assert CostMatrix.from_rows([[0, True], (x for x in (0.0, 1))]).entries == expected


def test_row_whose_float_sum_overflows_and_negative_zero_are_accepted():
    assert CostMatrix.from_rows([[1e308, 1e308]]).entries == ((1e308, 1e308),)
    assert solve_assignment(CostMatrix.from_rows([[-0.0, 1.0]])).mapping == (0,)


def test_total_past_the_float_range_rejected():
    # every entry is finite, but any assignment's exact sum is not
    matrix = CostMatrix.from_rows([[1e308, 1e308], [1e308, 1e308]])
    with pytest.raises(DispatchError, match="^total cost overflows$"):
        solve_assignment(matrix)


def test_empty_matrix_rejected():
    with pytest.raises(DispatchError):
        CostMatrix.from_rows([])
    with pytest.raises(DispatchError):
        CostMatrix.from_rows([[]])


def test_solver_is_deterministic():
    matrix = CostMatrix.from_rows(PAPER_MATRIX)
    assert solve_assignment(matrix) == solve_assignment(matrix)


@settings(max_examples=200, deadline=None)
@given(
    entries=st.integers(min_value=2, max_value=5).flatmap(
        lambda n: st.lists(
            st.lists(
                st.floats(min_value=0, max_value=1000, allow_nan=False), min_size=n, max_size=n
            ),
            min_size=n,
            max_size=n,
        )
    )
)
# the totals 5e-324 + 1.0 and 0.0 + 1.0 round to the same float: only an
# exact comparison sees that (1, 0) is the unique optimum
@example(entries=[[5e-324, 0.0], [1.0, 1.0]])
def test_oracle_equivalence_random(entries):
    n = len(entries)
    matrix = CostMatrix.from_rows(entries)
    solved = solve_assignment(matrix)
    # permutation validity on the square core
    assert sorted(solved.mapping) == list(range(n))
    best, optima = enumerate_optima(matrix.entries)
    assert solved.total_cost == float(best)
    # the tie-break picks the lexicographically smallest optimum
    assert solved.mapping == min(optima)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=5),
    data=st.data(),
)
def test_tie_heavy_integer_matrices(n, data):
    entries = [
        [float(data.draw(st.integers(min_value=0, max_value=3))) for _ in range(n)]
        for _ in range(n)
    ]
    matrix = CostMatrix.from_rows(entries)
    solved = solve_assignment(matrix)
    best, optima = enumerate_optima(matrix.entries)
    assert solved.total_cost == best
    assert solved.mapping == min(optima)


def rectangular_matrices(shapes=st.tuples(st.integers(1, 6), st.integers(1, 6))):
    ties = st.integers(min_value=0, max_value=3).map(float)
    wide = st.floats(min_value=1e-300, max_value=1e300)
    return shapes.flatmap(
        lambda shape: st.lists(
            st.lists(st.one_of(ties, wide), min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        )
    )


@settings(max_examples=150, deadline=None)
@given(entries=rectangular_matrices())
@example(entries=[[1e17, 3.0, 1.0]])
@example(entries=[[1e300, 1.0], [1e-300, 0.0], [2.0, 1e300]])
def test_rectangular_wide_range_against_exact_enumeration(entries):
    best, mapping = enumerate_injections(entries)
    solved = solve_assignment(CostMatrix.from_rows(entries))
    assert solved.mapping == mapping
    assert solved.total_cost == float(best)


#: Up to 9x4 (tall) and 4x9 (wide).
LONG_AND_SHORT = st.tuples(st.integers(5, 9), st.integers(1, 4), st.booleans()).map(
    lambda s: (s[0], s[1]) if s[2] else (s[1], s[0])
)


@settings(max_examples=60, deadline=None)
@given(entries=rectangular_matrices(LONG_AND_SHORT))
@example(entries=[[0.0] * 4] * 9)
@example(entries=[[0.0] * 9] * 4)
@example(entries=[[float((i * j) % 3) for j in range(4)] for i in range(9)])
@example(entries=[[1e300, 1.0, 1e-300, 2.0]] * 9)
def test_tall_and_wide_matrices_against_exact_enumeration(entries):
    # a tall matrix is solved as its transpose; the tie-break must not notice
    best, mapping = enumerate_injections(entries)
    solved = solve_assignment(CostMatrix.from_rows(entries))
    assert solved.mapping == mapping
    assert solved.total_cost == float(best)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 40])
def test_single_column_and_single_row_matrices(n):
    rng = random.Random(f"line-{n}")
    for values in ([float(rng.randint(0, 2)) for _ in range(n)], [rng.uniform(0, 9) for _ in range(n)]):
        best = values.index(min(values))  # the lowest index among the cheapest
        column = solve_assignment(CostMatrix.from_rows([[x] for x in values]))
        assert column.mapping == tuple(0 if i == best else None for i in range(n))
        assert column.total_cost == values[best]
        row = solve_assignment(CostMatrix.from_rows([values]))
        assert row == Assignment(mapping=(best,), total_cost=values[best])


@settings(max_examples=100, deadline=None)
@given(
    entries=st.tuples(st.integers(1, 7), st.integers(1, 7)).flatmap(
        lambda shape: st.lists(
            st.lists(st.integers(0, 2**53), min_size=shape[1], max_size=shape[1]),
            min_size=shape[0], max_size=shape[0],
        )
    ),
    k=st.integers(min_value=1, max_value=900),
)
@example(entries=[[3, 1, 2], [1, 3, 3]], k=1)
@example(entries=[[2**53, 1], [1, 0], [5, 2**53]], k=900)
def test_scaling_by_a_power_of_two_keeps_the_mapping(entries, k):
    # integral entries are solved on floats while max * (n + 2) < 2**53 and
    # as ints past it; the scaled ones (odd entries / 2**k) always as ints
    solved = solve_assignment(CostMatrix.from_rows(entries))
    scaled = solve_assignment(CostMatrix.from_rows([[math.ldexp(x, -k) for x in row] for row in entries]))
    assert scaled.mapping == solved.mapping
    assert scaled.total_cost == math.ldexp(solved.total_cost, -k)


def tie_heavy_rectangles():
    """Wide and tall matrices up to 7 per side, entries 0-2 or all zero."""
    shapes = st.tuples(st.integers(1, 7), st.integers(1, 7)).filter(lambda s: s[0] != s[1])
    entries = st.sampled_from([st.integers(0, 2).map(float), st.just(0.0)])
    return st.tuples(shapes, entries).flatmap(
        lambda se: st.lists(
            st.lists(se[1], min_size=se[0][1], max_size=se[0][1]), min_size=se[0][0], max_size=se[0][0]
        )
    )


#: The tie-break re-routes each of these through a zero line: a zero row
#: holding a free column of a wide matrix, or a zero column held by a row
#: that a tall matrix leaves unassigned.
ZERO_LINE_PATHS = [
    [[2, 1, 1, 0], [1, 1, 2, 0]],
    [[0, 1, 2, 1], [0, 2, 2, 1], [2, 2, 0, 2]],
    [[0, 2, 0], [0, 1, 1], [2, 0, 0], [1, 0, 2]],
    [[1, 1, 0], [2, 2, 2], [2, 1, 1], [2, 0, 0]],
]


@settings(max_examples=100, deadline=None)
@given(entries=tie_heavy_rectangles())
@example(entries=[[0.0] * 7] * 6)
@example(entries=[[0.0] * 6] * 7)
@example(entries=[[0.0] * 7])
@example(entries=[[0.0]] * 7)
@example(entries=ZERO_LINE_PATHS[0])
@example(entries=ZERO_LINE_PATHS[2])
# rows 0 and 1 have u < 0: leaving either unassigned would cost more
@example(entries=[[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
def test_tie_heavy_wide_and_tall_matrices_against_exact_enumeration(entries):
    best, mapping = enumerate_injections(entries)
    solved = solve_assignment(CostMatrix.from_rows(entries))
    assert solved.mapping == mapping
    assert solved.total_cost == float(best)


@pytest.mark.parametrize("entries", ZERO_LINE_PATHS)
def test_tie_break_paths_through_zero_lines(entries, monkeypatch):
    rows, cols = len(entries), len(entries[0])
    crossed = []

    def spy(start, i, target, tight, row4col, seen):
        chain = alternating_path(start, i, target, tight, row4col, seen)
        if chain is not None:  # the columns on the path: held by the chain, and target
            held = [c for c, row in enumerate(row4col) if row in chain] + [target]
            crossed.append(max(chain) >= rows or max(held) >= cols)
        return chain

    alternating_path = dispatch._alternating_path
    monkeypatch.setattr(dispatch, "_alternating_path", spy)
    best, mapping = enumerate_injections(entries)
    assert solve_assignment(CostMatrix.from_rows(entries)) == Assignment(mapping=mapping, total_cost=float(best))
    assert True in crossed


#: Shapes up to 8x8, with single rows and columns up to 1x8 and 8x1.
BOUND_SHAPES = [(r, c) for r in range(1, 6) for c in range(1, 6)] + [
    (6, 6), (7, 7), (8, 8), (3, 8), (8, 3), (1, 7), (1, 8), (7, 1), (8, 1)
]


@pytest.mark.parametrize("side", [0, 1, 2], ids=["under", "at", "over"])
def test_integral_costs_at_the_float_bound(side):
    # side indexes bound_tops, taken as the float total T: only T * (n + 2) under 2**53 marks the matrix
    rng = random.Random(f"bound-{side}")
    for rows, cols in BOUND_SHAPES:
        for k in (0, 26, 52):
            total = bound_tops(max(rows, cols), k)[side]
            entries = [[float(x) for x in row] for row in _int_cells(rng, rows, cols, total)]
            matrix = CostMatrix.from_rows(entries)
            assert _marked(matrix) is (side == 0)
            best, mapping = enumerate_injections(entries)
            assert solve_assignment(matrix) == Assignment(mapping=mapping, total_cost=float(best))


INTEGRAL_OR_NOT = st.one_of(st.integers(0, 2**80).map(float), st.floats(0, 1e300))


@given(st.lists(st.lists(INTEGRAL_OR_NOT, min_size=3, max_size=3), min_size=1, max_size=4))
@example([[2.0**80, 3.0, 0.0], [1e300, 5.0, 7.0]])  # integral, but past the mark's bound
@example([[2.0**80, 0.5, 0.0]])
def test_scaled_costs_are_the_entries_times_their_least_common_power_of_two(rows):
    # an integral matrix takes scale 1: as_integer_ratio gives (int(x), 1) for each x
    from fractions import Fraction

    entries = tuple(map(tuple, rows))
    scale = max(x.as_integer_ratio()[1] for row in entries for x in row)
    scaled = dispatch._scaled_costs(entries)
    assert scaled == [[Fraction(x) * scale for x in row] for row in entries]
    assert {type(cell) for row in scaled for cell in row} == {int}


def test_all_zero_200_is_identity():
    n = 200
    solved = solve_assignment(CostMatrix.from_rows([[0.0] * n for _ in range(n)]))
    assert solved.mapping == tuple(range(n))
    assert solved.total_cost == 0.0


@pytest.mark.parametrize("n", [50, 120, 200])
def test_integer_totals_match_scipy(n):
    np = pytest.importorskip("numpy")
    optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(f"scipy-{n}")
    cases = [
        [[float(rng.randint(0, hi)) for _ in range(cols)] for _ in range(rows)]
        for rows, cols, hi in ((n, n, 1000), (n, n, 3), (n // 2, n, 1000), (n, n // 2, 1000))
    ]
    # non-integral costs, with a unique optimum: the rational path
    cases.append([[(i + 1) * (j + 1) / 7 for j in range(n)] for i in range(n)])
    for entries in cases:
        rows, cols = len(entries), len(entries[0])
        solved = solve_assignment(CostMatrix.from_rows(entries))
        cost = np.array(entries)
        r, c = optimize.linear_sum_assignment(cost)
        assert solved.total_cost == math.fsum(cost[r, c].tolist())
        assigned = [j for j in solved.mapping if j is not None]
        assert len(assigned) == len(set(assigned)) == min(rows, cols)


@pytest.mark.parametrize(("rows", "cols"), [(200, 200), (100, 200), (200, 100)])
def test_every_assignment_of_i_plus_j_ties(rows, cols):
    # each full assignment of i + j costs the same, so the tie-break decides alone
    solved = solve_assignment(CostMatrix.from_rows([[i + j for j in range(cols)] for i in range(rows)]))
    assert solved.mapping == tuple(i if i < cols else None for i in range(rows))
    k = min(rows, cols)
    assert solved.total_cost == k * (k - 1)


#: The first statement of each search in ``_shortest_paths``, where ``searches`` counts them.
SEARCH_START = "dist: list[float] = [math.inf] * nc"


def searches(matrices):
    """How many searches ``solve_assignment`` runs over ``matrices``, counted by a copy of the
    solver that adds one to a counter as each search starts."""
    source = Path(dispatch.__file__).read_text(encoding="utf-8")
    assert source.count(SEARCH_START) == 1
    variant = module_variant(dispatch, source.replace(SEARCH_START, "SEARCHES[0] += 1; " + SEARCH_START))
    variant.SEARCHES = [0]
    for rows in matrices:
        variant.solve_assignment(variant.CostMatrix(entries=rows))
    return variant.SEARCHES[0]


def test_square_solves_stay_within_their_search_budget():
    # Each search is an O(n^2) Python loop, and unlike a time, a count of them repeats on any
    # machine. The column pass seats every row of i + j that the greedy start leaves (the start
    # seats 1 of 200, and 199 searched before the pass). On 16x16 matrices like the fleet's, random
    # and tie-heavy, it leaves fewer rows to search; the budgets are the counts with the pass, and
    # were 182 and 72 before it. A change that searches more breaks them.
    assert searches([[[i + j for j in range(200)] for i in range(200)]]) == 0
    rng = random.Random("search-budget")
    for hi, budget in ((1000, 122), (3, 67)):
        matrices = [[[rng.randint(0, hi) for _ in range(16)] for _ in range(16)] for _ in range(32)]
        assert searches(matrices) <= budget, hi


@pytest.mark.parametrize("rows", range(1, 8))
def test_lexicographic_optimum_is_the_enumerated_one(rows):
    # the oracle of the tests below, checked on every shape up to 7 per side
    rng = random.Random(f"oracle-{rows}")
    for cols in range(1, 8):
        cases = [[[rng.randint(0, hi) for _ in range(cols)] for _ in range(rows)] for hi in (2, 1000)]
        cases.append([[rng.random() * 2.0 ** rng.randint(-30, 30) for _ in range(cols)] for _ in range(rows)])
        for entries in cases:
            assert lexicographic_optimum(entries) == enumerate_injections(entries), entries


#: (rows, cols, cells from 0 to hi, or a rule of (i, j)), past the reach of enumeration.
ORACLE_CASES = {
    "16x16": (16, 16, 1000),
    "16x16-ties": (16, 16, 3),
    "8x16": (8, 16, 1000),
    "16x8": (16, 8, 1000),
    "6x7-wide-range": (6, 7, 100),  # and one cell from 1e16 to 1e17
    "200-ties": (200, 200, 2),
    "200-i+j": (200, 200, int.__add__),
    "200-i*j": (200, 200, int.__mul__),
    "200x100": (200, 100, 1000),
    "100x200": (100, 200, 1000),
}


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_int_and_float_cells_give_the_lexicographic_optimum(name):
    # int cells and their float twins carry the same mark; the twin of every cell / 8 is not integral
    rows, cols, hi = ORACLE_CASES[name]
    rng = random.Random(f"oracle-{name}")
    if callable(hi):
        ints = [[hi(i, j) for j in range(cols)] for i in range(rows)]
    else:
        ints = [[rng.randint(0, hi) for _ in range(cols)] for _ in range(rows)]
    if name == "6x7-wide-range":
        ints[rng.randrange(rows)][rng.randrange(cols)] = rng.randint(10**16, 10**17)
    marked = CostMatrix.from_rows(ints)
    floats = CostMatrix.from_rows(marked.entries)
    eighths = CostMatrix.from_rows([[x / 8 for x in row] for row in marked.entries])
    assert _marked(marked) is (name != "6x7-wide-range") and not _marked(eighths)
    assert floats == marked and floats.__dict__.get("_integral") == marked.__dict__.get("_integral")
    best, mapping = lexicographic_optimum(marked.entries)
    for matrix, total in ((marked, best), (eighths, best / 8)):
        solved = solve_assignment(matrix)
        assert solved.mapping == mapping
        assert float.hex(solved.total_cost) == float.hex(float(total))


def test_non_dyadic_cells_give_the_lexicographic_optimum():
    # Only multiples of 7 are dyadic here, so the matrix is not marked and every cell is scaled
    # by 2**54 into an int: the widest scaled solve of the fixed cases.
    matrix = CostMatrix.from_rows([[(i + 1) * (j + 1) / 7 for j in range(200)] for i in range(200)])
    assert not _marked(matrix)
    best, mapping = lexicographic_optimum(matrix.entries)
    solved = solve_assignment(matrix)
    assert solved.mapping == mapping
    assert float.hex(solved.total_cost) == float.hex(float(best))


#: kind -> a cell drawn from a seeded ``random.Random``: ties, a wide range (0-3 beside ints up
#: to 3 * 2**60, which the build rounds to floats, and 1e-9-scale floats) or uniform floats.
ORACLE_CELLS = {
    "ties": lambda rng: rng.randint(0, 2),
    "wide-range": lambda rng: (rng.randint(0, 3), rng.randint(0, 3 * 2**60), rng.random() * 1e-9)[rng.randrange(3)],
    "uniform": lambda rng: rng.random(),
}


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(8, 40),
    other=st.integers(1, 40),
    tall=st.booleans(),
    kind=st.sampled_from(sorted(ORACLE_CELLS)),
    seed=st.integers(0, 2**32),
)
def test_solve_is_the_lexicographic_optimum_past_enumeration(n, other, tall, kind, seed):
    # the longer side is past enumeration's 7; the shorter one is n more often than not
    rows, cols = (n, min(other, n)) if tall else (min(other, n), n)
    rng = random.Random(seed)
    matrix = CostMatrix.from_rows([[ORACLE_CELLS[kind](rng) for _ in range(cols)] for _ in range(rows)])
    best, mapping = lexicographic_optimum(matrix.entries)
    solved = solve_assignment(matrix)
    assert solved.mapping == mapping
    assert float.hex(solved.total_cost) == float.hex(float(best))


def short_side_matrices():
    """Integer matrices with no more rows than columns: entries 0-3 (ties),
    0-1000, or of any magnitude up to 2**80 (a wide range)."""
    wide = st.integers(0, 80).flatmap(lambda k: st.integers(0, 2**k))
    return st.sampled_from([st.integers(0, 3), st.integers(0, 1000), wide]).flatmap(
        lambda entry: st.tuples(st.integers(1, 8), st.integers(0, 4)).flatmap(
            lambda shape: st.lists(
                st.lists(entry, min_size=sum(shape), max_size=sum(shape)),
                min_size=shape[0], max_size=shape[0],
            )
        )
    )


@settings(max_examples=300, deadline=None)
@given(cost=short_side_matrices(), as_floats=st.booleans())
@example(cost=[[0, 0, 0]] * 2, as_floats=False)
@example(cost=[[3, 1, 2, 0], [1, 0, 3, 3], [0, 2, 2, 1]], as_floats=False)
@example(cost=[[3, 1, 2, 0], [1, 0, 3, 3], [0, 2, 2, 1]], as_floats=True)
@example(cost=[[0] * 6] * 6, as_floats=True)  # every greedy row passes the columns before it
@example(cost=[[0] * 8] * 3, as_floats=False)
@example(cost=[[0 if j <= i else 1 for j in range(6)] for i in range(6)], as_floats=True)  # a collision chain
@example(cost=[[0, 0, 1, 1], [0, 0, 1, 1], [0, 0, 0, 1], [1, 1, 1, 0]], as_floats=False)  # row 2 passes two
@example(cost=[[0, 1, 1], [0, 1, 1], [0, 0, 1]], as_floats=True)  # column 2 ties rows 0 (seated) and 1: row 1 sits
@example(cost=[[i + j for j in range(3)] for i in range(3)], as_floats=False)  # the column pass seats rows 1 and 2
@example(cost=[[0, 1, 3], [0, 2, 3], [4, 4, 0]], as_floats=True)  # column 1 is raised to 1 but seats no row
def test_shortest_paths_certificate(cost, as_floats):
    # The duals certify the matching. On a wide matrix, v <= 0 keeps each
    # zero row (u = 0) feasible, and v == 0 on free columns keeps it tight
    # there, so the tie-break can give each free column a zero row and keep
    # the duals optimal. A square matrix has no zero rows, so its column
    # pass may raise v above 0.
    nc = len(cost[0])
    if as_floats and max(map(max, cost)) * (nc + 2) < 2**53:  # the bound of the float solve
        cost = [[float(c) for c in row] for row in cost]
    col4row, row4col, u, v = solved = _shortest_paths(cost, nc)
    assert _shortest_paths(cost, nc, list(map(min, cost))) == solved  # the starting duals a marked matrix gives
    assert {type(x) for x in u + v} == {type(cost[0][0])}  # no int/float mix
    assert sorted(col4row) == sorted(j for j in range(nc) if row4col[j] >= 0)
    assert all(row4col[j] == i for i, j in enumerate(col4row))
    for i, row in enumerate(cost):
        reduced = [c - u[i] - vj for c, vj in zip(row, v)]
        assert min(reduced) >= 0
        assert reduced[col4row[i]] == 0
    if len(cost) < nc:
        assert all(vj <= 0 for vj in v)  # a zero row with u = 0 is feasible...
    assert all(vj == 0 for vj, i in zip(v, row4col) if i < 0)  # ...and tight on free columns


def test_shortest_paths_takes_a_free_column_on_a_tie():
    # Rows 0 and 1 start on columns 0 and 1; row 2's only cheapest column is
    # taken, so it searches. After column 0, column 1 (held by row 1) and the
    # free column 3 tie at distance 1. Taking column 3 ends the search;
    # scanning column 1 first would reach column 2 through row 1 and move
    # row 1 there. Both are optimal, so only the matching shows which rule ran.
    assert _shortest_paths([[0, 9, 9, 9], [9, 0, 0, 9], [0, 1, 9, 1]], 4)[0] == [0, 1, 3]


def test_the_column_pass_seats_the_first_free_row_among_the_cheapest():
    # The greedy start seats row 0 of i + j on column 0 only. Each free column's least reduced cost
    # is tied by all three rows; column 1 skips row 0, which is seated, and takes row 1, and column 2
    # takes row 2, so no row searches. Taking the last tied row would seat row 2 on column 1 and
    # leave row 1 to search its way to column 2. Both are optimal, so only the matching shows it.
    col4row, _, u, v = _shortest_paths([[i + j for j in range(3)] for i in range(3)], 3)
    assert col4row == u == v == [0, 1, 2]


def test_potential_invariance_row_and_column_shifts():
    # integer entries keep every float operation exact
    rng = random.Random(20240810)
    for _ in range(60):
        n = rng.randint(2, 5)
        entries = [[float(rng.randint(0, 100)) for _ in range(n)] for _ in range(n)]
        base_total, base_optima = enumerate_optima(entries)
        solved = solve_assignment(CostMatrix.from_rows(entries))
        assert solved.total_cost == base_total

        shift = float(rng.randint(1, 50))
        kind = rng.choice(("row", "col"))
        index = rng.randrange(n)
        shifted = [
            [
                value + shift if (kind == "row" and i == index) or (kind == "col" and j == index)
                else value
                for j, value in enumerate(row)
            ]
            for i, row in enumerate(entries)
        ]
        shifted_total, shifted_optima = enumerate_optima(shifted)
        assert set(shifted_optima) == set(base_optima)
        shifted_solved = solve_assignment(CostMatrix.from_rows(shifted))
        assert shifted_solved.total_cost == base_total + shift
        assert shifted_solved.mapping == solved.mapping


def test_optimality_certificate_against_every_mapping():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 7)
        matrix = CostMatrix.from_rows(
            [[rng.uniform(0, 1000) for _ in range(n)] for _ in range(n)]
        )
        solved = solve_assignment(matrix)
        best, optima = enumerate_optima(matrix.entries)
        assert solved.total_cost == float(best)
        assert solved.mapping == min(optima)


def test_load_cost_matrix(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("420,350,450\n450,400,280\n420,360,390\n")
    matrix = load_cost_matrix(path)
    assert matrix.entries == CostMatrix.from_rows(PAPER_MATRIX).entries
    assert solve_assignment(matrix).total_cost == 1050.0


def test_load_cost_matrix_blank_lines_and_spaces(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("1, 2\n\n3, 4\n\n")
    assert load_cost_matrix(path).entries == ((1.0, 2.0), (3.0, 4.0))


def test_load_cost_matrix_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\nthree,4\n")
    with pytest.raises(DispatchError, match="line 2"):
        load_cost_matrix(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("\n")
    with pytest.raises(DispatchError, match="no rows"):
        load_cost_matrix(empty)


def test_load_cost_matrix_skips_a_utf8_bom(tmp_path):
    # spreadsheet "CSV UTF-8" exports start with U+FEFF
    path = tmp_path / "grid.csv"
    path.write_bytes("\ufeff420,350,450\n450,400,280\n420,360,390\n".encode("utf-8"))
    assert load_cost_matrix(path).entries == CostMatrix.from_rows(PAPER_MATRIX).entries
    twice = tmp_path / "twice.csv"
    twice.write_bytes("\ufeff\ufeff1,2\n".encode("utf-8"))
    with pytest.raises(DispatchError, match="^line 1: "):
        load_cost_matrix(twice)


def test_load_cost_matrix_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_bytes(b"\xff420,350\n450,400\n")
    with pytest.raises(DispatchError, match="^not UTF-8 text: 'utf-8' codec can't decode byte 0xff"):
        load_cost_matrix(path)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda cols: st.lists(
            st.lists(st.one_of(st.integers(0, 20), st.booleans()), min_size=cols, max_size=cols),
            min_size=1, max_size=5,
        )
    ),
    st.booleans(),
)
def test_int_entries_solve_like_their_floats(rows, mixed):
    # a matrix built directly from ints and bools keeps their floats, as from_rows does
    if mixed:
        rows[0][0] = float(rows[0][0])
    direct_matrix = CostMatrix(entries=tuple(map(tuple, rows)))
    converted_matrix = CostMatrix.from_rows(rows)
    floats_matrix = CostMatrix.from_rows([[float(x) for x in row] for row in rows])
    floats = solve_assignment(floats_matrix)
    # integral cells far under the bound: all-int rows skip the integrality pass, a float cell takes it
    marks = [matrix.__dict__.get("_integral") for matrix in (direct_matrix, converted_matrix, floats_matrix)]
    assert marks[0] is not None and marks[0] == marks[1] == marks[2]
    direct = solve_assignment(direct_matrix)
    converted = solve_assignment(converted_matrix)
    assert direct == converted == floats and repr(direct) == repr(converted) == repr(floats)


def _marked(matrix):
    return "_integral" in matrix.__dict__


def _int_cells(rng, rows, cols, total):
    """Int and bool cells, many of them tied, that sum to exactly ``total``."""
    top = total // (rows * cols)
    entries = [
        [rng.choice((True, False, top, top, top - 1, rng.randint(0, top))) for _ in range(cols)]
        for _ in range(rows)
    ]
    entries[-1][-1] += total - sum(map(sum, entries))
    return entries


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (2, 3), (3, 2), (4, 4), (3, 6), (6, 3), (3, 5), (5, 3)])
def test_integral_mark_is_set_for_int_totals_under_the_float_bound(shape):
    from fractions import Fraction

    rows, cols = shape
    m = max(rows, cols) + 2
    rng = random.Random(f"mark-{shape}")
    under, at, over = (2**53 - 1) // m, -(-(2**53) // m), 2**60 // m
    cases = [(_int_cells(rng, rows, cols, total), total == under) for total in (under, at, over)]
    cases.append(([[True] * cols for _ in range(rows)], True))  # bool cells alone
    tops = _int_cells(rng, rows, cols, under)
    # any other cells are marked on their floats: integral, with a float total under the bound
    cases += [
        ([[float(x) for x in row] for row in tops], True),
        ([[Fraction(x) for x in row] for row in tops], True),
        ([[Decimal(int(x)) for x in row] for row in tops], True),
        ([[float(tops[0][0]), *tops[0][1:]], *tops[1:]], True),  # one mixed int/float row
        ([[float(x) for x in row] for row in _int_cells(rng, rows, cols, at)], False),
        ([[x + 0.5 for x in row] for row in tops], False),
    ]
    for cells, marked in cases:
        for matrix in (CostMatrix.from_rows(cells), CostMatrix(entries=cells)):
            assert _marked(matrix) is marked, (cells, marked)
            if marked:  # the starting duals: the minima of the rows, or of a tall matrix's columns
                mins = matrix.__dict__["_integral"]
                assert mins == [float(min(line)) for line in (cells if rows <= cols else zip(*cells))]
                assert {*map(type, mins)} == {float}
            best, mapping = enumerate_injections(matrix.entries)  # int cells past 2**53 are rounded
            assert solve_assignment(matrix) == Assignment(mapping=mapping, total_cost=float(best))


def test_integral_mark_cannot_be_seen():
    import copy
    import dataclasses
    import pickle

    from portsim import _record, scenario_from_dict, scenario_to_dict
    from conftest import make_scenario_dict

    ints = [[420, 350, 450], [450, 400, 280], [420, 360, 390]]
    eighths = [[x / 8 for x in row] for row in ints]  # 52.5, 43.75, ...: not integral
    marked, plain = CostMatrix.from_rows(ints), CostMatrix.from_rows(eighths)
    assert _marked(marked) and _marked(CostMatrix.from_rows(PAPER_MATRIX)) and not _marked(plain)
    unmarked = copy.copy(marked)  # the same entries without the mark
    del unmarked.__dict__["_integral"]
    assert marked == unmarked and hash(marked) == hash(unmarked) and repr(marked) == repr(unmarked)
    for asdict in (dataclasses.asdict, _record.asdict):
        assert asdict(marked) == asdict(unmarked) and [*asdict(marked)] == ["entries"]
    as_dicts = [
        scenario_to_dict(scenario_from_dict(make_scenario_dict(dispatch_matrix=rows))) for rows in (ints, PAPER_MATRIX)
    ]
    assert as_dicts[0] == as_dicts[1]
    for replace in (dataclasses.replace, _record.replace):
        assert not _marked(replace(marked, entries=eighths))  # the mark is worked out again
        assert _marked(replace(plain, entries=ints)) and _marked(replace(unmarked, entries=PAPER_MATRIX))
        assert replace(plain, entries=PAPER_MATRIX) == marked
    # Each first solve searches, which raises the starting dual of one row (of one column of the
    # tall matrix). Copies share the mark, and no solve may change it.
    for rows, mins in ((ints, [350.0, 280.0, 360.0]), ([[1, 2], [1, 3], [5, 5]], [1.0, 2.0])):
        matrix = CostMatrix.from_rows(rows)
        solved = solve_assignment(matrix)
        floats = CostMatrix.from_rows([[float(x) for x in row] for row in rows])
        assert solve_assignment(matrix) == solved == solve_assignment(floats)
        for copied in (pickle.loads(pickle.dumps(matrix)), copy.deepcopy(matrix), copy.copy(matrix)):
            assert copied == matrix and _marked(copied)
            assert solve_assignment(copied) == solved
        assert matrix.__dict__["_integral"] == mins


def test_int_entries_that_stopped_the_solve_are_solved():
    assert solve_assignment(CostMatrix(entries=((1, 2), (3, 0)))) == Assignment((0, 1), 1.0)
    assert solve_assignment(CostMatrix(entries=((1.5, True),))) == Assignment((1,), 1.0)
    assert solve_assignment(CostMatrix(entries=((1.0, 2),))) == Assignment((0,), 1.0)


def test_direct_construction_checks_and_converts_cells():
    import dataclasses

    with pytest.raises(DispatchError, match=r"^cost matrix entry is not finite \(an integer too large for a float\)$"):
        CostMatrix(entries=((10**400, 1),))
    with pytest.raises(DispatchError, match=r"^cost matrix entry \(0, 0\) is not a number: '1'$"):
        CostMatrix(entries=(("1", 2.0),))
    with pytest.raises(DispatchError, match=r"^cost matrix row 1 is text, not a sequence of numbers$"):
        CostMatrix(entries=([1.0], "2"))
    matrix = CostMatrix(entries=[[1.0, 2], (True, 0)])
    assert matrix.entries == ((1.0, 2.0), (1.0, 0.0))
    assert {type(x) for row in matrix.entries for x in row} == {float}
    assert hash(matrix) == hash(CostMatrix.from_rows([[1, 2.0], [1, 0]]))
    assert dataclasses.replace(matrix, entries=[[2, 1]]).entries == ((2.0, 1.0),)


def _accepted(rows):
    """Whether a matrix of these rows is valid, cell by cell."""
    if not rows or not rows[0] or any(len(row) != len(rows[0]) for row in rows):
        return False
    for cell in (cell for row in rows for cell in row):
        if isinstance(cell, (str, bytes)):
            return False
        try:
            if not 0.0 <= float(cell) < math.inf:
                return False
        except (TypeError, ValueError, OverflowError):
            return False
    return True


ANY_CELL = st.one_of(
    st.integers(0, 100), st.floats(0, 1e6), st.booleans(), st.decimals(0, 100, places=2),
    st.sampled_from(
        ["1", "x", b"2", None, math.nan, math.inf, -math.inf, -1, -0.5, -0.0, 10**400, -10**400, 1e308]
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(ANY_CELL, max_size=4), max_size=4))
@example([[1, "1", 10**400]])
@example([[1e308, 1e308], [1e308, 1e308]])
def test_constructor_and_from_rows_accept_the_same_rows(rows):
    outcomes = []
    for build in (lambda: CostMatrix(entries=rows), lambda: CostMatrix.from_rows(rows)):
        try:
            outcomes.append(build().entries)
        except DispatchError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    if _accepted(rows):
        assert outcomes[0] == tuple(tuple(float(cell) for cell in row) for row in rows)
    else:
        assert isinstance(outcomes[0], str)


def test_per_solve_functions_run_no_comprehension_frames_and_hold_no_cells():
    # Before Python 3.12 each comprehension or generator expression is a nested code object run as
    # a call of its own, and each local of the enclosing function that it reads is a closure cell,
    # which every access goes through. The solve runs its per-row work in plain loops instead, so it
    # pays neither. PEP 709 inlines comprehensions from 3.12 on, so the 3.10 and 3.11 legs of CI are
    # the ones this test guards.
    for function in (solve_assignment, dispatch._shortest_paths, dispatch._tie_break, dispatch._scaled_costs):
        code = function.__code__
        assert not [c for c in code.co_consts if isinstance(c, types.CodeType)], function.__name__
        assert code.co_cellvars == (), function.__name__


#: One-line mutations of ``dispatch.py``, as (what, the source it changes, the mutant source). Each
#: must make some case of ``mutation_cases`` disagree with ``lexicographic_optimum``: in its mapping,
#: its ``float.hex`` total, or, for the mark guard, in whether the matrix is marked, against the bound
#: taken in ints. At the bound every value the solve makes is still an exact float (2**53 is one), so
#: the mark is all that mutant changes. A refactor that moves a pattern updates this list.
MUTATIONS = [
    ("_tie_break's candidate skip", "if k < i or seen[k]:", "if seen[k]:"),
    ("_tie_break's row skip", "if tight[i][0] == target:", "if tight[i][0] <= target:"),
    ("_tie_break's j >= target", "if j >= target:", "if j >= target - 1:"),
    ("_alternating_path's k > i", "if k > i and not seen[k]:", "if k != i and not seen[k]:"),
    ("_alternating_path's k > i, past row i + 1", "if k > i and not seen[k]:", "if k > i + 1 and not seen[k]:"),
    ("the free-line partner range", "for b in range(n):", "for b in range(n - 1):"),
    ("the mapping's j < n_cols", "if j < n_cols:", "if j <= n_cols:"),
    ("the mark guard", ") + 2) < 2**53", ") + 2) <= 2**53"),
    ("the row minima for a tall matrix", "rows if len(rows) <= len(rows[0]) else zip(*rows)", "rows"),
    ("the column pass seats a seated row", "best, seat = r, i if col4row[i] < 0 else -1", "best, seat = r, i"),
    ("the column pass's v[j] = best", "v[j] = best", "pass"),
]

#: Mutations that change no mapping, each with the targeted test that catches it: the tight subgraph
#: of any optimal duals holds every optimal assignment, so neither the search's tie rule nor the row
#: the column pass seats on a tie can change one.
SILENT_MUTATIONS = [
    (
        "the search's tie rule",
        "if d < low or d == low and row4col[j] < 0 <= row4col[pick]:",
        "if d < low:",
        "test_shortest_paths_takes_a_free_column_on_a_tie",
    ),
    (
        "the column pass's first free row",
        "if r < best or r == best and seat < 0:",
        "if r <= best or r == best and seat < 0:",
        "test_the_column_pass_seats_the_first_free_row_among_the_cheapest",
    ),
]


def mutation_cases():
    """Seeded tie-heavy int matrices, 150 of any shape up to 9x9 and 20 square ones with n = 10-40
    (only a longer path shows a skipped row i + 1), int matrices whose total T has T * (n + 2)
    exactly 2**53, so they sit on the mark's bound, and 20 square ones up to 9x9 with cells 0-9,
    whose column pass more often raises a free column's dual above 0 and seats a row there."""
    rng = random.Random("mutations")
    shapes = [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(150)]
    shapes += [(n, n) for n in (rng.randint(10, 40) for _ in range(20))]
    cases = [[[rng.randint(0, 2) for _ in range(cols)] for _ in range(rows)] for rows, cols in shapes]
    for rows, cols in ((2, 2), (2, 1), (6, 6), (3, 6), (6, 3)):
        total = 2**53 // (max(rows, cols) + 2)
        cells = [rng.randint(0, total // (rows * cols)) for _ in range(rows * cols - 1)]
        cells.append(total - sum(cells))
        cases.append([cells[i * cols:(i + 1) * cols] for i in range(rows)])
    for n in (rng.randint(3, 9) for _ in range(20)):
        cases.append([[rng.randint(0, 9) for _ in range(n)] for _ in range(n)])
    return cases


def variant_outcome(module, entries):
    try:
        matrix = module.CostMatrix(entries=entries)
        solved = module.solve_assignment(matrix)
    except Exception as exc:  # a mutant may crash
        return repr(exc)
    return solved.mapping, float.hex(solved.total_cost), _marked(matrix)


def test_the_oracles_catch_each_one_line_mutation_of_the_solver(monkeypatch):
    source = Path(dispatch.__file__).read_text(encoding="utf-8")
    cases = mutation_cases()
    expected = []
    for entries in cases:
        best, mapping = lexicographic_optimum(entries)
        bound = sum(map(sum, entries)) * (max(len(entries), len(entries[0])) + 2) < 2**53
        expected.append((mapping, float.hex(float(best)), bound))
    assert [variant_outcome(module_variant(dispatch, source), entries) for entries in cases] == expected
    for what, pattern, mutant in MUTATIONS:
        assert source.count(pattern) == 1, what
        variant = module_variant(dispatch, source.replace(pattern, mutant))
        assert any(variant_outcome(variant, e) != want for e, want in zip(cases, expected)), what

    for what, pattern, mutant, test in SILENT_MUTATIONS:
        assert source.count(pattern) == 1, what
        variant = module_variant(dispatch, source.replace(pattern, mutant))
        assert [variant_outcome(variant, entries) for entries in cases] == expected, what
        monkeypatch.setitem(globals(), "_shortest_paths", variant._shortest_paths)
        with pytest.raises(AssertionError):
            globals()[test]()
    assert sys.modules["portsim.dispatch"] is dispatch
