"""Minimum-cost assignment of AGVs (rows) to destinations (columns).

The solver finds an exact optimum in O(n^3) for n = max(rows, cols):

* Costs are scaled by one common power of two into Python ints (every
  float is m * 2**e), so dual potentials and every comparison are exact,
  with no tolerance. ``total_cost`` is the ``math.fsum`` of the selected
  original entries (``DispatchError`` if it passes the float range).
* A shortest-augmenting-path solve in the rectangular form of Crouse
  (2016) matches every row of the shorter side (a tall matrix is solved
  as its transpose) with no padding. It starts from the row minima and
  takes a free column among equally near ones, as Jonker & Volgenant
  (1987) do, which keeps tie-heavy matrices fast. Its duals are optimal,
  and zero on every column it leaves free.
* Only the tie-break sees a square: the shorter side gets all-zero lines
  with zero duals, each matched to a line left free, so the duals stay optimal.
  Rows matched to a padded column are reported as unassigned.

Among all minimum-cost assignments the solver returns the one that is
lexicographically smallest row by row (row 0 gets the lowest column index
it can take in any optimal solution, then row 1, and so on; an unassigned
row comes after every column). The optimal assignments are exactly the
perfect matchings of the tight subgraph, the pairs with zero reduced cost
under the optimal duals, so the tie-break re-routes the matching along
tight alternating paths instead of solving again. The tie-break makes
reports byte-for-byte reproducible across runs and implementations.

``brute_force_assignment`` is an independent oracle that enumerates all
permutations; it exists to cross-check the solver and is limited to small
instances.
"""

from __future__ import annotations

import itertools
import math

from ._record import record
from .errors import DispatchError

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable, Sequence
    from os import PathLike

#: Largest square matrix the brute-force oracle will enumerate (n! growth).
ORACLE_MAX_SIZE = 10


@record
class CostMatrix:
    """Dense rectangular matrix of non-negative finite costs (km or generic).

    Construction checks that the matrix is non-empty, not ragged and that
    every entry is finite and non-negative, so every instance is solvable.
    """

    entries: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        entries = self.entries
        if not entries or not entries[0]:
            raise DispatchError("cost matrix must have at least one row and one column")
        width = len(entries[0])
        # A NaN, an infinity or a sum past the float range fails this test;
        # the loop below then names the entry, or accepts the row.
        if all(len(row) == width and 0.0 <= min(row) and sum(row) < math.inf for row in entries):
            return
        for i, row in enumerate(entries):
            if len(row) != width:
                raise DispatchError(f"cost matrix row {i} has {len(row)} entries, expected {width}")
            for j, value in enumerate(row):
                if not 0.0 <= value < math.inf:  # NaN, infinities and negatives
                    problem = "negative" if math.isfinite(value) else "not finite"
                    raise DispatchError(f"cost matrix entry ({i}, {j}) is {problem}")

    @property
    def n_rows(self) -> int:
        return len(self.entries)

    @property
    def n_cols(self) -> int:
        return len(self.entries[0])

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[float]]) -> CostMatrix:
        """Build and validate a matrix from any nested iterable of numbers."""
        # Built from lists: a tuple grown from a generator is resized to
        # fit, and the resized tuples pile up on CPython's tuple free lists
        # (about 0.75 MB after a few hundred fleet-sized matrices).
        try:
            return cls(entries=tuple([tuple([float(x) for x in row]) for row in rows]))
        except OverflowError:
            raise DispatchError(
                "cost matrix entry is not finite (an integer too large for a float)"
            ) from None


@record
class Assignment:
    """A validated solution: ``mapping[i]`` is the column assigned to row i,
    or ``None`` for rows left unassigned because columns ran out.

    ``total_cost`` is the exact sum of the selected entries.
    """

    mapping: tuple[int | None, ...]
    total_cost: float


def solve_assignment(matrix: CostMatrix) -> Assignment:
    """Return a minimum-total-cost assignment with the deterministic tie-break.

    A rectangular shortest-augmenting-path solve on the exact integer
    costs gives an optimal matching of the short side and optimal duals.
    Both are padded to square with zero lines, and the canonical
    (lexicographically smallest optimal) mapping is read off the tight
    subgraph of those duals in O(n^3), in the original orientation: for
    each row in order, the smallest tight column whose holder, a later
    row, can be re-routed along tight edges to the row's current column.
    """
    n_rows, n_cols = matrix.n_rows, matrix.n_cols
    n = max(n_rows, n_cols)
    cost = _integer_costs(matrix.entries)
    tall = n_cols < n_rows
    # Solve the short side; its free partners get zero lines with zero duals.
    a4b, b4a, ua, vb = _shortest_paths([*zip(*cost)] if tall else cost, n)
    free = [b for b in range(n) if b4a[b] < 0]
    for k, b in enumerate(free, len(a4b)):
        b4a[b] = k
    a4b += free
    ua += [0] * len(free)
    if tall:
        row4col, col4row, v, u = a4b, b4a, ua, vb
        cost = [row + [0] * len(free) for row in cost]
    else:
        col4row, row4col, u, v = a4b, b4a, ua, vb
        cost += [[0] * n for _ in free]
    _tie_break(cost, n, col4row, row4col, u, v)
    mapping = tuple([j if j < n_cols else None for j in col4row[:n_rows]])
    selected = [row[j] for row, j in zip(matrix.entries, mapping) if j is not None]
    return Assignment(mapping=mapping, total_cost=_total(selected))


def brute_force_assignment(matrix: CostMatrix) -> Assignment:
    """Exhaustive oracle: minimum over all n! permutations of a square matrix.

    Totals are compared exactly, on the integer-scaled costs. Permutations
    are generated in lexicographic order and only strictly better totals
    replace the incumbent, so the returned mapping follows the same
    tie-break as ``solve_assignment``.
    """
    n = matrix.n_rows
    if n != matrix.n_cols:
        raise DispatchError("oracle requires a square matrix")
    if n > ORACLE_MAX_SIZE:
        raise DispatchError(f"oracle size limit is {ORACLE_MAX_SIZE}x{ORACLE_MAX_SIZE}")
    cost = _integer_costs(matrix.entries)
    best_total: float = math.inf
    best_perm: tuple[int, ...] = ()
    for perm in itertools.permutations(range(n)):
        total = sum(cost[i][perm[i]] for i in range(n))
        if total < best_total:
            best_total = total
            best_perm = perm
    rows = matrix.entries
    return Assignment(best_perm, _total(rows[i][j] for i, j in enumerate(best_perm)))


def assignment_cost(matrix: CostMatrix, mapping: Sequence[int | None]) -> float:
    """Total cost of an explicit (possibly partial) row-to-column mapping.

    Rejects duplicate column use and out-of-range indices; ``None`` entries
    and mappings shorter than the row count are treated as unassigned rows.
    """
    if len(mapping) > matrix.n_rows:
        raise DispatchError(f"mapping has {len(mapping)} rows, matrix has {matrix.n_rows}")
    seen: set[int] = set()
    selected: list[float] = []
    for i, j in enumerate(mapping):
        if j is None:
            continue
        if not 0 <= j < matrix.n_cols:
            raise DispatchError(f"mapping assigns row {i} to out-of-range column {j}")
        if j in seen:
            raise DispatchError(f"mapping assigns column {j} to more than one row")
        seen.add(j)
        selected.append(matrix.entries[i][j])
    return _total(selected)


def load_cost_matrix(path: str | PathLike[str]) -> CostMatrix:
    """Read a matrix from a comma-separated numeric grid, one row per line."""
    rows: list[list[float]] = []
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append([float(cell) for cell in line.split(",")])
        except ValueError as exc:
            raise DispatchError(f"line {lineno}: {exc}") from None
    if not rows:
        raise DispatchError("matrix file contains no rows")
    return CostMatrix.from_rows(rows)


def _total(selected: Iterable[float]) -> float:
    try:
        return math.fsum(selected)
    except OverflowError:  # finite entries whose exact sum is too large for a float
        raise DispatchError("total cost overflows") from None


def _integer_costs(entries: tuple[tuple[float, ...], ...]) -> list[list[int]]:
    """The entries times one common power of two, as exact Python ints."""
    if all(map(float.is_integer, itertools.chain.from_iterable(entries))):
        return [list(map(int, row)) for row in entries]  # the power is 2**0
    ratios = [[x.as_integer_ratio() for x in row] for row in entries]
    scale = max(q for row in ratios for _, q in row)
    return [[p * (scale // q) for p, q in row] for row in ratios]


def _shortest_paths(cost: Sequence[Sequence[int]], nc: int) -> tuple[list[int], list[int], list[int], list[int]]:
    """Shortest-augmenting-path solve (Crouse 2016) of every row of an
    integer matrix with ``len(cost) <= nc`` columns: ``(col4row, row4col,
    u, v)``, an optimal matching seen from both sides (``-1`` on a free
    column) and duals with ``cost[i][j] - u[i] - v[j]`` non-negative, and
    zero on matched pairs. A free column wins a tie in distance. ``v``
    starts at zero and falls only on columns a search reaches, which stay
    matched, so it is zero on every free column.
    """
    u = list(map(min, cost))
    v = [0] * nc
    col4row = [-1] * len(cost)
    row4col = [-1] * nc
    for i, row in enumerate(cost):  # each row on its cheapest column, if free
        j = row.index(u[i])
        if row4col[j] < 0:
            col4row[i] = j
            row4col[j] = i
    path = [0] * nc
    for start in [i for i, j in enumerate(col4row) if j < 0]:
        dist: list[float] = [math.inf] * nc
        remaining = list(range(nc))
        scanned = []  # matched columns the search reached
        i, low = start, 0
        while True:
            row, base = cost[i], low - u[i]
            low, pick = math.inf, -1
            for j in remaining:
                d = base + row[j] - v[j]
                if d < dist[j]:
                    dist[j] = d
                    path[j] = i
                else:
                    d = dist[j]
                if d < low or d == low and row4col[j] < 0 <= row4col[pick]:
                    low, pick = d, j
            remaining.remove(pick)
            i = row4col[pick]
            if i < 0:
                break
            scanned.append(pick)
        u[start] += low
        for j in scanned:
            v[j] -= low - dist[j]
            u[row4col[j]] += low - dist[j]
        while pick >= 0:  # flip the path back to ``start``, whose column is -1
            i = path[pick]
            row4col[pick] = i
            col4row[i], pick = pick, col4row[i]
    return col4row, row4col, u, v


def _tie_break(
    cost: list[list[int]], n: int, col4row: list[int], row4col: list[int], u: list[int], v: list[int]
) -> None:
    """Turn the optimal matching ``col4row`` (inverse ``row4col``) into the
    lexicographically smallest optimal one, in place.

    With optimal duals, a matching is optimal exactly when it is perfect
    and uses only tight pairs (reduced cost zero). Row ``i`` can take a
    smaller tight column ``j`` while rows before it keep theirs exactly
    when the holder of ``j``, a later row, reaches row ``i``'s current
    column by a tight alternating path through later rows. A later row
    that cannot reach it is dead for every candidate of row ``i``, so each
    row costs one search of the tight subgraph.
    """
    tight = [[j for j in range(n) if row[j] - ui == v[j]] for row, ui in zip(cost, u)]
    for i in range(n):
        target = col4row[i]
        if tight[i][0] == target:
            continue
        seen = [False] * n
        for j in tight[i]:
            if j >= target:
                break
            k = row4col[j]
            if k < i or seen[k]:
                continue
            chain = _alternating_path(k, i, target, tight, row4col, seen)
            if chain is None:
                continue
            cols = [col4row[row] for row in chain[1:]]
            cols.append(target)
            col4row[i] = j
            row4col[j] = i
            for row, c in zip(chain, cols):
                col4row[row] = c
                row4col[c] = row
            break


def _alternating_path(
    start: int, i: int, target: int, tight: list[list[int]], row4col: list[int], seen: list[bool]
) -> list[int] | None:
    """Rows ``start, ..., last`` after row ``i``, each holding a tight
    column of the one before, with ``target`` tight for ``last``; ``None``
    if there is none. Every row the search leaves behind is marked in
    ``seen``.
    """
    seen[start] = True
    stack = [(start, iter(tight[start]))]
    while stack:
        for c in stack[-1][1]:
            if c == target:
                return [row for row, _ in stack]
            k = row4col[c]
            if k > i and not seen[k]:
                seen[k] = True
                stack.append((k, iter(tight[k])))
                break
        else:
            stack.pop()
    return None
