"""Minimum-cost assignment of AGVs (rows) to destinations (columns).

The solver finds an exact optimum in O(n^3) for n = max(rows, cols):

* Sums and comparisons are exact, with no tolerance: integral costs whose
  duals stay below 2**53 are solved on their own floats, any others are
  scaled by one common power of two into Python ints (each float is
  m * 2**e). ``total_cost`` is the ``math.fsum`` of the selected original
  entries (``DispatchError`` if it passes the float range).
* A shortest-augmenting-path solve in the rectangular form of Crouse
  (2016) matches every row of the shorter side (a tall matrix is solved
  as its transpose) with no padding. It starts from the row minima, seats
  each row on its first free cheapest column and, in each search, takes a
  free column among equally near ones, as Jonker & Volgenant (1987) do,
  which keeps tie-heavy matrices fast. Its duals are optimal, and zero on
  every column it leaves free.
* The tie-break works on the real lines too. Each line the solve leaves
  free has a zero partner with a zero dual, so the duals stay optimal, but
  no partner is built: a wide matrix's zero rows share one tight list, and
  a tall matrix's zero columns join the tight lists of the rows with a zero
  dual. Rows matched to a zero column are reported as unassigned.

Among all minimum-cost assignments the solver returns the one that is
lexicographically smallest row by row (row 0 gets the lowest column index
it can take in any optimal solution, then row 1, and so on; an unassigned
row comes after every column). The optimal assignments are exactly the
perfect matchings of the tight subgraph, the pairs with zero reduced cost
under the optimal duals, so the tie-break re-routes the matching along
tight alternating paths instead of solving again. The tie-break makes
reports byte-for-byte reproducible across runs and implementations.
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
        # the loop below then names the entry, or accepts the matrix. Lengths
        # come first: ``min`` of an empty row raises.
        if {*map(len, entries)} == {width} and 0.0 <= min(map(min, entries)) and sum(map(sum, entries)) < math.inf:
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
        """Build and validate a matrix from any nested iterable of numbers. A row
        that is text or not iterable, or a cell that is text or that ``float()``
        rejects, raises ``DispatchError`` naming it."""
        # Built from lists: a tuple grown from a generator is resized to
        # fit, and the resized tuples pile up on CPython's tuple free lists
        # (about 0.75 MB after a few hundred fleet-sized matrices). Rows
        # other than lists and tuples are copied, so a failed conversion
        # can be traced back to its cell.
        rows = [row if row.__class__ in _SEQUENCES else _row_cells(i, row) for i, row in enumerate(rows)]
        try:
            entries = tuple([tuple([*map(float, row)]) for row in rows])
        except OverflowError:
            raise DispatchError(
                "cost matrix entry is not finite (an integer too large for a float)"
            ) from None
        except (TypeError, ValueError):
            _check_cells(rows)
            raise
        try:
            sum(map(sum, rows))  # float() parses text, so one C pass over the cells finds it
        except (TypeError, OverflowError):  # or cells it cannot add, such as a Decimal beside a float
            _check_cells(rows)
        return cls(entries=entries)


_SEQUENCES = (list, tuple)


def _row_cells(i: int, row: Iterable[float]) -> list[float]:
    if isinstance(row, (str, bytes, bytearray)):
        raise DispatchError(f"cost matrix row {i} is text, not a sequence of numbers")
    try:
        return [*row]
    except TypeError:
        raise DispatchError(f"cost matrix row {i} is not a sequence of numbers") from None


def _check_cells(rows: list[Sequence[float]]) -> None:
    """Raise ``DispatchError`` naming the first cell that is text or that ``float()`` rejects."""
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            try:
                if isinstance(cell, (str, bytes, bytearray)):
                    raise TypeError
                float(cell)
            except (TypeError, ValueError):
                raise DispatchError(f"cost matrix entry ({i}, {j}) is not a number: {cell!r}") from None


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

    A rectangular shortest-augmenting-path solve on the exact costs gives
    an optimal matching of the short side and optimal duals. Each line it
    leaves free gets a zero partner past the short side's end, and the
    canonical (lexicographically smallest optimal) mapping is read off the
    tight subgraph of those duals in O(n^3), in the original orientation: for
    each row in order, the smallest tight column whose holder, a later
    row, can be re-routed along tight edges to the row's current column.
    """
    n_rows, n_cols = matrix.n_rows, matrix.n_cols
    n = max(n_rows, n_cols)
    cost = _exact_costs(matrix.entries)
    tall = n_cols < n_rows
    # Solve the short side; its free partners are indices, not zero lines.
    a4b, b4a, ua, vb = _shortest_paths([*zip(*cost)] if tall else cost, n)
    free = [b for b in range(n) if b4a[b] < 0]
    for k, b in enumerate(free, len(a4b)):
        b4a[b] = k
    a4b += free
    col4row, row4col, u, v = (b4a, a4b, vb, ua) if tall else (a4b, b4a, ua, vb)
    _tie_break(cost, n, col4row, row4col, u, v)
    mapping = tuple([j if j < n_cols else None for j in col4row[:n_rows]])
    selected = [row[j] for row, j in zip(matrix.entries, mapping) if j is not None]
    return Assignment(mapping=mapping, total_cost=_total(selected))


def load_cost_matrix(path: str | PathLike[str]) -> CostMatrix:
    """Read a matrix from a comma-separated numeric grid, one row per line."""
    rows: list[list[float]] = []
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read().removeprefix("\ufeff")  # spreadsheet "CSV UTF-8" exports start with a BOM
        except UnicodeDecodeError as exc:
            raise DispatchError(f"not UTF-8 text: {exc}") from None
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


def _exact_costs(entries: tuple[tuple[float, ...], ...]) -> list[Sequence[float]]:
    """Costs on which the solve adds and compares exactly: the float rows
    as they are if all are integral floats and C * (n + 2) < 2**53, for C
    the largest entry and n = max(rows, cols); else the entries times one
    common power of two, as Python ints (an integral x gives ``int(x)``;
    the int and bool entries a directly built matrix may hold go here too).

    The greedy start of ``_shortest_paths`` moves no dual, and each of its
    searches raises the matched cost by at least its ``low`` and at most C
    (the new row can take a column the old optimum left free), so v >= -n*C,
    u <= (n+1)*C, and every ``dist`` and ``row[j] - u[i]`` stays within
    (n+2)*C < 2**53: float sums and comparisons of these integers are exact.
    Rounding is monotonic, so the float product in the guard cannot pass a
    matrix over the bound.
    """
    n = max(len(entries), len(entries[0]))
    try:
        if max(map(max, entries)) * (n + 2) < 2**53 and all(map(float.is_integer, itertools.chain(*entries))):
            return [*entries]
    except TypeError:  # an int or bool entry, which the ratio pass below takes
        pass
    ratios = [[x.as_integer_ratio() for x in row] for row in entries]
    scale = max(q for row in ratios for _, q in row)
    return [[p * (scale // q) for p, q in row] for row in ratios]


def _shortest_paths(
    cost: Sequence[Sequence[float]], nc: int
) -> tuple[list[int], list[int], list[float], list[float]]:
    """Shortest-augmenting-path solve (Crouse 2016) of every row of an
    exact cost matrix with ``len(cost) <= nc`` columns: ``(col4row, row4col,
    u, v)``, an optimal matching seen from both sides (``-1`` on a free
    column) and duals with ``cost[i][j] - u[i] - v[j]`` non-negative, and
    zero on matched pairs.

    ``u`` starts at the row minima and ``v`` at zero, and each row first
    takes the first free column among its cheapest ones: every greedy pair
    is tight, so the certificate holds from the start, and no dual moves, so
    the bounds in ``_exact_costs`` still hold. The rows left over search one
    by one, and a free column wins a tie in distance. ``v`` falls only on
    columns a search reaches, which stay matched, so it is zero on every
    free column.
    """
    u = list(map(min, cost))
    zero = type(u[0])()  # duals of the costs' own type: no mixed int/float sums
    v = [zero] * nc
    col4row = [-1] * len(cost)
    row4col = [-1] * nc
    for i, row in enumerate(cost):  # each row on its first free cheapest column, if any
        j = row.index(u[i])
        try:
            while row4col[j] >= 0:
                j = row.index(u[i], j + 1)
        except ValueError:
            continue
        col4row[i] = j
        row4col[j] = i
    path = [0] * nc
    for start in [i for i, j in enumerate(col4row) if j < 0]:
        dist: list[float] = [math.inf] * nc
        remaining = list(range(nc))
        scanned = []  # matched columns the search reached
        i, low = start, zero
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
    cost: list[Sequence[float]], n: int, col4row: list[int], row4col: list[int], u: list[float], v: list[float]
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

    Only the real rows, ``len(u)`` of them, are re-routed. The lines the
    solve left free are held by zero lines with zero duals, which exist
    only as indices past the real ones: a wide matrix's zero rows share one
    tight list, the columns with ``v == 0``, and a tall matrix's zero
    columns are tight for exactly the rows with ``u == 0``.
    """
    n_rows, n_cols = len(u), len(v)
    tight = [[j for j in range(n_cols) if row[j] - ui == v[j]] for row, ui in zip(cost, u)]
    if n_rows < n:  # wide: the zero rows holding the free columns
        tight += [[j for j in range(n) if v[j] == 0]] * (n - n_rows)
    elif n_cols < n:  # tall: the zero columns held by the free rows
        pads = range(n_cols, n)
        for line, ui in zip(tight, u):
            if ui == 0:
                line += pads
    for i in range(n_rows):
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
