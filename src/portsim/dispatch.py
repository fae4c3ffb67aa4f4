"""Minimum-cost assignment of AGVs (rows) to destinations (columns).

The solver finds an exact optimum in O(n^3) for n = max(rows, cols):

* Sums and comparisons are exact, with no tolerance: a matrix that its
  build proves integral, with every dual below 2**53, is solved on its own
  floats, and any other is scaled by one common power of two into Python
  ints (each float is m * 2**e). ``total_cost`` is the ``math.fsum`` of
  the selected original entries (``DispatchError`` if it passes the float
  range).
* A shortest-augmenting-path solve in the rectangular form of Crouse
  (2016) matches every row of the shorter side (a tall matrix is solved
  as its transpose) with no padding. It starts from the row minima (a
  marked matrix carries them), seats each row on its first free cheapest
  column and, in each search, takes a free column among equally near
  ones, as Jonker & Volgenant (1987) do, which keeps tie-heavy matrices
  fast. Its duals are optimal, and zero on every column it leaves free.
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

The per-solve functions do their per-row work in plain loops, not
comprehensions: before Python 3.12, which inlines them (PEP 709), each
comprehension is a call of its own and each local it reads a closure cell.
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

    Construction takes any iterable of rows of numbers and keeps them as a
    tuple of float tuples, so every instance is solvable. Entries that are not
    iterable, an empty or ragged matrix, or a cell that is text, not a number,
    not finite or negative, raises ``DispatchError`` naming the first such row
    or cell, row by row.

    The build alone proves a matrix integral, and marks it, when its entries
    are integral and their total T has T * (n + 2) < 2**53, n = max(rows,
    cols). Int cells give T exactly, and their floats are integral, so they
    take no ``float.is_integer`` pass; any other T is the ``math.fsum`` of
    the floats, correctly rounded, so exact below 2**53 and not rounded
    under the bound from above it. Every entry C is then at most T, and the
    solve runs on these floats: its greedy start moves no dual, and each
    search raises the matched cost by at least its ``low`` and at most C
    (the new row can take a column the old optimum left free), so v >= -n*C,
    u <= (n+1)*C, and every ``dist`` and ``row[j] - u[i]`` stays within
    (n+2)*C < 2**53, where float sums and comparisons of integers are exact.
    The mark holds the solve's starting duals, the line minima as floats.
    Other matrices take ``_scaled_costs``.
    """

    entries: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        # Rows other than lists and tuples are copied, so a failed check can name the cell. Float
        # rows are built from lists: a tuple grown from a generator is resized to fit, and resized
        # tuples pile up on CPython's tuple free lists (0.75 MB after a few hundred fleet matrices).
        try:
            numbered = enumerate(self.entries)
        except TypeError:
            raise DispatchError("cost matrix is not a sequence of rows") from None
        rows = [row if row.__class__ in _SEQUENCES else _row_cells(i, row) for i, row in numbered]
        try:
            entries = tuple([tuple([*map(float, row)]) for row in rows])
            # ``min`` of the cells raises on text (float() parses it) beside any number and finds negatives;
            # the total is not below inf for a NaN, an infinity or a float total past range (an int's float()
            # raises past it).
            valid = rows and {*map(len, rows)} == {len(rows[0])}
            if valid:  # the minima of the lines the solve matches: the rows, or a tall matrix's columns
                mins = [*map(min, rows if len(rows) <= len(rows[0]) else zip(*rows))]
                valid = 0.0 <= min(mins)
            total = sum(map(sum, rows))  # exact for int cells; any others are summed as their floats
            total = total if total.__class__ is int else math.fsum(itertools.chain(*entries))
            valid = valid and total < math.inf
        except (TypeError, ValueError, ArithmeticError):  # also an int past range, a Decimal NaN
            valid = False
        if not valid:  # raises for any cell float() rejected, so ``entries`` is set below; passes
            _check_cells(rows)  # valid cells that only sum past the range or that min cannot compare
        self.__dict__["entries"] = entries
        if valid and total * (max(len(rows), len(rows[0])) + 2) < 2**53 and (
            total.__class__ is int or all(map(float.is_integer, itertools.chain(*entries)))
        ):
            self.__dict__[_INTEGRAL] = [*map(float, mins)]

    @property
    def n_rows(self) -> int:
        return len(self.entries)

    @property
    def n_cols(self) -> int:
        return len(self.entries[0])

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[float]]) -> CostMatrix:
        """``CostMatrix(entries=rows)``: the same check and the same errors."""
        return cls(entries=rows)


_SEQUENCES = (list, tuple)
_INTEGRAL = "_integral"  # the mark of a proved matrix, outside the fields: no ==, hash, repr, replace or asdict sees it


def _row_cells(i: int, row: Iterable[float]) -> list[float]:
    if isinstance(row, (str, bytes, bytearray)):
        raise DispatchError(f"cost matrix row {i} is text, not a sequence of numbers")
    try:
        return [*row]
    except TypeError:
        raise DispatchError(f"cost matrix row {i} is not a sequence of numbers") from None


def _check_cells(rows: list[Sequence[float]]) -> None:
    """Raise ``DispatchError`` naming the first failing row or cell in row-major
    order, if any: a row of the wrong length, or a cell that is text, that
    ``float()`` rejects, or whose float is not finite or is negative."""
    if not rows or not rows[0]:
        raise DispatchError("cost matrix must have at least one row and one column")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DispatchError(f"cost matrix row {i} has {len(row)} entries, expected {width}")
        for j, cell in enumerate(row):
            try:
                if isinstance(cell, (str, bytes, bytearray)):
                    raise TypeError
                value = float(cell)
            except OverflowError:
                raise DispatchError("cost matrix entry is not finite (an integer too large for a float)") from None
            except (TypeError, ValueError):
                raise DispatchError(f"cost matrix entry ({i}, {j}) is not a number: {cell!r}") from None
            if not 0.0 <= value < math.inf:  # NaN, infinities and negatives
                problem = "negative" if math.isfinite(value) else "not finite"
                raise DispatchError(f"cost matrix entry ({i}, {j}) is {problem}")


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
    mins = matrix.__dict__.get(_INTEGRAL)
    cost = _scaled_costs(matrix.entries) if mins is None else matrix.entries
    tall = n_cols < n_rows
    # Solve the short side; its free partners are indices, not zero lines. Copies share the mark: pass a copy.
    a4b, b4a, ua, vb = _shortest_paths([*zip(*cost)] if tall else cost, n, mins and [*mins])
    for b in range(n):  # each free line's partner: the next index past the short side
        if b4a[b] < 0:
            b4a[b] = len(a4b)
            a4b.append(b)
    col4row, row4col, u, v = (b4a, a4b, vb, ua) if tall else (a4b, b4a, ua, vb)
    _tie_break(cost, n, col4row, row4col, u, v)
    mapping = []
    selected = []
    for row, j in zip(matrix.entries, col4row):
        if j < n_cols:
            selected.append(row[j])
        else:
            j = None
        mapping.append(j)
    return Assignment(mapping=tuple(mapping), total_cost=_total(selected))


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


def _scaled_costs(entries: tuple[tuple[float, ...], ...]) -> list[list[int]]:
    """The entries times one common power of two, as Python ints, on which
    the solve adds and compares exactly (an integral x gives ``int(x)``)."""
    scaled = []  # each row's (p, q), x = p / q, until the common scale is known
    scale = 1
    for row in entries:
        row = [*map(float.as_integer_ratio, row)]
        scaled.append(row)
        for _, q in row:
            if q > scale:
                scale = q
    for row in scaled:
        for j, (p, q) in enumerate(row):
            row[j] = p * (scale // q)
    return scaled


def _shortest_paths(
    cost: Sequence[Sequence[float]], nc: int, u: list[float] | None = None
) -> tuple[list[int], list[int], list[float], list[float]]:
    """Shortest-augmenting-path solve (Crouse 2016) of every row of an
    exact cost matrix with ``len(cost) <= nc`` columns: ``(col4row, row4col,
    u, v)``, an optimal matching seen from both sides (``-1`` on a free
    column) and duals with ``cost[i][j] - u[i] - v[j]`` non-negative, and
    zero on matched pairs.

    ``u`` starts at the row minima, given (and raised in place) or taken
    here, and ``v`` at zero, and each row first takes the first free column
    among its cheapest ones: every greedy pair is tight, so the certificate
    holds from the start, and no dual moves, as the bound proved by
    ``CostMatrix`` requires. The rows left over search one by one, and a
    free column wins a tie in distance. ``v`` falls only on columns a search
    reaches, which stay matched, so it is zero on every free column.
    """
    u = list(map(min, cost)) if u is None else u
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
    for start in range(len(cost)):  # each row the greedy start left free: a search seats only its own
        if col4row[start] >= 0:
            continue
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
    cost: Sequence[Sequence[float]], n: int, col4row: list[int], row4col: list[int], u: list[float], v: list[float]
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
    tight = []
    for row, ui in zip(cost, u):
        line = []
        for j in range(n_cols):
            if row[j] - ui == v[j]:
                line.append(j)
        tight.append(line)
    if n_rows < n:  # wide: the zero rows holding the free columns
        line = []
        for j in range(n):
            if v[j] == 0:
                line.append(j)
        tight += [line] * (n - n_rows)
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
            cols = [*map(col4row.__getitem__, chain[1:])]
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
