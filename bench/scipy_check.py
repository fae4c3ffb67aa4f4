"""Exact check of integer assignment answers with SciPy, in its own process.

Reads a JSON list of ``{"rows", "mapping", "total"}`` from stdin and writes
a JSON list with ``null`` for each correct answer and a message for each
wrong one. The answer must be a true optimum, found with
``scipy.optimize.linear_sum_assignment``, and must follow the documented
tie-break: for each row in order, the smallest free column (an unassigned
row coming after every column) that still admits an optimal completion.
Integer entries keep every total exact in float64 at these sizes.

Runs apart from the measured process, so NumPy and SciPy never count
toward the benchmark's peak memory. Exits 3 when SciPy is missing.
"""

from __future__ import annotations

import json
import sys

try:
    import numpy as np
    from scipy.optimize import linear_sum_assignment
except ImportError:
    sys.exit(3)


def _best(cost: np.ndarray) -> tuple[int, int]:
    """(minimum total, number of pairs) of a rectangular assignment."""
    if cost.size == 0:
        return 0, 0
    r, c = linear_sum_assignment(cost)
    return int(cost[r, c].sum()), len(r)


def check(rows: list[list[int]], mapping: list, total: float) -> str | None:
    cost = np.array(rows, dtype=np.int64)
    n_rows, n_cols = cost.shape
    optimum = _best(cost)
    if len(mapping) != n_rows:
        return f"mapping has {len(mapping)} rows"
    used: set[int] = set()
    fixed = 0
    pairs = 0
    for i in range(n_rows):
        rest = list(range(i + 1, n_rows))
        want = None
        for choice in [j for j in range(n_cols) if j not in used] + [None]:
            cols = [j for j in range(n_cols) if j not in used and j != choice]
            sub_total, sub_pairs = _best(cost[np.ix_(rest, cols)]) if rest and cols else (0, 0)
            here = int(cost[i, choice]) if choice is not None else 0
            if (fixed + here + sub_total, pairs + (choice is not None) + sub_pairs) == optimum:
                want = choice
                break
        if mapping[i] != want:
            return f"row {i} takes {mapping[i]}, the tie-break gives {want} (optimum {optimum[0]})"
        if want is not None:
            used.add(want)
            fixed += int(cost[i, want])
            pairs += 1
    if total != float(optimum[0]):
        return f"total {total!r} != optimum {optimum[0]}"
    return None


def main() -> None:
    answers = json.load(sys.stdin)
    json.dump([check(a["rows"], a["mapping"], a["total"]) for a in answers], sys.stdout)


if __name__ == "__main__":
    main()
