"""Pinned solver outputs: a fixed, seeded corpus of cost matrices whose
mappings and totals must stay the same when the solver is rewritten.

Each matrix gives one line, ``mapping|float.hex(total)``, or
``E|message`` when it is rejected, and the test compares the sha256 of
those lines with a digest taken on the solver before the rewrite it
guards. The corpus draws only on ``random.Random`` with fixed seeds, so
it is the same on every Python from 3.10 on. Regenerate the digest only
from an unchanged solver, and say so where the change is recorded.
"""

import hashlib
import random

from portsim import CostMatrix, DispatchError, solve_assignment
from conftest import bound_tops, tied_matrix

#: sha256 of ``corpus_lines()`` from the solver that still turned every
#: cost into a Python int (the same on Python 3.10, 3.11, 3.12 and 3.13).
DIGEST = "2a4d9821118d356de09c3e895bb398cad0598cffe457700f614c792a53056d47"


def random_matrix(rng, kind, rows, cols):
    if kind == "random":
        return [[float(rng.randint(0, 1000)) for _ in range(cols)] for _ in range(rows)]
    if kind == "uniform":  # non-integral: the scaled-int solve
        return [[rng.uniform(0, 1000) for _ in range(cols)] for _ in range(rows)]
    if kind == "ties":
        return [[float(rng.randint(0, 3)) for _ in range(cols)] for _ in range(rows)]
    if kind == "wide_range":  # small integers beside 1e17, or any magnitude at all
        if rng.random() < 0.5:
            return [[rng.choice((1e17, float(rng.randint(1, 100)))) for _ in range(cols)] for _ in range(rows)]
        return [[10 ** rng.uniform(-300, 300) for _ in range(cols)] for _ in range(rows)]
    # near the float bound: the last largest entry under it, the first at it, or one past it
    return tied_matrix(rng, rows, cols, rng.choice(bound_tops(max(rows, cols), rng.randint(0, 52))))


KINDS = ("random", "uniform", "ties", "wide_range", "near_bound")


def structured_matrices():
    for n in (2, 3, 5, 8, 13, 20, 30, 40):
        for rows, cols in ((n, n), (n, n // 2), (n // 2, n)):
            if rows and cols:
                yield [[float(i * j) for j in range(cols)] for i in range(rows)]
                yield [[float(i + j) for j in range(cols)] for i in range(rows)]
                yield [[(i + 1) * (j + 1) / 7 for j in range(cols)] for i in range(rows)]


ERROR_CASES = (
    [[1e308, 1e308], [1e308, 1e308]],  # total past the float range
    [[1.0, float("nan")]],
    [[-1.0, 2.0]],
    [[1.0, 2.0], [3.0]],
    [[10**400]],
    [[]],
)


def corpus():
    rng = random.Random("dispatch-corpus")
    for k in range(1500):
        yield random_matrix(rng, KINDS[k % len(KINDS)], rng.randint(1, 12), rng.randint(1, 12))
    yield from structured_matrices()
    yield from ERROR_CASES


def corpus_lines():
    for entries in corpus():
        try:
            solved = solve_assignment(CostMatrix.from_rows(entries))
        except DispatchError as exc:
            yield f"E|{exc}"
        else:
            yield f"{solved.mapping}|{solved.total_cost.hex()}"


def corpus_digest():
    return hashlib.sha256("\n".join(corpus_lines()).encode()).hexdigest()


def test_corpus_outputs_are_pinned():
    assert corpus_digest() == DIGEST
