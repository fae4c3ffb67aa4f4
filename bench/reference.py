"""Machine-speed reference, timed between blocks of ops.

The shared 2-vCPU machine the benchmark was written on runs in fast and
slow phases lasting seconds to minutes; in a slow phase everything takes up
to 1.8 times as long, which is more than any bound a benchmark can keep.
So the benchmark times a fixed piece of work that does not use portsim
every ``BLOCK_NS`` of op time, and divides each op's latency by the speed
factor of its block: the reference time around the block over its
``NOMINAL_NS``. Timings are thus reported in milliseconds of a machine in
its fast phase. Each reference resembles the work of its workload, so the
ratio holds across phases; a change to portsim moves only the op side.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass, replace

#: Op time between two reference measurements.
BLOCK_NS = 250_000_000

_DOC = json.dumps({
    "name": "reference",
    "throughput": {"teu_per_year": 6.3e6, "unit_energy": 125.0},
    "shares": {"equipment_share": 0.5, "transport_share": 0.2, "buildings_share": 0.3},
    "assets": [{"area": 1000.0 + i, "efficiency": 0.17, "hours": 1176.5} for i in range(6)],
    "matrix": [[420.0, 350.0, 450.0], [450.0, 400.0, 280.0], [420.0, 360.0, 390.0]],
    "notes": ["reference document"],
})


@dataclass(frozen=True)
class _Row:
    area: float
    efficiency: float
    hours: float
    output: float = 0.0


def python_mix() -> None:
    """Parsing, frozen dataclasses, float sums and JSON/text output: the
    kind of work a scenario-sweep op does."""
    for _ in range(3):
        doc = json.loads(_DOC)
        rows = [_Row(**a) for a in doc["assets"] * 8]
        rows = [replace(r, output=r.area * r.efficiency * r.hours) for r in rows]
        total = math.fsum(r.output for r in rows)
        doc["total"] = total
        text = json.dumps(doc, indent=2)
        lines = [f"{r.area},{r.output!r},kWh" for r in rows]
        "\n".join(lines) + text + f"{total:.2f}"


_GRID = [[float((i * 7 + j * 13) % 97) for j in range(24)] for i in range(24)]


def numeric() -> None:
    """A min-plus product of 24 x 24 lists of floats, then sub-matrix copies
    and exact sums: the tight indexed loops and list building of the
    assignment solver."""
    n = len(_GRID)
    for i in range(n):
        row = _GRID[i]
        best = [math.inf] * n
        for k in range(n):
            aik = row[k]
            bk = _GRID[k]
            for j in range(n):
                cur = aik + bk[j]
                if cur < best[j]:
                    best[j] = cur
    for k in range(12):
        keep = [r for r in range(n) if r != k]
        sub = [[_GRID[r][c] for c in keep] for r in keep]
        math.fsum([sub[i][i] for i in range(n - 1)])


#: Source of the reference child for cli-cold and set-up: interpreter start,
#: the standard-library imports portsim makes, dataclass creation and an
#: argparse round, as a ``python -S -m portsim.cli`` child does.
CHILD_CODE = "\n".join((
    "import argparse, copy, enum, itertools, json, math, pathlib, typing",
    "from dataclasses import dataclass",
    "for i in range(12):",
    "    exec(f'@dataclass(frozen=True)\\nclass C{i}:\\n    a: float\\n    b: float = 1.0\\n    c: str = \"\"\\n')",
    "parser = argparse.ArgumentParser(prog='reference')",
    "sub = parser.add_subparsers(dest='command', required=True)",
    "for name in ('validate', 'run', 'dispatch', 'presets'):",
    "    sub.add_parser(name).add_argument('input')",
    "print(json.dumps(vars(parser.parse_args(['run', 'x']))))",
))

#: Fast-phase time of each reference on that machine, in ns.
NOMINAL_NS = {"python_mix": 0.8e6, "numeric": 0.9e6, "child": 73e6}


class SpeedMeter:
    """Times ``measure`` (which returns ns) between blocks of ops and gives
    each op the speed factor of its block. Each measurement is the median
    of ``reps`` calls."""

    def __init__(self, measure, nominal_ns: float, reps: int) -> None:
        self._measure = measure
        self._nominal = nominal_ns
        self._reps = reps
        self._boundaries: list[float] = []
        self._block_ops: list[int] = []
        self._ops = 0
        self._elapsed = 0

    def _take(self) -> None:
        self._boundaries.append(statistics.median(self._measure() for _ in range(self._reps)))

    def start(self) -> None:
        if not self._boundaries:
            self._take()

    def tick(self, op_ns: int) -> None:
        self._ops += 1
        self._elapsed += op_ns
        if self._elapsed >= BLOCK_NS:
            self._close()

    def _close(self) -> None:
        self._take()
        self._block_ops.append(self._ops)
        self._ops = 0
        self._elapsed = 0

    def factors(self) -> list[float]:
        """Speed factor of every op ticked so far, in order."""
        if self._ops:
            self._close()
        out: list[float] = []
        for b, count in enumerate(self._block_ops):
            factor = statistics.mean(self._boundaries[b:b + 2]) / self._nominal
            out.extend([factor] * count)
        return out


def timer(fn):
    """A ``measure`` callable timing one call of ``fn``."""
    def measure() -> int:
        t0 = time.perf_counter_ns()
        fn()
        return time.perf_counter_ns() - t0
    return measure


def scale(passes: list[list[int]], speed: list[float]) -> list[list[float]]:
    """Latencies divided by the speed factors ``SpeedMeter.factors`` gave
    for them, in order."""
    factors = iter(speed)
    return [[lat / next(factors) for lat in p] for p in passes]
