"""Seeded inputs for the three workloads.

Every pool has a fixed class structure: the number of ops of each class,
the asset counts, the matrix shapes and the kind of defect in each invalid
document do not depend on the seed. The seed chooses only the numbers in
the documents and matrices and the order of the ops. So the per-op call
counts of a traced run repeat exactly, and the percentiles of a run fall
at the same place in the class structure whatever the seed.

Known defects (ROADMAP item 1 overflow, item 3 wide-range dispatch) stay in
the pools on purpose; their ops fail until those items are fixed. Every
overflow document fails whatever its numbers, but which wide-range matrix
the solver gets wrong depends on its entries, so the wide-range matrices
are the same for every seed (only their place in the pool changes): the
number of failed ops then depends on the code alone, not on the seed.
"""

from __future__ import annotations

import json
import random

from oracles import PRESET_DOCS, modeled_generation

# --- scenario-sweep -------------------------------------------------------

#: (class name, count, supply, pv arrays, wind turbines). Counts sum to 96
#: valid documents; with the 24 invalid and 4 overflow documents below a
#: pass is 124 ops, so more than ten ops lie beyond its p90.
VALID_CLASSES = (
    ("explicit-0", 18, "explicit", 0, 0),
    ("explicit-3", 20, "explicit", 2, 1),
    ("explicit-40", 10, "explicit", 24, 16),
    ("modeled-0", 6, "modeled", 0, 0),
    ("modeled-3", 20, "modeled", 1, 2),
    ("modeled-40", 10, "modeled", 16, 24),
    ("override", 12, "explicit", 2, 1),
)

#: Matrix shapes (AGVs x destinations) dealt in turn to every second valid
#: document: square and rectangular, 3 to 6 AGVs, at most 7 per side so the
#: brute-force oracle stays cheap.
SWEEP_MATRIX_SHAPES = ((3, 3), (4, 4), (5, 5), (6, 6), (3, 5), (5, 3), (4, 6), (6, 7), (6, 4))

#: Single-defect invalid documents: (defect, expected field path). Two of
#: each per pass.
DEFECTS = (
    ("shares_sum", "shares"),
    ("negative_teu", "throughput.teu_per_year"),
    ("unknown_key", "scenario.colour"),
    ("missing_costs", "scenario.costs"),
    ("pv_efficiency", "pv_arrays[0].module_efficiency"),
    ("betz", "wind_turbines[0].power_coefficient"),
    ("ragged_matrix", "dispatch_matrix"),
    ("matrix_text_cell", "dispatch_matrix[1][2]"),
    ("bad_source", "renewables.source"),
    ("supply_mismatch", "renewables.renewable_energy"),
    ("zero_norm", "objective_weights.norm_energy"),
    ("truncated_json", "scenario"),
)

#: ROADMAP item 1: documents that pass validation today but overflow. They
#: are expected to be rejected with a named field; two of each per pass.
OVERFLOWS = ("buildings_factor", "baseline_cost")


def _r(rng: random.Random, lo: float, hi: float, digits: int = 3) -> float:
    return round(rng.uniform(lo, hi), digits)


def _pv(rng: random.Random) -> dict:
    pv = {"panel_area": _r(rng, 1000, 60000, 1), "module_efficiency": _r(rng, 0.12, 0.22)}
    if rng.random() < 0.5:
        pv["irradiance"] = _r(rng, 0.6, 1.0)
    if rng.random() < 0.3:
        pv["sun_hours"] = _r(rng, 900, 1600, 1)
    if rng.random() < 0.3:
        pv["performance_ratio"] = _r(rng, 0.7, 0.9)
    if rng.random() < 0.2:
        pv["peak_power"] = _r(rng, 100, 9000, 1)
    return pv


def _wind(rng: random.Random) -> dict:
    wt = {
        "swept_area": _r(rng, 50, 12000, 1),
        "wind_speed": _r(rng, 4, 12, 2),
        "operating_hours": _r(rng, 1500, 4000, 1),
    }
    if rng.random() < 0.4:
        wt["air_density"] = _r(rng, 1.1, 1.3)
    if rng.random() < 0.4:
        wt["power_coefficient"] = _r(rng, 0.3, 0.5)
    if rng.random() < 0.2:
        wt["average_power"] = _r(rng, 50, 3000, 1)
    return wt


def _percent_split(rng: random.Random) -> list[float]:
    a = rng.randint(20, 60)
    b = rng.randint(10, 90 - a)
    return [a / 100, b / 100, (100 - a - b) / 100]


def _matrix(rng: random.Random, rows: int, cols: int, hi: int = 1000) -> list[list[int]]:
    return [[rng.randint(0, hi) for _ in range(cols)] for _ in range(rows)]


def scenario_doc(rng: random.Random, name: str, supply: str, n_pv: int, n_wind: int,
                 shape: tuple[int, int] | None, stated: bool = True) -> dict:
    """A valid scenario document in the external JSON schema. A modeled
    supply states its total only when ``stated``; otherwise portsim
    derives it from the assets."""
    teu = _r(rng, 1e5, 2e7, 0)
    unit_energy = _r(rng, 60, 200, 2)
    eq, tr, bu = _percent_split(rng)
    doc: dict = {
        "name": name,
        "throughput": {"teu_per_year": teu, "unit_energy": unit_energy},
        "shares": {"equipment_share": eq, "transport_share": tr, "buildings_share": bu},
        "factors": {
            "equipment_factor": _r(rng, 0.1, 1.5),
            "transport_factor": _r(rng, 0.1, 1.5),
            "buildings_factor": _r(rng, 0.1, 1.5),
            "grid_factor": _r(rng, 0.3, 0.9),
        },
        "costs": {
            "baseline_cost_per_teu": _r(rng, 150, 350, 2),
            "optimized_cost_per_teu": _r(rng, 100, 300, 2),
        },
    }
    pv = [_pv(rng) for _ in range(n_pv)]
    wind = [_wind(rng) for _ in range(n_wind)]
    if pv:
        doc["pv_arrays"] = pv
    if wind:
        doc["wind_turbines"] = wind
    if supply == "explicit":
        baseline = teu * unit_energy / 1000
        # Up to 120% of demand, so the clamp flags fire on some documents.
        doc["renewables"] = {"source": "explicit", "renewable_energy": round(baseline * rng.uniform(0, 1.2), 1)}
    else:
        doc["renewables"] = {"source": "from_pv_wind_models"}
        if stated:
            doc["renewables"]["renewable_energy"] = modeled_generation(doc)[2]
    if rng.random() < 0.5:
        doc["renewables"]["new_green_energy"] = _r(rng, 1000, 90000, 1)
    if shape is not None:
        doc["dispatch_matrix"] = _matrix(rng, *shape)
    if rng.random() < 0.5:
        doc["objective_weights"] = {
            "w_emissions": _r(rng, 0, 2), "w_energy": _r(rng, 0, 2),
            "norm_emissions": _r(rng, 0.5, 1000), "norm_dispatch": _r(rng, 0.5, 100),
            "renewables_reduce_score": rng.random() < 0.7,
        }
    if rng.random() < 0.3:
        doc["notes"] = [f"sweep note {rng.randint(0, 999)}"]
    return doc


def _with_defect(doc: dict, defect: str) -> str:
    """Apply one defect to a valid document; return the document text."""
    if defect == "shares_sum":
        doc["shares"]["buildings_share"] += 0.05
    elif defect == "negative_teu":
        doc["throughput"]["teu_per_year"] = -doc["throughput"]["teu_per_year"]
    elif defect == "unknown_key":
        doc["colour"] = "green"
    elif defect == "missing_costs":
        del doc["costs"]
    elif defect == "pv_efficiency":
        doc["pv_arrays"][0]["module_efficiency"] = 1.5
    elif defect == "betz":
        doc["wind_turbines"][0]["power_coefficient"] = 0.7
    elif defect == "ragged_matrix":
        doc["dispatch_matrix"][1].pop()
    elif defect == "matrix_text_cell":
        doc["dispatch_matrix"][1][2] = "far"
    elif defect == "bad_source":
        doc["renewables"]["source"] = "solar"
    elif defect == "supply_mismatch":
        doc["renewables"]["renewable_energy"] = modeled_generation(doc)[2] * 1.01 + 1.0
    elif defect == "zero_norm":
        doc.setdefault("objective_weights", {})["norm_energy"] = 0
    elif defect == "truncated_json":
        text = json.dumps(doc)
        return text[: len(text) // 2]
    else:
        raise ValueError(defect)
    return json.dumps(doc)


def _overflow(doc: dict, kind: str) -> None:
    doc["throughput"] = {"teu_per_year": 1e10, "unit_energy": 1e10 if kind == "buildings_factor" else 100.0}
    doc["renewables"] = {"source": "explicit", "renewable_energy": 1000.0}
    if kind == "buildings_factor":
        doc["factors"]["buildings_factor"] = 1e300
    else:
        doc["costs"]["baseline_cost_per_teu"] = 1e300


def sweep_pool(seed: int) -> list[dict]:
    """The scenario-sweep op multiset, shuffled.

    Each op: ``cls``, ``text`` (scenario JSON), ``format`` (json or csv),
    ``override`` (None or shares/weights to apply), ``expect`` ("report" or
    "reject") and, for rejections, the expected ``field``.
    """
    rng = random.Random(f"sweep-{seed}")
    ops: list[dict] = []
    k = 0
    for cls, count, supply, n_pv, n_wind in VALID_CLASSES:
        for i in range(count):
            shape = SWEEP_MATRIX_SHAPES[k % len(SWEEP_MATRIX_SHAPES)] if i % 2 == 0 else None
            k += i % 2 == 0
            doc = scenario_doc(rng, f"{cls}-{i}", supply, n_pv, n_wind, shape, stated=i % 4 < 2)
            override = None
            if cls == "override":
                override = {"shares": _percent_split(rng)} if i % 3 != 1 else {}
                if i % 3 != 0:
                    override["weights"] = [_r(rng, 0, 2) for _ in range(4)]
            ops.append({"cls": cls, "text": json.dumps(doc), "override": override, "expect": "report"})
    for defect, field in DEFECTS:
        for i in range(2):
            doc = scenario_doc(rng, f"invalid-{defect}-{i}", "modeled" if defect == "supply_mismatch" else "explicit",
                               1, 1, (4, 5))
            ops.append({"cls": "invalid", "text": _with_defect(doc, defect), "override": None,
                        "expect": "reject", "field": field})
    for kind in OVERFLOWS:
        for i in range(2):
            doc = scenario_doc(rng, f"overflow-{kind}-{i}", "explicit", 0, 0, None)
            _overflow(doc, kind)
            ops.append({"cls": "overflow", "text": json.dumps(doc), "override": None,
                        "expect": "reject", "field": None})
    # Formats alternate within each class, so every class is serialized both ways.
    seen: dict[str, int] = {}
    for op in ops:
        n = seen.get(op["cls"], 0)
        seen[op["cls"]] = n + 1
        op["format"] = "json" if n % 2 == 0 else "csv"
    rng.shuffle(ops)
    return ops


# --- fleet-dispatch -------------------------------------------------------

#: (class, count, rows, cols). 104 ops a pass, more than ten beyond p90.
#: The four slow classes take roughly 8-30 ms each on a 2-vCPU machine, so
#: p50 and p90 fall inside a band of similar ops rather than on a cliff.
FLEET_CLASSES = (
    ("square", 28, 16, 16),
    ("ties", 28, 16, 16),
    ("rect_wide", 20, 8, 16),
    ("rect_tall", 20, 16, 8),
    ("wide_range", 8, 6, 7),
)


def fleet_matrix(rng: random.Random, cls: str, rows: int, cols: int) -> list[list[int]]:
    if cls == "ties":
        return _matrix(rng, rows, cols, hi=3)
    if cls == "wide_range":
        # Small entries with one huge one: the solver's padding sentinel
        # absorbs the small differences (ROADMAP item 3).
        m = [[rng.randint(1, 100) for _ in range(cols)] for _ in range(rows)]
        m[rng.randrange(rows)][rng.randrange(cols)] = rng.randint(10**16, 10**17)
        return m
    return _matrix(rng, rows, cols)


def fleet_pool(seed: int) -> list[dict]:
    rng = random.Random(f"fleet-{seed}")
    fixed = random.Random("fleet-wide_range")
    ops = [
        {"cls": cls, "rows": fleet_matrix(fixed if cls == "wide_range" else rng, cls, r, c)}
        for cls, count, r, c in FLEET_CLASSES
        for _ in range(count)
    ]
    rng.shuffle(ops)
    return ops


#: Scaling curve of the traced run: (class, rows(n), cols(n)). ``rect`` is
#: 1:2 with the longer side n. n >= 80 is left out: the O(n^5) tie-break
#: of the solver at the time of writing takes about 10 s per solve there.
CURVE_CLASSES = (("square", lambda n: n, lambda n: n),
                 ("ties", lambda n: n, lambda n: n),
                 ("rect", lambda n: (n + 1) // 2, lambda n: n))
CURVE_SIZES = (3, 5, 10, 20, 40)


def curve_matrices() -> list[dict]:
    """One fixed matrix per class and size, the same for every seed."""
    out = []
    for cls, rows, cols in CURVE_CLASSES:
        for n in CURVE_SIZES:
            rng = random.Random(f"curve-{cls}-{n}")
            out.append({"cls": cls, "n": n,
                        "rows": _matrix(rng, rows(n), cols(n), hi=3 if cls == "ties" else 1000)})
    return out


# --- cli-cold -------------------------------------------------------------

PRESETS = tuple(PRESET_DOCS)


def cli_pool(seed: int) -> tuple[list[dict], dict[str, str]]:
    """The cli-cold op multiset and the files it reads.

    Returns (ops, files): each op has ``kind``, ``args`` (after
    ``python -S -m portsim.cli``) and what the oracle needs; ``files`` maps
    a file name in the run directory to its text. 100 ops a pass, so more
    than ten lie beyond p90.
    """
    rng = random.Random(f"cli-{seed}")
    files: dict[str, str] = {}
    docs: list[dict] = []
    for i, (supply, n_pv, n_wind, shape) in enumerate((
        ("explicit", 0, 0, (3, 3)), ("explicit", 2, 1, None), ("modeled", 1, 2, (4, 5)),
        ("modeled", 3, 3, None), ("explicit", 1, 1, (5, 5)), ("modeled", 0, 0, (6, 4)),
    )):
        doc = scenario_doc(rng, f"cli-file-{i}", supply, n_pv, n_wind, shape, stated=i % 2 == 0)
        files[f"scenario{i}.json"] = json.dumps(doc, indent=2)
        docs.append(doc)
    invalid = scenario_doc(rng, "cli-invalid", "explicit", 0, 0, None)
    files["invalid.json"] = _with_defect(invalid, "shares_sum")
    matrix = _matrix(rng, 12, 12)
    files["fleet.csv"] = "".join(",".join(str(x) for x in row) + "\n" for row in matrix)

    ops: list[dict] = []

    def run(source: str, doc: dict | None, kind: str, fmt: str, extra: list[str], override: dict | None) -> None:
        ops.append({"kind": kind, "args": ["run", source, "--format", fmt] + extra,
                    "source": source, "doc": doc, "format": fmt, "override": override})

    for i in range(24):
        run(PRESETS[i % 2], None, "run_preset", ("json", "csv")[i // 2 % 2], [], None)
    for i in range(36):
        j = i % len(docs)
        run(f"scenario{j}.json", docs[j], "run_file", ("json", "csv")[i // len(docs) % 2], [], None)
    for i in range(12):
        shares = _percent_split(rng)
        weights = [_r(rng, 0, 2) for _ in range(4)]
        extra: list[str] = []
        override: dict = {}
        if i % 3 != 1:
            extra += ["--shares", ",".join(repr(x) for x in shares)]
            override["shares"] = shares
        if i % 3 != 0:
            extra += ["--weights", ",".join(repr(x) for x in weights)]
            override["weights"] = weights
        source, doc = (PRESETS[i % 2], None) if i % 2 == 0 else (f"scenario{i % len(docs)}.json", docs[i % len(docs)])
        run(source, doc, "run_override", ("json", "csv")[i // 2 % 2], extra, override)
    for i in range(8):
        source = PRESETS[i % 2] if i < 2 else ("invalid.json" if i < 4 else f"scenario{i % len(docs)}.json")
        ops.append({"kind": "validate", "args": ["validate", source], "source": source,
                    "valid": source != "invalid.json"})
    for _ in range(20):
        ops.append({"kind": "dispatch", "args": ["dispatch", "fleet.csv"], "rows": matrix})
    rng.shuffle(ops)
    return ops, files
