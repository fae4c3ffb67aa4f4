"""Oracles that do not use the code under test.

Expected report numbers are recomputed in closed form from the scenario
document, following the model the README documents. Dispatch answers are
checked by exact brute force over injections, using integer arithmetic and
the documented tie-break: the lexicographically smallest row-by-row mapping
among the minimum-cost ones, with an unassigned row ordered after every
column. Larger integer matrices go to ``scipy_check.py`` in its own process.
"""

from __future__ import annotations

import itertools
import json
import math

#: The two bundled presets, as the README documents the reference case.
#: Their notes are not compared.
YANGSHAN = {
    "name": "yangshan-phase4",
    "throughput": {"teu_per_year": 6.3e6, "unit_energy": 125.0},
    "shares": {"equipment_share": 0.5, "transport_share": 0.2, "buildings_share": 0.3},
    "factors": {"equipment_factor": 0.5, "transport_factor": 0.7, "buildings_factor": 1.2, "grid_factor": 0.4},
    "renewables": {"renewable_energy": 78750.0, "source": "explicit", "new_green_energy": 75000.0},
    "costs": {"baseline_cost_per_teu": 250.0, "optimized_cost_per_teu": 175.0},
    "dispatch_matrix": [[420, 350, 450], [450, 400, 280], [420, 360, 390]],
}
PRESET_DOCS = {
    "yangshan-phase4": YANGSHAN,
    "yangshan-phase4-stated-shares": {
        **YANGSHAN,
        "name": "yangshan-phase4-stated-shares",
        "shares": {"equipment_share": 0.5, "transport_share": 0.3, "buildings_share": 0.2},
    },
}

CLAMP_ENERGY = "renewables exceed demand: optimized energy clamped to zero"
CLAMP_EMISSIONS = "renewable credit exceeds emissions: optimized emissions clamped to zero"

REL_TOL = 1e-9


class OracleMismatch(Exception):
    """The program's output disagrees with the oracle."""


def modeled_generation(doc: dict) -> tuple[float, float, float]:
    """(pv kWh, wind kWh, total MWh) of the document's assets."""
    pv = 0.0
    for a in doc.get("pv_arrays", []):
        peak = a.get("peak_power", a["panel_area"] * a.get("irradiance", 1.0) * a["module_efficiency"])
        pv += peak * a.get("sun_hours", 1176.5) * a.get("performance_ratio", 0.8)
    wind = 0.0
    for t in doc.get("wind_turbines", []):
        v = t["wind_speed"]
        avg = t.get("average_power",
                    0.5 * t.get("air_density", 1.225) * t["swept_area"] * v ** 3 * t.get("power_coefficient", 0.4) / 1000)
        wind += avg * t["operating_hours"]
    return pv, wind, (pv + wind) / 1000


def brute_force(rows: list[list[float]]) -> tuple[list[int | None], int]:
    """Exact optimum with the documented tie-break, for integer-valued entries."""
    grid = [[int(x) for x in row] for row in rows]
    if any(g != x for grow, row in zip(grid, rows) for g, x in zip(grow, row)):
        raise ValueError("brute force oracle needs integer-valued entries")
    r, c = len(grid), len(grid[0])
    best = None
    if r <= c:
        for cols in itertools.permutations(range(c), r):
            key = (sum(grid[i][cols[i]] for i in range(r)), cols)
            if best is None or key < best:
                best = key
        return list(best[1]), best[0]
    for takers in itertools.permutations(range(r), c):  # takers[j]: the row given column j
        mapping = [c] * r
        for j, i in enumerate(takers):
            mapping[i] = j
        key = (sum(grid[i][j] for j, i in enumerate(takers)), tuple(mapping))
        if best is None or key < best:
            best = key
    return [None if j == c else j for j in best[1]], best[0]


def check_assignment(mapping, total, want_mapping, want_total) -> None:
    if list(mapping) != list(want_mapping):
        raise OracleMismatch(f"mapping {list(mapping)} != optimum {list(want_mapping)}")
    if total != float(want_total):
        raise OracleMismatch(f"total {total!r} != {float(want_total)!r}")


def _close(got: float, want: float, scale: float = 0.0) -> bool:
    return abs(got - want) <= REL_TOL * max(abs(got), abs(want), abs(scale))


def expected_report(doc: dict, override: dict | None) -> dict:
    """Closed-form report of a valid document: {section: {field: value}}."""
    shares = [doc["shares"][k] for k in ("equipment_share", "transport_share", "buildings_share")]
    weights_doc = dict(doc.get("objective_weights", {}))
    if override:
        shares = override.get("shares", shares)
        if "weights" in override:
            for k, w in zip(("w_emissions", "w_energy", "w_dispatch", "w_renewables"), override["weights"]):
                weights_doc[k] = w
    teu = doc["throughput"]["teu_per_year"]
    baseline = teu * doc["throughput"]["unit_energy"] / 1000
    sectors = [baseline * s for s in shares]
    f = doc["factors"]
    ren = doc["renewables"]
    generation = None
    if ren["source"] == "from_pv_wind_models":
        generation = modeled_generation(doc)
    supply = ren["renewable_energy"] if "renewable_energy" in ren else generation[2]
    green = ren.get("new_green_energy")
    green = supply if green is None else green
    optimized = max(baseline - supply, 0.0)
    em_base = sum(e * k for e, k in zip(sectors, (f["equipment_factor"], f["transport_factor"], f["buildings_factor"])))
    credit = supply * f["grid_factor"]
    em_opt = max(em_base - credit, 0.0)
    em_red = em_base - em_opt
    dispatch = None
    if doc.get("dispatch_matrix") is not None:
        dispatch = brute_force(doc["dispatch_matrix"])
    c = doc["costs"]
    b, o = c["baseline_cost_per_teu"], c["optimized_cost_per_teu"]
    w = {"w_emissions": 1.0, "w_energy": 1.0, "w_dispatch": 1.0, "w_renewables": 1.0,
         "norm_emissions": 1.0, "norm_energy": 1.0, "norm_dispatch": 1.0, "norm_renewables": 1.0,
         "renewables_reduce_score": True, **weights_doc}
    sign = -1.0 if w["renewables_reduce_score"] else 1.0
    terms = [
        w["w_emissions"] * em_opt / w["norm_emissions"],
        w["w_energy"] * optimized / w["norm_energy"],
        w["w_dispatch"] * (dispatch[1] if dispatch else 0.0) / w["norm_dispatch"],
        sign * w["w_renewables"] * supply / w["norm_renewables"],
    ]
    flags = []
    if supply > baseline:
        flags.append(CLAMP_ENERGY)
    if credit > em_base:
        flags.append(CLAMP_EMISSIONS)
    want = {
        "scenario_name": doc["name"],
        "energy": {
            "baseline_total": baseline,
            "equipment": sectors[0], "transport": sectors[1], "buildings": sectors[2],
            "optimized_total": optimized,
            "reduction_fraction": (baseline - optimized) / baseline if baseline > 0 else 0.0,
        },
        "emissions": {
            "baseline_emissions": em_base,
            "optimized_emissions": em_opt,
            "reduction": em_red,
            "renewable_credit": credit,
            "baseline_intensity": em_base / baseline if baseline > 0 else 0.0,
            "optimized_intensity": em_opt / optimized if optimized > 0 else 0.0,
            "substitution_efficiency": em_red / green if green > 0 else 0.0,
        },
        "generation": None if generation is None else {
            "pv_annual": generation[0], "wind_annual": generation[1], "total_annual_mwh": generation[2],
        },
        "assignment": None if dispatch is None else {"mapping": dispatch[0], "total_cost": float(dispatch[1])},
        "costs": {
            "per_teu_baseline": b, "per_teu_optimized": o, "per_teu_savings": b - o,
            "total_baseline": b * teu, "total_optimized": o * teu, "total_savings": (b - o) * teu,
            "savings_fraction": (b - o) * teu / (b * teu) if b * teu > 0 else 0.0,
        },
        "objective": {
            "total": math.fsum(terms), "emissions_term": terms[0], "energy_term": terms[1],
            "dispatch_term": terms[2], "renewables_term": terms[3],
        },
        "clamp_flags": flags,
        "notes": doc.get("notes", []) if doc["name"] not in PRESET_DOCS else None,
    }
    # The magnitude each number is computed from: a difference of two large
    # numbers is only as exact as the numbers themselves.
    gross = max(em_base, credit)
    want["scales"] = {
        ("energy", "optimized_total"): baseline,
        ("energy", "reduction_fraction"): 1.0,
        ("emissions", "optimized_emissions"): gross,
        ("emissions", "reduction"): gross,
        ("emissions", "optimized_intensity"): gross / optimized if optimized > 0 else 0.0,
        ("emissions", "substitution_efficiency"): gross / green if green > 0 else 0.0,
        ("costs", "per_teu_savings"): max(b, o),
        ("costs", "total_savings"): max(b, o) * teu,
        ("costs", "savings_fraction"): 1.0,
        ("objective", "total"): max(abs(t) for t in terms),
    }
    return want


#: CSV metric name -> (section, field, unit), in the report's row order.
CSV_ROWS = (
    ("baseline_total_mwh", "energy", "baseline_total", "MWh"),
    ("equipment_energy_mwh", "energy", "equipment", "MWh"),
    ("transport_energy_mwh", "energy", "transport", "MWh"),
    ("buildings_energy_mwh", "energy", "buildings", "MWh"),
    ("optimized_total_mwh", "energy", "optimized_total", "MWh"),
    ("energy_reduction_fraction", "energy", "reduction_fraction", "fraction"),
    ("baseline_emissions_kg", "emissions", "baseline_emissions", "kg CO2"),
    ("optimized_emissions_kg", "emissions", "optimized_emissions", "kg CO2"),
    ("emission_reduction_kg", "emissions", "reduction", "kg CO2"),
    ("renewable_credit_kg", "emissions", "renewable_credit", "kg CO2"),
    ("baseline_intensity", "emissions", "baseline_intensity", "kg CO2/MWh"),
    ("optimized_intensity", "emissions", "optimized_intensity", "kg CO2/MWh"),
    ("substitution_efficiency", "emissions", "substitution_efficiency", "kg CO2/MWh"),
    ("pv_annual_kwh", "generation", "pv_annual", "kWh"),
    ("wind_annual_kwh", "generation", "wind_annual", "kWh"),
    ("modeled_renewable_mwh", "generation", "total_annual_mwh", "MWh"),
    ("dispatch_total_cost", "assignment", "total_cost", "km"),
    ("per_teu_baseline", "costs", "per_teu_baseline", "USD/TEU"),
    ("per_teu_optimized", "costs", "per_teu_optimized", "USD/TEU"),
    ("per_teu_savings", "costs", "per_teu_savings", "USD/TEU"),
    ("total_baseline_usd", "costs", "total_baseline", "USD"),
    ("total_optimized_usd", "costs", "total_optimized", "USD"),
    ("total_savings_usd", "costs", "total_savings", "USD"),
    ("savings_fraction", "costs", "savings_fraction", "fraction"),
    ("objective_total", "objective", "total", "score"),
    ("objective_emissions_term", "objective", "emissions_term", "score"),
    ("objective_energy_term", "objective", "energy_term", "score"),
    ("objective_dispatch_term", "objective", "dispatch_term", "score"),
    ("objective_renewables_term", "objective", "renewables_term", "score"),
)


def _compare(section: str, name: str, got: float, want: dict) -> None:
    scale = want["scales"].get((section, name), 0.0)
    if not _close(got, want[section][name], scale):
        raise OracleMismatch(f"{section}.{name} = {got!r}, expected {want[section][name]!r}")


def _reject_constant(text: str) -> float:
    raise OracleMismatch(f"report JSON holds the non-standard number {text}")


def check_json_report(text: str, want: dict) -> None:
    raw = json.loads(text, parse_constant=_reject_constant)
    if raw["scenario_name"] != want["scenario_name"]:
        raise OracleMismatch(f"scenario_name {raw['scenario_name']!r}")
    energy = dict(raw["energy"])
    energy.update(energy.pop("baseline_by_sector"))
    for section, got in (("energy", energy), ("emissions", raw["emissions"]),
                         ("costs", raw["costs"]), ("objective", raw["objective"])):
        if set(got) != set(want[section]):
            raise OracleMismatch(f"{section} has fields {sorted(got)}")
        for name, value in got.items():
            _compare(section, name, value, want)
    if (raw["generation"] is None) != (want["generation"] is None):
        raise OracleMismatch("generation block presence")
    for name, value in (raw["generation"] or {}).items():
        _compare("generation", name, value, want)
    if (raw["assignment"] is None) != (want["assignment"] is None):
        raise OracleMismatch("assignment block presence")
    if raw["assignment"] is not None:
        check_assignment(raw["assignment"]["mapping"], raw["assignment"]["total_cost"],
                         want["assignment"]["mapping"], want["assignment"]["total_cost"])
    _check_flags(raw["flags"], want)


def check_csv_report(text: str, want: dict) -> None:
    lines = text.split("\n")
    if lines[0] != "metric,value,unit" or lines[-1] != "":
        raise OracleMismatch("CSV header or trailing newline")
    rows = [line.split(",") for line in lines[1:-1]]
    expected = [r for r in CSV_ROWS if want[r[1]] is not None]
    if [r[0] for r in rows] != [r[0] for r in expected]:
        raise OracleMismatch(f"CSV metrics {[r[0] for r in rows]}")
    for (name, value, unit), (_, section, field, want_unit) in zip(rows, expected):
        if unit != want_unit:
            raise OracleMismatch(f"CSV unit of {name} is {unit!r}")
        _compare(section, field, float(value), want)


def _check_flags(flags: list[str], want: dict) -> None:
    n = len(want["clamp_flags"])
    if flags[:n] != want["clamp_flags"]:
        raise OracleMismatch(f"flags {flags}")
    if want["notes"] is not None and flags[n:] != want["notes"]:
        raise OracleMismatch(f"notes {flags[n:]}")


def check_summary(text: str, want: dict) -> None:
    lines = text.splitlines()
    if lines[0] != f"scenario: {want['scenario_name']}":
        raise OracleMismatch(f"summary starts {lines[0]!r}")
    if (want["assignment"] is not None) != any(line.startswith("  dispatch: total ") for line in lines):
        raise OracleMismatch("summary dispatch line")


def check_report(text: str, fmt: str, summary: str, want: dict) -> None:
    (check_json_report if fmt == "json" else check_csv_report)(text, want)
    check_summary(summary, want)


def parse_dispatch_output(text: str, n_rows: int) -> tuple[list[int | None], float]:
    """Read ``portsim dispatch`` output: ``i -> j`` lines then ``total T``."""
    lines = text.splitlines()
    if len(lines) != n_rows + 1 or not lines[-1].startswith("total "):
        raise OracleMismatch(f"dispatch output has {len(lines)} lines")
    mapping: list[int | None] = []
    for i, line in enumerate(lines[:-1]):
        row, arrow, col = line.split(" ")
        if row != str(i) or arrow != "->":
            raise OracleMismatch(f"dispatch line {line!r}")
        mapping.append(None if col == "unassigned" else int(col))
    return mapping, float(lines[-1][len("total "):])
