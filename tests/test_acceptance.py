"""Acceptance gate: one test per release criterion, each printing a
pass/fail line. Run with ``pytest tests/test_acceptance.py -v -s``."""

import math
import random
import time
from contextlib import contextmanager
from pathlib import Path

from portsim import (
    CostMatrix,
    EmissionFactorSet,
    SectorEnergyBreakdown,
    SectorShares,
    allocate_sectors,
    baseline_emissions,
    get_preset,
    run_scenario,
    scenario_from_dict,
    serialize_report,
    solve_assignment,
    validate_scenario,
    wind_instant_power,
)
from conftest import PAPER_MATRIX, enumerate_optima, make_scenario_dict


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"criterion {number}: FAIL - {description}")
        raise
    print(f"criterion {number}: PASS - {description}")


def test_criterion_1_baseline_and_optimized_energy():
    with criterion(1, "baseline 787,500 MWh and optimized 708,750 MWh, < 1 s"):
        start = time.perf_counter()
        report = run_scenario(get_preset("yangshan-phase4"))
        elapsed = time.perf_counter() - start
        assert report.energy.baseline_total == 787500.0
        assert report.energy.optimized_total == 708750.0
        assert elapsed < 1.0, f"run took {elapsed:.3f} s"


def test_criterion_2_emissions_and_share_variants():
    with criterion(2, "emissions 590,625/559,125 kg; stated shares 551,250 kg + flag"):
        reconciled = run_scenario(get_preset("yangshan-phase4"))
        assert reconciled.emissions.baseline_emissions == 590625.0
        assert reconciled.emissions.optimized_emissions == 559125.0
        stated = run_scenario(get_preset("yangshan-phase4-stated-shares"))
        assert stated.emissions.baseline_emissions == 551250.0
        assert any("discrepancy" in flag for flag in stated.flags)


def test_criterion_3_renewable_credit():
    with criterion(3, "78,750 MWh at grid factor 0.4 reduces emissions by 31,500 kg"):
        report = run_scenario(get_preset("yangshan-phase4"))
        assert report.emissions.renewable_credit == 31500.0
        assert report.emissions.reduction == 31500.0


def test_criterion_4_derived_metrics():
    with criterion(4, "intensity 0.75 / 0.79 (+/-0.005), substitution efficiency 0.42"):
        report = run_scenario(get_preset("yangshan-phase4"))
        assert abs(report.emissions.baseline_intensity - 0.75) <= 0.005
        assert abs(report.emissions.optimized_intensity - 0.79) <= 0.005
        assert report.emissions.substitution_efficiency == 0.42


def test_criterion_5_dispatch_reference_and_oracle_equivalence():
    with criterion(5, "reference matrix total 1050, 1000-matrix oracle equivalence < 10 s"):
        matrix = CostMatrix.from_rows(PAPER_MATRIX)
        solved = solve_assignment(matrix)
        assert solved.mapping == (1, 2, 0)
        assert solved.total_cost == 1050.0

        rng = random.Random(20250810)
        start = time.perf_counter()
        for _ in range(1000):
            n = rng.randint(2, 7)
            candidate = CostMatrix.from_rows(
                [[rng.uniform(0, 1000) for _ in range(n)] for _ in range(n)]
            )
            assert solve_assignment(candidate).total_cost == float(enumerate_optima(candidate.entries)[0])
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"property suite took {elapsed:.2f} s"


def test_criterion_6_economics():
    with criterion(6, "total savings $472.5M at 30%"):
        report = run_scenario(get_preset("yangshan-phase4"))
        assert report.costs.total_savings == 472.5e6
        assert report.costs.savings_fraction == 0.3


def test_criterion_7_property_suites():
    with criterion(7, "conservation, linearity, cubic law, potential invariance, determinism"):
        rng = random.Random(77)

        # sector-allocation conservation
        for _ in range(300):
            total = rng.uniform(0, 1e9)
            a = rng.uniform(0, 1)
            b = rng.uniform(0, 1 - a)
            shares = SectorShares(a, b, max(1.0 - a - b, 0.0))
            breakdown = allocate_sectors(total, shares)
            assert math.isclose(breakdown.total(), total, rel_tol=1e-9, abs_tol=1e-9)

        # emission linearity: doubling every sector doubles the total exactly
        for _ in range(300):
            sectors = SectorEnergyBreakdown(
                rng.uniform(0, 1e6), rng.uniform(0, 1e6), rng.uniform(0, 1e6)
            )
            factors = EmissionFactorSet(
                rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(0, 2)
            )
            doubled = SectorEnergyBreakdown(
                2 * sectors.equipment, 2 * sectors.transport, 2 * sectors.buildings
            )
            assert baseline_emissions(doubled, factors) == 2 * baseline_emissions(sectors, factors)

        # wind cubic law, exact in floating point
        for _ in range(300):
            rho = rng.uniform(0.8, 1.4)
            area = rng.uniform(0, 1e4)
            v = rng.uniform(0, 40)
            cp = rng.uniform(0.05, 0.593)
            assert wind_instant_power(rho, area, 2 * v, cp) == 8 * wind_instant_power(
                rho, area, v, cp
            )

        # assignment potential invariance on n <= 5, verified via enumeration
        for _ in range(60):
            n = rng.randint(2, 5)
            entries = [[float(rng.randint(0, 100)) for _ in range(n)] for _ in range(n)]
            base_optima = enumerate_optima(entries)[1]
            shift = float(rng.randint(1, 50))
            index = rng.randrange(n)
            if rng.random() < 0.5:
                shifted = [
                    [value + shift if i == index else value for value in row]
                    for i, row in enumerate(entries)
                ]
            else:
                shifted = [
                    [value + shift if j == index else value for j, value in enumerate(row)]
                    for row in entries
                ]
            assert enumerate_optima(shifted)[1] == base_optima
            base_total = solve_assignment(CostMatrix.from_rows(entries)).total_cost
            shifted_total = solve_assignment(CostMatrix.from_rows(shifted)).total_cost
            assert shifted_total == base_total + shift

        # report determinism: double runs are byte-identical in both formats
        for name in ("yangshan-phase4", "yangshan-phase4-stated-shares"):
            scenario = get_preset(name)
            for fmt in ("json", "csv"):
                first = serialize_report(run_scenario(scenario), fmt)
                second = serialize_report(run_scenario(scenario), fmt)
                assert first == second


def test_criterion_8_excluded_claims_are_documented_not_tested():
    with criterion(8, "desk-scale exclusions documented in the README, no tests target them"):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        text = readme.read_text(encoding="utf-8")
        assert "7-8%" in text and "11-12%" in text
        assert "not reproduced" in text or "not tested" in text
