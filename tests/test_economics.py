import math
import sys

from hypothesis import assume, example, given
from hypothesis import strategies as st

from portsim import CostParameters, cost_report

money = st.floats(min_value=0, max_value=1e5, allow_nan=False)
throughputs = st.floats(min_value=0, max_value=1e9, allow_nan=False)


def test_reference_cost_case():
    report = cost_report(6.3e6, CostParameters(250.0, 175.0))
    assert report.per_teu_savings == 75.0
    assert report.total_baseline == 1.575e9
    assert report.total_optimized == 1.1025e9
    assert report.total_savings == 472.5e6
    assert report.savings_fraction == 0.3


def test_identical_costs_mean_zero_savings():
    report = cost_report(12345.0, CostParameters(99.0, 99.0))
    assert report.per_teu_savings == 0.0
    assert report.total_savings == 0.0
    assert report.savings_fraction == 0.0


def test_small_case():
    report = cost_report(1.0e6, CostParameters(100.0, 90.0))
    assert report.total_savings == 10.0e6
    assert report.savings_fraction == 0.1


def test_negative_savings_are_reported():
    report = cost_report(1000.0, CostParameters(100.0, 120.0))
    assert report.per_teu_savings == -20.0
    assert report.total_savings == -20000.0
    assert report.savings_fraction == -0.2


def test_zero_throughput_fraction_convention():
    report = cost_report(0.0, CostParameters(100.0, 90.0))
    assert report.total_baseline == 0.0
    assert report.savings_fraction == 0.0


@given(teu=throughputs, baseline=money, optimized=money)
def test_cost_identities(teu, baseline, optimized):
    report = cost_report(teu, CostParameters(baseline, optimized))
    assert report.per_teu_savings == baseline - optimized
    assert report.total_baseline == baseline * teu
    assert report.total_optimized == optimized * teu
    assert report.total_savings == report.per_teu_savings * teu
    if report.total_baseline > 0:
        assert report.savings_fraction == report.total_savings / report.total_baseline


@given(teu=st.floats(min_value=1, max_value=1e9), baseline=money, optimized=money)
@example(teu=1.5, baseline=5e-324, optimized=3.044118094820481e-211)
def test_savings_fraction_independent_of_throughput(teu, baseline, optimized):
    if baseline == 0:
        return
    small = cost_report(teu, CostParameters(baseline, optimized))
    large = cost_report(1000 * teu, CostParameters(baseline, optimized))
    # Below the smallest normal float a product keeps only a few significant
    # bits (1.5 * 5e-324 rounds to 1e-323), so the fractions need not agree.
    for report in (small, large):
        for total in (report.total_baseline, abs(report.total_savings)):
            assume(total == 0 or total >= sys.float_info.min)
    assert math.isclose(
        small.savings_fraction, large.savings_fraction, rel_tol=1e-12, abs_tol=1e-12
    )


@given(teu=st.floats(min_value=1, max_value=1e9), baseline=money, optimized=money)
def test_savings_sign_consistency(teu, baseline, optimized):
    if baseline == 0:
        return
    report = cost_report(teu, CostParameters(baseline, optimized))
    assert (report.savings_fraction > 0) == (optimized < baseline)
