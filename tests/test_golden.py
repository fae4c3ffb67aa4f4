"""Reports must stay byte-identical to the committed golden files.

``tests/golden`` holds, for both presets and nine scenario files, the JSON
and CSV reports and the summary as the program produced them before
scenarios were checked on construction, except ``escapes.summary.txt``,
written again when the summary began escaping control characters in the
scenario name and notes, and the ``many-assets`` cases (24 PV arrays and
16 turbines with a stated supply; 16 and 24 with the supply derived from
them), written just before asset records were read in one walk. A case
named ``<case>`` reads ``<case>.scenario.json`` when that file exists and
the preset otherwise.
"""

import os

import pytest

from portsim import get_preset, load_scenario, run_scenario, serialize_report, summarize
from portsim.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
PRESET_CASES = ["yangshan-phase4", "yangshan-phase4-stated-shares"]
FILE_CASES = sorted(
    name[: -len(".scenario.json")]
    for name in os.listdir(GOLDEN)
    if name.endswith(".scenario.json")
)


def golden(name):
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        return fh.read()


def source(case):
    path = os.path.join(GOLDEN, f"{case}.scenario.json")
    return path if os.path.exists(path) else case


def test_every_case_is_covered():
    assert len(FILE_CASES) == 9


@pytest.mark.parametrize("case", PRESET_CASES + FILE_CASES)
def test_library_reports_match_golden(case):
    scenario = get_preset(case) if case in PRESET_CASES else load_scenario(source(case))
    report = run_scenario(scenario)
    assert serialize_report(report, "json") == golden(f"{case}.json")
    assert serialize_report(report, "csv") == golden(f"{case}.csv")
    assert (summarize(report) + "\n").encode() == golden(f"{case}.summary.txt")


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("case", PRESET_CASES + FILE_CASES)
def test_cli_reports_match_golden(case, fmt, tmp_path, capsys):
    out = tmp_path / f"report.{fmt}"
    assert main(["run", source(case), "--format", fmt, "--output", str(out)]) == 0
    assert out.read_bytes() == golden(f"{case}.{fmt}")
    assert capsys.readouterr().err.encode() == golden(f"{case}.summary.txt")
