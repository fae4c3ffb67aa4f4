import json
import os
import re
import subprocess
import sys

import pytest

import portsim
from portsim import get_preset, run_scenario, serialize_report
from portsim.cli import main
from conftest import make_scenario_dict


def write_scenario(tmp_path, name="scenario.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(make_scenario_dict(**overrides)))
    return path


def test_run_preset_csv(capsys):
    assert main(["run", "yangshan-phase4", "--format", "csv"]) == 0
    captured = capsys.readouterr()
    assert "optimized_total_mwh,708750,MWh" in captured.out
    assert "scenario: yangshan-phase4" in captured.err  # summary goes to stderr


def test_run_data_stream_is_exactly_the_report(tmp_path):
    out = tmp_path / "report.json"
    assert main(["run", "yangshan-phase4", "--output", str(out)]) == 0
    expected = serialize_report(run_scenario(get_preset("yangshan-phase4")), "json")
    assert out.read_bytes() == expected


def test_run_is_idempotent(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(["run", "yangshan-phase4", "--format", "csv", "--output", str(first)]) == 0
    assert main(["run", "yangshan-phase4", "--format", "csv", "--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_run_scenario_file(tmp_path, capsys):
    path = write_scenario(tmp_path)
    assert main(["run", str(path)]) == 0
    raw = json.loads(capsys.readouterr().out)
    assert raw["scenario_name"] == "test-port"
    assert raw["energy"]["baseline_total"] == 100000.0


def test_validate_reports_share_violation(tmp_path, capsys):
    path = write_scenario(
        tmp_path,
        name="bad-shares.json",
        shares={"equipment_share": 0.5, "transport_share": 0.3, "buildings_share": 0.3},
    )
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert "shares sum to 1.1" in captured.err
    assert captured.err.startswith("scenario:")


def test_validate_accepts_preset(capsys):
    assert main(["validate", "yangshan-phase4"]) == 0
    assert "valid: yangshan-phase4" in capsys.readouterr().out


def test_dispatch_solves_reference_matrix(tmp_path, capsys):
    path = tmp_path / "paper-matrix.csv"
    path.write_text("420,350,450\n450,400,280\n420,360,390\n")
    assert main(["dispatch", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == "0 -> 1\n1 -> 2\n2 -> 0\ntotal 1050\n"


def test_dispatch_reports_unassigned_rows(tmp_path, capsys):
    path = tmp_path / "tall.csv"
    path.write_text("1,2\n2,4\n3,6\n")
    assert main(["dispatch", str(path)]) == 0
    out = capsys.readouterr().out
    assert "2 -> unassigned" in out
    assert "total 4" in out


def test_presets_lists_bundled_scenarios(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    assert "yangshan-phase4" in out
    assert "yangshan-phase4-stated-shares" in out


def test_unknown_preset_is_a_validation_error(capsys):
    assert main(["run", "atlantis"]) == 1
    assert "unknown preset" in capsys.readouterr().err


def test_missing_file_is_an_input_error(capsys):
    assert main(["dispatch", "no-such-file.csv"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_bad_weights_format_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "yangshan-phase4", "--weights", "1,2"])
    assert excinfo.value.code == 2


def test_shares_override_changes_emissions(capsys):
    # the stated 50/30/20 split drops the baseline to 551,250 kg
    assert main(["run", "yangshan-phase4", "--shares", "0.5,0.3,0.2"]) == 0
    raw = json.loads(capsys.readouterr().out)
    assert raw["emissions"]["baseline_emissions"] == 551250.0


def test_invalid_shares_override_fails_validation(capsys):
    assert main(["run", "yangshan-phase4", "--shares", "0.5,0.3,0.3"]) == 1
    assert "shares sum to 1.1" in capsys.readouterr().err


def test_weights_override_changes_score(capsys):
    assert main(["run", "yangshan-phase4", "--weights", "1,1,1,0"]) == 0
    raw = json.loads(capsys.readouterr().out)
    assert raw["objective"]["total"] == 559125.0 + 708750.0 + 1050.0
    assert raw["objective"]["renewables_term"] == 0.0


def test_existing_file_beats_preset_name(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_scenario(tmp_path, name="yangshan-phase4")
    assert main(["validate", "yangshan-phase4"]) == 0
    assert "valid: test-port" in capsys.readouterr().out


def test_cli_import_leaves_out_pathlib_and_typing():
    # every command starts a fresh interpreter, which pays for each import;
    # dataclasses and what it imports (inspect, ast, dis, tokenize) cost ~30 ms
    src = os.path.dirname(os.path.dirname(os.path.abspath(portsim.__file__)))
    unwanted = {
        "pathlib", "typing", "fractions", "dataclasses", "inspect", "ast", "dis", "tokenize"
    }
    for module in ("portsim.cli", "portsim"):
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import {module}; "
            f"print(sorted({unwanted!r} & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-E", "-S", "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "[]", module


def one_line_error(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    return captured.err


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"throughput": {"teu_per_year": 10**400, "unit_energy": 1.0}}, "throughput.teu_per_year"),
        ({"dispatch_matrix": [[1, 2], [3, 10**400]]}, r"dispatch_matrix\[1\]\[1\]"),
    ],
)
def test_integer_beyond_float_range_is_a_one_line_error(tmp_path, capsys, overrides, field):
    path = write_scenario(tmp_path, **overrides)
    assert main(["run", str(path)]) == 1
    err = one_line_error(capsys)
    message = "must be finite, got an integer too large for a float"
    assert re.fullmatch(f"scenario: {field} {message}\n", err)


@pytest.mark.parametrize(
    "text", ['{"name": ' + "9" * 5000 + "}", "[" * 100_000], ids=["digits", "nesting"]
)
def test_json_beyond_parser_limits_is_invalid_json(tmp_path, capsys, text):
    path = tmp_path / "limits.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1
    assert one_line_error(capsys).startswith("scenario: invalid JSON: ")


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "factors, costs, field",
    [
        ({"buildings_factor": 1e300}, {}, "emissions.baseline_emissions"),
        ({}, {"baseline_cost_per_teu": 1e300}, "costs.total_baseline"),
    ],
)
def test_overflowing_report_is_rejected(tmp_path, capsys, fmt, factors, costs, field):
    raw = make_scenario_dict(throughput={"teu_per_year": 1e10, "unit_energy": 1e10})
    raw["factors"].update(factors)
    raw["costs"].update(costs)
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), "--format", fmt]) == 1
    assert one_line_error(capsys).startswith(f"scenario: {field} is inf: ")


def test_dispatch_total_past_the_float_range_is_a_one_line_error(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text("1e308,1e308\n1e308,1e308\n")
    assert main(["dispatch", str(path)]) == 1
    assert one_line_error(capsys) == "dispatch: total cost overflows\n"


def test_run_with_dispatch_total_past_the_float_range_is_a_one_line_error(tmp_path, capsys):
    path = write_scenario(tmp_path, dispatch_matrix=[[1e308, 1e308], [1e308, 1e308]])
    assert main(["run", str(path)]) == 1
    assert one_line_error(capsys) == "scenario: assignment.total_cost: total cost overflows\n"


def test_write_error_has_its_own_message(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "x.json"
    assert main(["run", "yangshan-phase4", "--output", str(out)]) == 1
    assert one_line_error(capsys).startswith("cli: cannot write output: ")
