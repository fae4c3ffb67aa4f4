import gc
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


@pytest.mark.parametrize(
    "grid, total",
    [
        ("1e300,1e300\n1e300,1e300\n", "2e+300"),
        ("5e14,1e15\n1e15,5e14\n", "1000000000000000.0"),
        ("5e14,1e15\n1e15,499999999999999\n", "999999999999999"),
    ],
)
def test_dispatch_prints_its_total_as_the_report_does(tmp_path, capsys, grid, total):
    path = tmp_path / "grid.csv"
    path.write_text(grid)
    assert main(["dispatch", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"total {total}"
    matrix = [[float(cell) for cell in line.split(",")] for line in grid.splitlines()]
    assert main(["run", str(write_scenario(tmp_path, dispatch_matrix=matrix)), "--format", "csv"]) == 0
    captured = capsys.readouterr()
    assert f"\ndispatch_total_cost,{total},km\n" in captured.out
    assert f"  dispatch: total {total} (" in captured.err


def test_presets_lists_bundled_scenarios(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    assert "yangshan-phase4" in out
    assert "yangshan-phase4-stated-shares" in out


def test_unknown_preset_is_a_validation_error(capsys):
    assert main(["run", "atlantis"]) == 1
    assert "unknown preset" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "validate", "dispatch"])
def test_a_directory_is_a_read_error(tmp_path, monkeypatch, capsys, command):
    (tmp_path / "somedir").mkdir()
    monkeypatch.chdir(tmp_path)
    assert main([command, "./somedir"]) == 1
    assert capsys.readouterr().err.startswith("cli: cannot read input: [Errno 21] Is a directory")


def test_a_preset_name_wins_over_a_directory(tmp_path, monkeypatch, capsys):
    (tmp_path / "yangshan-phase4").mkdir()
    monkeypatch.chdir(tmp_path)
    assert main(["validate", "yangshan-phase4"]) == 0
    assert capsys.readouterr().out == "valid: yangshan-phase4\n"


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
    # dataclasses and what it imports (inspect, ast, dis, tokenize) cost ~30 ms,
    # and enum brings functools and collections, which runpy loads anyway under -m
    src = os.path.dirname(os.path.dirname(os.path.abspath(portsim.__file__)))
    unwanted = {
        "pathlib", "typing", "fractions", "dataclasses", "inspect", "ast", "dis", "tokenize",
        "argparse", "json", "re", "enum", "functools", "collections",
    }
    for module in ("portsim.cli", "portsim", "portsim.cli, portsim.presets, portsim.report"):
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import {module}; "
            f"print(sorted({unwanted!r} & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-E", "-S", "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "[]", module


PARSER_MODULES = {"argparse", "gettext", "locale", "shutil", "enum"}
JSON_MODULES = {"json", "re"}
SCENARIO_MODULES = {"portsim.scenario", "portsim.report"}


@pytest.mark.parametrize(
    "args, unwanted",
    [
        (["run", "yangshan-phase4"], PARSER_MODULES | JSON_MODULES),
        (["run", "yangshan-phase4", "--format", "csv"], PARSER_MODULES | JSON_MODULES),
        (["validate", "yangshan-phase4"], PARSER_MODULES | JSON_MODULES),
        (["run", "scenario.json"], PARSER_MODULES | JSON_MODULES),
        (["presets"], PARSER_MODULES | JSON_MODULES | SCENARIO_MODULES),
        (["dispatch", "grid.csv"], PARSER_MODULES | JSON_MODULES | SCENARIO_MODULES),
        (["run", "scenario.json", "--format", "csv"], PARSER_MODULES | JSON_MODULES),
        (["validate", "scenario.json"], PARSER_MODULES | JSON_MODULES),
    ],
)
def test_each_subcommand_imports_only_what_it_runs(tmp_path, args, unwanted):
    # a command's own imports are most of its cost: argparse alone pulls in gettext,
    # locale and shutil (with zlib, bz2 and lzma), json pulls in re, and re and
    # argparse pull in enum; a valid scenario file is read without json
    write_scenario(tmp_path)
    (tmp_path / "grid.csv").write_text("420,350,450\n450,400,280\n420,360,390\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(portsim.__file__)))
    code = (
        f"import atexit, runpy, sys; sys.path.insert(0, {src!r}); sys.argv = ['portsim', *{args!r}]\n"
        f"atexit.register(lambda: print(sorted({unwanted!r} & set(sys.modules))))\n"
        "runpy.run_module('portsim.cli', run_name='__main__')"
    )
    proc = subprocess.run(
        [sys.executable, "-E", "-S", "-c", code], cwd=tmp_path, capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout.splitlines()[-1]) == (0, "[]"), proc.stderr


def run_cold_counting_compiles(tmp_path, args):
    """``portsim ARGS`` in a fresh ``-S`` interpreter; its last stdout line counts the generated
    source it compiled and names the unwanted modules it loaded. Source compiled into a cold
    bytecode cache is named by its file, generated source by "<string>"."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(portsim.__file__)))
    unwanted = {"inspect", "dataclasses", "encodings.utf_8_sig"}
    code = (
        "import atexit, runpy, sys\n"
        "generated = []\n"
        "sys.addaudithook(lambda event, args: event == 'compile' and args[1] == '<string>'"
        " and generated.append(args[0]))\n"
        f"sys.path.insert(0, {src!r}); sys.argv = ['portsim', *{args!r}]\n"
        f"atexit.register(lambda: print(len(generated), sorted({unwanted!r} & set(sys.modules))))\n"
        "runpy.run_module('portsim.cli', run_name='__main__')"
    )
    return subprocess.run(
        [sys.executable, "-E", "-S", "-c", code], cwd=tmp_path, capture_output=True, text=True
    )


@pytest.mark.parametrize(
    "args",
    [["run", "yangshan-phase4"], ["validate", "scenario.json"], ["dispatch", "grid.csv"]],
)
def test_a_cold_command_compiles_no_generated_source(tmp_path, args):
    # a record builds its first instances without compiling an __init__; the grid starts
    # with a UTF-8 BOM, read without the utf_8_sig codec
    write_scenario(tmp_path)
    (tmp_path / "grid.csv").write_text("\ufeff420,350,450\n450,400,280\n420,360,390\n", "utf-8")
    proc = run_cold_counting_compiles(tmp_path, args)
    assert (proc.returncode, proc.stdout.splitlines()[-1]) == (0, "0 []"), proc.stderr


def _without_unit_energy(doc):
    del doc["throughput"]["unit_energy"]


def _pv_without_efficiency(doc):
    doc["pv_arrays"] = [{"panel_area": 5000.0}]


@pytest.mark.parametrize(
    "defect, message",
    [
        (_without_unit_energy, "scenario: missing required key 'unit_energy' in throughput"),
        (_pv_without_efficiency, "scenario: missing required key 'module_efficiency' in pv_arrays[0]"),
    ],
    ids=["throughput", "pv-array"],
)
def test_a_cold_rejection_of_a_missing_key_compiles_no_generated_source(tmp_path, defect, message):
    # a single record's keys are tested before its class is called, which would compile the
    # class's __init__ on a call it cannot bind; an asset's create raises without compiling
    doc = json.loads(json.dumps(portsim.PRESETS["yangshan-phase4"]))
    defect(doc)
    (tmp_path / "scenario.json").write_text(json.dumps(doc))
    proc = run_cold_counting_compiles(tmp_path, ["validate", "scenario.json"])
    assert (proc.returncode, proc.stdout.splitlines()[-1]) == (1, "0 []"), proc.stderr
    assert proc.stderr == message + "\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "missing subcommand (choose from validate, run, dispatch, presets)"),
        (["frobnicate"], "unknown subcommand 'frobnicate' (choose from validate, run, dispatch, presets)"),
        (["run"], "missing INPUT"),
        (["validate", "a.json", "b.json"], "unexpected argument 'b.json'"),
        (["presets", "extra"], "unexpected argument 'extra'"),
        (["run", "yangshan-phase4", "--bogus"], "unrecognized option '--bogus'"),
        (["dispatch", "grid.csv", "--format", "csv"], "unrecognized option '--format'"),
        (["run", "yangshan-phase4", "-x"], "unrecognized option '-x'"),
        (["run", "yangshan-phase4", "--output"], "--output expects a value (PATH)"),
        (["run", "yangshan-phase4", "--format", "xml"], "--format expects json or csv, got 'xml'"),
        (["run", "yangshan-phase4", "--weights", "1,2"],
         "--weights expects 4 comma-separated numbers, got 2"),
        (["run", "yangshan-phase4", "--shares", "a,b,c"], "--shares expects numbers, got 'a,b,c'"),
    ],
)
def test_usage_error_is_a_usage_line_and_one_error_line(capsys, argv, message):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error, rest = captured.err.split("\n", 2)
    assert usage.startswith("usage: portsim ") and rest == ""
    assert error == f"portsim: error: {message}"


def test_usage_line_is_that_of_the_subcommand(capsys):
    main_usage = "usage: portsim [-h] {validate,run,dispatch,presets} ..."
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    assert capsys.readouterr().err.startswith(main_usage + "\n")
    with pytest.raises(SystemExit):
        main(["dispatch"])
    assert capsys.readouterr().err.startswith("usage: portsim dispatch [-h] [--output PATH] INPUT\n")


@pytest.mark.parametrize(
    "argv, listed",
    [
        (["--help"], ["validate", "run", "dispatch", "presets"]),
        (["-h"], ["validate", "run", "dispatch", "presets"]),
        (["run", "--help"], ["INPUT", "--format {json,csv}", "--output PATH", "--weights WE,WN,WD,WR",
                             "--shares A,B,C"]),
        (["run", "yangshan-phase4", "--he"], ["--format {json,csv}"]),
        (["dispatch", "-h"], ["INPUT", "--output PATH"]),
    ],
)
def test_help_goes_to_stdout_and_exits_0(capsys, argv, listed):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("usage: portsim ")
    for item in [*listed, "-h, --help"]:
        assert f"\n  {item} " in captured.out


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "yangshan-phase4", "--format=csv"],
        ["run", "--format", "csv", "yangshan-phase4"],
        ["run", "yangshan-phase4", "--form", "csv"],
        ["run", "--f=csv", "yangshan-phase4"],
    ],
)
def test_option_spellings_give_the_same_bytes(capsysbinary, argv):
    assert main(["run", "yangshan-phase4", "--format", "csv"]) == 0
    expected = capsysbinary.readouterr()
    assert expected.out.startswith(b"metric,value,unit\n")
    assert main(argv) == 0
    assert capsysbinary.readouterr() == expected


def test_an_option_value_may_start_with_a_dash(capsys):
    # the word after an option is its value, so the negative weight reaches the scenario check
    assert main(["run", "yangshan-phase4", "--weights", "-1,0,0,0"]) == 1
    err = one_line_error(capsys)
    assert err == "scenario: objective_weights.w_emissions must be non-negative, got -1\n"


@pytest.mark.parametrize(
    "weights, message",
    [  # the terms sum past the float range, or two of them are inf and -inf
        ("2e302,2e302,0,0", "objective.total is inf: report numbers must be finite"),
        ("1,1,1e306,1e306", "objective.total is nan: report numbers must be finite"),
    ],
    ids=["past-range", "inf-minus-inf"],
)
def test_an_objective_total_past_the_float_range_is_a_one_line_error(capsys, weights, message):
    assert main(["run", "yangshan-phase4", "--weights", weights]) == 1
    assert one_line_error(capsys) == f"scenario: {message}\n"


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


def test_invalid_json_in_a_fresh_interpreter_is_a_one_line_error(tmp_path):
    # a cold command has not loaded json, which the C scanner needs for its syntax errors
    # before Python 3.12; the error is json's own
    (tmp_path / "bad.json").write_text('{"name": "x", "shares": {')
    src = os.path.dirname(os.path.dirname(os.path.abspath(portsim.__file__)))
    code = (
        f"import runpy, sys; sys.path.insert(0, {src!r}); sys.argv = ['portsim', 'validate', 'bad.json']\n"
        "runpy.run_module('portsim.cli', run_name='__main__')"
    )
    proc = subprocess.run(
        [sys.executable, "-E", "-S", "-c", code], cwd=tmp_path, capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        "scenario: invalid JSON: Expecting property name enclosed in double quotes: "
        "line 1 column 26 (char 25)\n"
    )


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



def write_inputs(tmp_path):
    """The files the commands below read; the two ``latin1`` files are not UTF-8 text."""
    scenario = write_scenario(tmp_path)
    grid = tmp_path / "grid.csv"
    grid.write_text("420,350,450\n450,400,280\n420,360,390\n")
    (tmp_path / "latin1.json").write_bytes(b"\xff" + scenario.read_bytes())
    (tmp_path / "latin1.csv").write_bytes(b"\xff" + grid.read_bytes())


@pytest.mark.parametrize(
    "argv, module",
    [(["validate", "latin1.json"], "scenario"), (["run", "latin1.json"], "scenario"),
     (["dispatch", "latin1.csv"], "dispatch")],
)
def test_a_file_that_is_not_utf8_is_a_one_line_error(tmp_path, monkeypatch, capsys, argv, module):
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    reason = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    assert one_line_error(capsys) == f"{module}: not UTF-8 text: {reason}\n"


def cold_command(tmp_path, args, *flags, prelude="", stdout=subprocess.PIPE, **kwargs):
    """``python -m portsim.cli ARGS`` in a fresh interpreter, run from ``tmp_path``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(portsim.__file__)))
    code = (
        f"import runpy, sys; sys.path.insert(0, {src!r}); sys.argv = ['portsim', *{args!r}]\n"
        f"{prelude}runpy.run_module('portsim.cli', run_name='__main__')"
    )
    return subprocess.run([sys.executable, "-E", "-S", *flags, "-c", code], cwd=tmp_path,
                          stdout=stdout, **{"stderr": subprocess.PIPE, **kwargs})


def run_main(args):
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


#: (arguments, exit code): every way out of ``main``
COMMANDS = [
    (["run", "yangshan-phase4"], 0),
    (["run", "scenario.json", "--format", "csv"], 0),
    (["validate", "scenario.json"], 0),
    (["dispatch", "grid.csv"], 0),
    (["presets"], 0),
    (["run", "--help"], 0),
    (["validate", "no-such-preset"], 1),
    (["dispatch", "missing.csv"], 1),
    (["validate", "latin1.json"], 1),
    (["run", "yangshan-phase4", "--format", "xml"], 2),
]


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
@pytest.mark.parametrize("args, code", COMMANDS)
def test_main_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch, capsys, args, code, enabled):
    # only the entrypoint, which owns the process, freezes what lives until exit
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        frozen = gc.get_freeze_count()
        assert run_main(args) == code
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("args, code", COMMANDS)
def test_a_cold_command_freezes_and_says_what_main_says(tmp_path, monkeypatch, capsysbinary, args, code):
    write_inputs(tmp_path)
    at_exit = (
        "import atexit, gc\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n"
    )
    proc = cold_command(tmp_path, args, prelude=at_exit)
    stderr, _, frozen = proc.stderr.rpartition(b"frozen ")
    assert int(frozen) > 0
    monkeypatch.chdir(tmp_path)
    assert run_main(args) == code
    captured = capsysbinary.readouterr()
    assert (proc.returncode, proc.stdout, stderr) == (code, captured.out, captured.err)


@pytest.mark.parametrize("args", [["run", "yangshan-phase4"], ["dispatch", "grid.csv"]])
def test_a_cold_command_writes_its_output_file_whole(tmp_path, monkeypatch, capsysbinary, args):
    # the exit flushes only stdout and stderr, so the --output file must be closed by then
    write_inputs(tmp_path)
    proc = cold_command(tmp_path, [*args, "--output", "report.out"])
    monkeypatch.chdir(tmp_path)
    assert main(args) == 0
    assert (proc.returncode, proc.stdout) == (0, b""), proc.stderr
    assert (tmp_path / "report.out").read_bytes() == capsysbinary.readouterr().out


WRITING_COMMANDS = [
    ["run", "yangshan-phase4"],
    ["run", "scenario.json", "--format", "csv"],
    ["validate", "yangshan-phase4"],
    ["dispatch", "grid.csv"],
    ["presets"],
    ["--help"],
    ["run", "--help"],
]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("flags", [(), ("-u",)], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args", WRITING_COMMANDS)
def test_a_full_stdout_is_exit_1_and_one_line(tmp_path, args, flags):
    # buffered, the write fails at its flush and its bytes stay in the buffer, which the
    # flush at shutdown would retry: exit 120 and two more lines; unbuffered, it fails at once
    write_inputs(tmp_path)
    with open("/dev/full", "wb") as full:
        proc = cold_command(tmp_path, args, *flags, stdout=full)
    assert proc.returncode == 1
    assert re.fullmatch(rb"cli: cannot write output: \[Errno \d+\] [^\n]+\n", proc.stderr), proc.stderr


class FullStream:
    """A stream whose every write fails, as a full disk's does."""

    def write(self, text):
        raise OSError(28, "No space left on device")

    def flush(self):
        raise OSError(28, "No space left on device")


#: (arguments, exit code) of commands that write to stderr
STDERR_COMMANDS = [
    (["run", "yangshan-phase4"], 1),  # the summary
    (["run", "scenario.json", "--format", "csv"], 1),
    (["validate", "no-such-preset"], 1),  # an error
    (["dispatch", "missing.csv"], 1),
    (["run", "yangshan-phase4", "--format", "xml"], 2),  # a usage error
]


@pytest.mark.parametrize("args, code", STDERR_COMMANDS)
def test_a_stderr_that_cannot_be_written_is_an_exit_code_alone(tmp_path, monkeypatch, capsysbinary,
                                                                args, code):
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    run_main(args)
    written = capsysbinary.readouterr().out
    monkeypatch.setattr(sys, "stderr", FullStream())
    assert run_main(args) == code  # no exception leaves main
    assert capsysbinary.readouterr().out == written  # the report still goes out whole


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("args, code", STDERR_COMMANDS)
def test_a_full_stderr_is_an_exit_code_alone(tmp_path, args, code):
    write_inputs(tmp_path)
    with open("/dev/full", "wb") as full:
        proc = cold_command(tmp_path, args, stderr=full)
    written = cold_command(tmp_path, args).stdout
    assert (proc.returncode, proc.stdout) == (code, written)


@pytest.mark.parametrize("args", WRITING_COMMANDS)
def test_a_closed_stdout_is_exit_1_and_one_line(tmp_path, args):
    # a process started without fd 1 has sys.stdout set to None
    write_inputs(tmp_path)
    proc = cold_command(tmp_path, args, stdout=None, preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (1, b"cli: cannot write output: stdout is closed\n")
