import gc
import json
import math
import types

import pytest

from portsim import (
    CostMatrix,
    DispatchError,
    SectorShares,
    ValidationError,
    get_preset,
    load_cost_matrix,
    load_scenario,
    report_from_json,
    report_to_dict,
    run_scenario,
    scenario_from_dict,
    scenario_from_json,
    scenario_to_dict,
)
from portsim._record import replace
from portsim.report import report_from_dict


def yangshan_document():
    return scenario_to_dict(get_preset("yangshan-phase4"))  # a matrix and notes, so it is worth keeping


def shares_sum_document():
    raw = yangshan_document()
    raw["shares"]["buildings_share"] = 0.5
    return raw


def nan_report_document():
    raw = report_to_dict(run_scenario(get_preset("yangshan-phase4")))
    raw["objective"]["total"] = math.nan
    return raw


def overflow_document():
    raw = scenario_to_dict(get_preset("yangshan-phase4"))  # every input is in range; the report overflows
    raw["throughput"] = {"teu_per_year": 1e10, "unit_energy": 1e10}
    raw["factors"]["buildings_factor"] = 1e300
    return raw


def even_shares(scenario):
    return replace(scenario, shares=SectorShares(0.5, 0.5, 0.5))


def negative_cell_rows():
    return [[4.0, 1.0, 7.0], [2.0, -3.0, 5.0], [6.0, 0.0, 2.0]]


def itself(raw):
    return raw


def json_text(raw):
    return json.dumps(raw, indent=2)


def truncated(raw):
    return json_text(raw)[:-40]


def not_utf8(raw):
    return json_text(raw).encode("utf-8") + b"\xff"


def grid(rows):
    return "".join(",".join(map(repr, row)) + "\n" for row in rows)


def grid_with_a_word(rows):
    return grid(rows).replace("5.0", "five")


def grid_not_utf8(rows):
    return grid(rows).encode("utf-8") + b"\xff"


#: (reader, the document it rejects, what the reader is given, made from that document). The two
#: file readers are given a file that holds it.
CASES = {
    "shares-sum-dict": (scenario_from_dict, shares_sum_document, itself),
    "shares-sum-json": (scenario_from_json, shares_sum_document, json_text),
    "shares-sum-file": (load_scenario, shares_sum_document, json_text),
    "truncated-json": (scenario_from_json, shares_sum_document, truncated),
    "truncated-file": (load_scenario, shares_sum_document, truncated),
    "not-utf8-file": (load_scenario, shares_sum_document, not_utf8),
    "nan-report-dict": (report_from_dict, nan_report_document, itself),
    "nan-report-json": (report_from_json, nan_report_document, json_text),
    "truncated-report-json": (report_from_json, nan_report_document, truncated),
    "negative-cell-grid": (load_cost_matrix, negative_cell_rows, grid),
    "word-in-grid": (load_cost_matrix, negative_cell_rows, grid_with_a_word),
    "not-utf8-grid": (load_cost_matrix, negative_cell_rows, grid_not_utf8),
    "overflow-report": (run_scenario, overflow_document, scenario_from_dict),
    "negative-cell-matrix": (CostMatrix, negative_cell_rows, itself),
    "replace-shares": (even_shares, yangshan_document, scenario_from_dict),
}


def is_record(obj):
    return type(obj).__module__.startswith("portsim.") and hasattr(type(obj), "__match_args__")


def reachable(error, readers=(), held=()):
    """Every object reachable from ``error`` by ``gc.get_referents``, entering no module,
    function, code object or class, no frame but the reader's (``readers``, their code
    objects) and nothing in ``held``: the caller's own frame holds the input it passed,
    and so does whatever called it."""
    seen, stack, found = {*map(id, held)}, [error], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (types.ModuleType, types.FunctionType, types.CodeType, type)):
            continue
        if isinstance(obj, types.FrameType) and obj.f_code not in readers:
            continue
        seen.add(id(obj))
        found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


@pytest.mark.parametrize("case", CASES)
def test_a_kept_error_holds_no_input_it_rejected(tmp_path, case):
    reader, build, form = CASES[case]
    document = build()
    given, text = form(document), None
    if reader in (load_scenario, load_cost_matrix):
        text, given = given, tmp_path / "input"
        given.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    try:
        reader(given)
    except (ValidationError, DispatchError) as exc:
        error = exc
    else:
        pytest.fail(f"{case} was accepted")

    tb_frames = []
    tb = error.__traceback__
    while tb is not None:
        tb_frames.append(tb.tb_frame)
        tb = tb.tb_next
    frames = [frame.f_code for frame in tb_frames]
    assert frames[0] is test_a_kept_error_holds_no_input_it_rejected.__code__
    building = None
    if isinstance(reader, type) or reader is even_shares:
        # A record's constructor raises from its __init__, not from the check that __init__ calls.
        # The instance it was building keeps only its arguments, as its fields; the caller holds
        # what it passed too, and the record's class its defaults.
        assert [code.co_name for code in frames[1:]] == (
            ["__init__"] if isinstance(reader, type) else ["even_shares", "replace", "__init__"]
        )
        building = tb_frames[-1].f_locals["self"]
        held = [given, *filter(is_record, vars(type(building)).values())]
    else:
        assert frames[1:] == [reader.__code__]
        held = []
    assert error.__context__ is None or not error.__suppress_context__

    # A record the reader built from its input is kept only if it is the one being built, one of
    # that one's fields, or the caller's own (a Scenario, and the records in it).
    given_records = [obj for obj in reachable(given) + reachable(building) if is_record(obj)]
    shown = repr(document)  # a NaN is not equal to itself, but it reads as itself
    for obj in reachable(error, frames[1:], held):
        assert obj is not document
        if is_record(obj):
            assert any(obj is kept for kept in given_records), f"{case}: the error keeps {obj!r}"
        if type(obj) is type(document) and len(obj) == len(document):
            assert repr(obj) != shown, f"{case}: the error keeps its parsed document"
        if text is not None:
            assert obj != text, f"{case}: the error keeps the file's text"
