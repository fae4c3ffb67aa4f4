"""Command-line interface.

Subcommands: ``validate`` a scenario file, ``run`` a simulation, solve a
standalone ``dispatch`` problem from a CSV grid, and list bundled
``presets``. For ``validate``, ``run`` and ``dispatch`` the input is a file
path; ``validate`` and ``run`` also accept a preset name (an existing file
of the same name wins).

The ``run`` data stream (stdout or ``--output``) carries exactly the
serialized report bytes; the human-readable summary and all error messages
go to stderr. Exit codes: 0 success, 1 validation or input error, 2 usage
error.
"""

from __future__ import annotations

import argparse
import os
import sys

from ._record import replace
from .dispatch import load_cost_matrix, solve_assignment
from .errors import PortsimError
from .presets import PRESET_SUMMARIES, get_preset, preset_names
from .report import run_scenario, serialize_report, summarize
from .scenario import Scenario, SectorShares, load_scenario, with_shares, with_weights

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Sequence


def _comma_floats(count: int, flag: str):
    def parse(text: str) -> tuple[float, ...]:
        parts = text.split(",")
        if len(parts) != count:
            raise argparse.ArgumentTypeError(
                f"{flag} expects {count} comma-separated numbers, got {len(parts)}"
            )
        try:
            return tuple(float(p) for p in parts)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{flag} expects numbers, got {text!r}"
            ) from None

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="portsim",
        description="Deterministic energy, emissions, dispatch and cost simulation for ports.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_validate = sub.add_parser("validate", help="validate a scenario file or preset")
    p_validate.add_argument("input", help="scenario file path or preset name")

    p_run = sub.add_parser("run", help="run a scenario and emit its report")
    p_run.add_argument("input", help="scenario file path or preset name")
    p_run.add_argument(
        "--format", choices=("json", "csv"), default="json",
        help="report format on the data stream (default: json)",
    )
    p_run.add_argument("--output", metavar="PATH", help="write the report to PATH instead of stdout")
    p_run.add_argument(
        "--weights", type=_comma_floats(4, "--weights"), metavar="WE,WN,WD,WR",
        help="override the four objective weights",
    )
    p_run.add_argument(
        "--shares", type=_comma_floats(3, "--shares"), metavar="A,B,C",
        help="override the equipment,transport,buildings shares",
    )

    p_dispatch = sub.add_parser("dispatch", help="solve an assignment problem from a CSV cost grid")
    p_dispatch.add_argument("input", help="comma-separated numeric grid, one row per line")
    p_dispatch.add_argument("--output", metavar="PATH", help="write the solution to PATH instead of stdout")

    sub.add_parser("presets", help="list bundled scenarios")

    return parser


def _load_input(name_or_path: str) -> Scenario:
    if os.path.isfile(name_or_path):
        return load_scenario(name_or_path)
    return get_preset(name_or_path)


class _WriteError(PortsimError):
    module = "cli"


def _emit(data: bytes, output: str | None) -> None:
    try:
        if output:
            with open(output, "wb") as fh:
                fh.write(data)
        else:
            sys.stdout.buffer.write(data)
            sys.stdout.buffer.flush()
    except OSError as exc:
        raise _WriteError(f"cannot write output: {exc}") from None


def _cmd_validate(args: argparse.Namespace) -> int:
    scenario = _load_input(args.input)
    print(f"valid: {scenario.name}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    # Each override builds a new Scenario, which checks itself.
    scenario = _load_input(args.input)
    if args.shares is not None:
        scenario = with_shares(
            scenario,
            SectorShares(
                equipment_share=args.shares[0],
                transport_share=args.shares[1],
                buildings_share=args.shares[2],
            ),
        )
    if args.weights is not None:
        scenario = with_weights(
            scenario,
            replace(
                scenario.objective_weights,
                w_emissions=args.weights[0],
                w_energy=args.weights[1],
                w_dispatch=args.weights[2],
                w_renewables=args.weights[3],
            ),
        )
    report = run_scenario(scenario)
    _emit(serialize_report(report, args.format), args.output)
    print(summarize(report), file=sys.stderr)
    return 0


def _cmd_dispatch(args: argparse.Namespace) -> int:
    matrix = load_cost_matrix(args.input)
    assignment = solve_assignment(matrix)
    lines = [
        f"{i} -> {'unassigned' if j is None else j}"
        for i, j in enumerate(assignment.mapping)
    ]
    total = assignment.total_cost
    total_text = str(int(total)) if total == int(total) else repr(total)
    lines.append(f"total {total_text}")
    _emit(("\n".join(lines) + "\n").encode("utf-8"), args.output)
    return 0


def _cmd_presets() -> int:
    width = max(len(name) for name in preset_names())
    for name in preset_names():
        print(f"{name:<{width}}  {PRESET_SUMMARIES[name]}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.subcommand == "validate":
            return _cmd_validate(args)
        if args.subcommand == "run":
            return _cmd_run(args)
        if args.subcommand == "dispatch":
            return _cmd_dispatch(args)
        if args.subcommand == "presets":
            return _cmd_presets()
    except PortsimError as exc:
        print(f"{exc.module}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cli: cannot read input: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled subcommand {args.subcommand!r}")


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
