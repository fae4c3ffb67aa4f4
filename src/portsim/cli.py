"""Command-line interface.

Subcommands: ``validate`` a scenario file, ``run`` a simulation, solve a
standalone ``dispatch`` problem from a CSV grid, and list bundled
``presets``. For ``validate``, ``run`` and ``dispatch`` the input is a file
path; ``validate`` and ``run`` also accept a preset name (an existing file
of the same name wins, and a preset name wins over a directory).

The ``run`` data stream (stdout or ``--output``) carries exactly the
serialized report bytes; the human-readable summary and all error messages
go to stderr. Exit codes: 0 success (``--help`` included), 1 validation,
input or output error, 2 usage error, reported as the usage line and one
``portsim: error: ...`` line.

Each command starts a fresh interpreter, so a subcommand imports only what
it runs, and the ``_COMMANDS`` table drives a small parser in place of
``argparse``. Options go on either side of the input, as ``--opt value``,
``--opt=value`` or a unique prefix (``--form csv``); a value is taken as
given, even when it starts with ``-``.
"""

from __future__ import annotations

import os
import sys

from .errors import PortsimError

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Sequence
    from .scenario import Scenario


def _comma_floats(flag: str, names: tuple[str, ...]):
    def parse(text: str) -> dict[str, float]:
        parts = text.split(",")
        if len(parts) != len(names):
            raise ValueError(f"{flag} expects {len(names)} comma-separated numbers, got {len(parts)}")
        try:
            return dict(zip(names, map(float, parts)))
        except ValueError:
            raise ValueError(f"{flag} expects numbers, got {text!r}") from None
    return parse


def _report_format(text: str) -> str:
    if text not in ("json", "csv"):
        raise ValueError(f"--format expects json or csv, got {text!r}")
    return text


def _load_input(name_or_path: str) -> Scenario:
    """A file wins over a preset of its name, and a preset over any other path that exists."""
    if not os.path.isfile(name_or_path):
        from .presets import PRESETS, get_preset
        if name_or_path in PRESETS or not os.path.exists(name_or_path):
            return get_preset(name_or_path)
    from .scenario import load_scenario
    return load_scenario(name_or_path)  # a directory, say, fails here as a read error


class _WriteError(PortsimError):
    module = "cli"


def _emit(data: bytes, output: str | None = None) -> None:
    """Write ``data`` to ``output``, or to stdout and flush it; every data write goes here."""
    if not output and sys.stdout is None:  # the process was started with its stdout closed
        raise _WriteError("cannot write output: stdout is closed")
    try:
        if output:
            with open(output, "wb") as fh:
                fh.write(data)
        else:
            sys.stdout.buffer.write(data)
            sys.stdout.buffer.flush()
    except OSError as exc:
        raise _WriteError(f"cannot write output: {exc}") from None


def _cmd_validate(source: str) -> int:
    scenario = _load_input(source)
    _emit(f"valid: {scenario.name}\n".encode("utf-8"))
    return 0


def _cmd_run(source: str, format: str = "json", output: str | None = None,
             weights: dict[str, float] | None = None, shares: dict[str, float] | None = None) -> int:
    from ._record import replace
    from .report import run_scenario, serialize_report, summarize
    from .scenario import SectorShares, with_shares, with_weights
    # Each override builds a new Scenario, which checks itself.
    scenario = _load_input(source)
    if shares is not None:
        scenario = with_shares(scenario, SectorShares(**shares))
    if weights is not None:
        scenario = with_weights(scenario, replace(scenario.objective_weights, **weights))
    report = run_scenario(scenario)
    _emit(serialize_report(report, format), output)
    try:
        print(summarize(report), file=sys.stderr)
    except OSError as exc:  # a write failure, which main must not report as a read failure
        raise _WriteError(f"cannot write summary: {exc}") from None
    return 0


def _cmd_dispatch(source: str, output: str | None = None) -> int:
    from .dispatch import format_number, load_cost_matrix, solve_assignment
    assignment = solve_assignment(load_cost_matrix(source))
    lines = [f"{i} -> {'unassigned' if j is None else j}" for i, j in enumerate(assignment.mapping)]
    lines.append(f"total {format_number(assignment.total_cost)}")
    _emit(("\n".join(lines) + "\n").encode("utf-8"), output)
    return 0


def _cmd_presets() -> int:
    from .presets import PRESET_SUMMARIES, preset_names
    width = max(len(name) for name in preset_names())
    lines = [f"{name:<{width}}  {PRESET_SUMMARIES[name]}\n" for name in preset_names()]
    _emit("".join(lines).encode("utf-8"))
    return 0


_SCENARIO = "scenario file path or preset name"
_WEIGHTS = ("w_emissions", "w_energy", "w_dispatch", "w_renewables")
_SHARES = ("equipment_share", "transport_share", "buildings_share")

#: subcommand -> (its function, help, help of its INPUT or None, options). An option
#: is ``--name: (metavar, parse, help)``; its value is the function's ``name`` argument.
_COMMANDS = {
    "validate": (_cmd_validate, "validate a scenario file or preset", _SCENARIO, {}),
    "run": (_cmd_run, "run a scenario and emit its report", _SCENARIO, {
        "--format": ("{json,csv}", _report_format, "report format (default: json)"),
        "--output": ("PATH", str, "write the report to PATH instead of stdout"),
        "--weights": ("WE,WN,WD,WR", _comma_floats("--weights", _WEIGHTS), "objective weights"),
        "--shares": ("A,B,C", _comma_floats("--shares", _SHARES), "equipment,transport,buildings shares"),
    }),
    "dispatch": (_cmd_dispatch, "solve an assignment problem from a CSV cost grid", "CSV cost grid",
                 {"--output": ("PATH", str, "write the solution to PATH instead of stdout")}),
    "presets": (_cmd_presets, "list bundled scenarios", None, {}),
}


def _help(name: str | None) -> str:
    """The help of ``portsim`` or of one subcommand; its first line is the usage."""
    if name is None:
        usage = f"usage: portsim [-h] {{{','.join(_COMMANDS)}}} ..."
        about = "Deterministic energy, emissions, dispatch and cost simulation for ports."
        rows = [(command, spec[1]) for command, spec in _COMMANDS.items()]
    else:
        _, about, source, options = _COMMANDS[name]
        rows = [(f"{option} {metavar}", text) for option, (metavar, _, text) in options.items()]
        usage = " ".join([f"usage: portsim {name} [-h]", *(f"[{left}]" for left, _ in rows)])
        rows = [("INPUT", source)] + rows if source else rows
        usage += " INPUT" if source else ""
    rows.append(("-h, --help", "show this help message and exit"))
    return "\n".join([usage, "", about, "", *(f"  {a:<24}{b}" for a, b in rows)]) + "\n"


def _parse(argv: list[str]) -> tuple:
    """(function, positionals, options) of a command line; exits on help or a usage error."""
    name = argv[0] if argv and argv[0] in _COMMANDS else None
    options, positional, values = _COMMANDS[name][3] if name else {}, [], {}
    try:
        args = iter(argv[1:] if name else argv)
        for arg in args:
            if arg == "-" or not arg.startswith("-"):
                positional.append(arg)
                continue
            option, has_value, value = arg.partition("=")
            matches = [o for o in (*options, "--help") if option[:2] == "--" and o.startswith(option)]
            if option == "-h" or matches == ["--help"]:
                _emit(_help(name).encode("utf-8"))
                raise SystemExit(0)
            if len(matches) != 1:
                raise ValueError(f"unrecognized option {option!r}")
            metavar, parse, _ = options[matches[0]]
            if not has_value and (value := next(args, None)) is None:
                raise ValueError(f"{matches[0]} expects a value ({metavar})")
            values[matches[0][2:]] = parse(value)
        if name is None:
            problem = f"unknown subcommand {positional[0]!r}" if positional else "missing subcommand"
            raise ValueError(f"{problem} (choose from {', '.join(_COMMANDS)})")
        wanted = 1 if _COMMANDS[name][2] else 0
        if len(positional) != wanted:
            extra = positional[wanted:]
            raise ValueError(f"unexpected argument {extra[0]!r}" if extra else "missing INPUT")
    except ValueError as exc:
        usage = _help(name).partition("\n")[0]
        _complain(f"{usage}\nportsim: error: {exc}")
        raise SystemExit(2) from None
    return _COMMANDS[name][0], positional, values


def _complain(message: str) -> None:
    """Print ``message`` to stderr; if stderr cannot take it, the exit code alone tells."""
    try:
        print(message, file=sys.stderr)
    except OSError:
        pass


def main(argv: Sequence[str] | None = None) -> int:
    try:
        command, positional, options = _parse(sys.argv[1:] if argv is None else list(argv))
        return command(*positional, **options)
    except PortsimError as exc:
        _complain(f"{exc.module}: {exc}")
        return 1
    except OSError as exc:  # every write failure is a _WriteError by now
        _complain(f"cli: cannot read input: {exc}")
        return 1


def entrypoint() -> None:
    """Run ``main`` as the whole process and exit with its code.

    ``gc.freeze`` keeps what is alive before ``main`` out of the collections
    that imports set off; ``main`` leaves the collector as it found it. The exit
    runs the atexit handlers and flushes stdout and stderr, as the interpreter's
    would, then ``os._exit`` skips the teardown of the modules, which frees only
    what the exit frees anyway; ``_emit`` has closed any ``--output`` file. A
    failed flush is ignored: ``main`` has reported it, or its code does. Help and
    usage errors exit by ``SystemExit``; any other exception leaves as usual.
    """
    import atexit
    import gc
    gc.freeze()
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    atexit._run_exitfuncs()
    for stream in filter(None, (sys.stdout, sys.stderr)):
        try:
            stream.flush()
        except OSError:
            pass
    os._exit(code)


if __name__ == "__main__":
    entrypoint()
