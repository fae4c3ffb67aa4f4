"""Spans recorded from outside portsim.

Each public function is wrapped at the module attribute where its caller
looks it up, so the program itself is unchanged. Private names are never
hooked. A wrap point in a module the process has not imported, or whose
attribute no longer exists, is skipped: its calls then count as zero,
which is what a change that removes the call should show.
"""

from __future__ import annotations

import sys
import time


def _serialize_name(args: tuple, kwargs: dict) -> str:
    fmt = args[1] if len(args) > 1 else kwargs.get("format")
    return f"report.serialize_{fmt}"


#: (module, attribute, span name). The span name of serialize_report
#: depends on the format argument.
WRAP_POINTS = (
    ("portsim.scenario", "scenario_from_json", "scenario.from_json"),
    ("portsim.scenario", "validate_scenario", "scenario.validate"),
    ("portsim.report", "validate_scenario", "scenario.validate"),
    ("portsim.presets", "validate_scenario", "scenario.validate"),
    ("portsim.cli", "validate_scenario", "scenario.validate"),
    ("portsim.scenario", "with_shares", "scenario.override"),
    ("portsim.scenario", "with_weights", "scenario.override"),
    ("portsim.cli", "with_shares", "scenario.override"),
    ("portsim.cli", "with_weights", "scenario.override"),
    ("portsim.renewables", "annual_generation", "renewables.annual_generation"),
    ("portsim.report", "annual_generation", "renewables.annual_generation"),
    ("portsim.report", "evaluate_energy", "energy.evaluate"),
    ("portsim.report", "evaluate_emissions", "emissions.evaluate"),
    ("portsim.report", "cost_report", "economics.cost_report"),
    ("portsim.report", "score_scenario", "objective.score"),
    ("portsim.report", "run_scenario", "report.run_scenario"),
    ("portsim.cli", "run_scenario", "report.run_scenario"),
    ("portsim.report", "serialize_report", _serialize_name),
    ("portsim.cli", "serialize_report", _serialize_name),
    ("portsim.report", "summarize", "report.summarize"),
    ("portsim.cli", "summarize", "report.summarize"),
    ("portsim.report", "solve_assignment", "dispatch.solve"),
    ("portsim.dispatch", "solve_assignment", "dispatch.solve"),
    ("portsim.cli", "solve_assignment", "dispatch.solve"),
    ("portsim.dispatch", "CostMatrix.from_rows", "dispatch.from_rows"),
    ("portsim.presets", "get_preset", "presets.get_preset"),
    ("portsim.cli", "get_preset", "presets.get_preset"),
)


class Tracer:
    """Records (name, start ns, end ns, parent index) for each span."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._restore: list = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            label = name if isinstance(name, str) else name(args, kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (label, start, end, parent)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr, name in WRAP_POINTS:
            owner = sys.modules.get(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None or leaf not in vars(owner):
                continue
            original = vars(owner)[leaf]
            if isinstance(original, classmethod):
                replacement = classmethod(self.wrap(name, original.__func__))
            else:
                replacement = self.wrap(name, original)
            setattr(owner, leaf, replacement)
            self._restore.append((owner, leaf, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, leaf, original = self._restore.pop()
            setattr(owner, leaf, original)

    def take_ops(self) -> list[tuple[int, dict[str, list[int]]]]:
        """Per root span: (duration ns, {name: [self ns, calls]}) for the
        spans below it, in order; clears the record."""
        spans = self.spans
        self_ns = [end - start for _, start, end, _ in spans]
        root = [0] * len(spans)
        ops: list[tuple[int, dict[str, list[int]]]] = []
        slot: dict[int, int] = {}
        for i, (name, start, end, parent) in enumerate(spans):
            if parent < 0:
                root[i] = i
                slot[i] = len(ops)
                ops.append((end - start, {}))
            else:
                root[i] = root[parent]
                self_ns[parent] -= end - start
        for i, (name, _, _, parent) in enumerate(spans):
            if parent >= 0:
                entry = ops[slot[root[i]]][1].setdefault(name, [0, 0])
                entry[0] += self_ns[i]
                entry[1] += 1
        spans.clear()
        return ops
