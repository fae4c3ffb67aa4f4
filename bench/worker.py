"""The measured process of an in-process workload.

Run as ``python -S worker.py`` with ``PYTHONPATH`` set to the checkout's
``src``; it reads a job (JSON) from stdin and writes its result (JSON) to
stdout. Only portsim and the standard library are imported here, so the
peak resident memory it reports is portsim's own.

A pass runs every op of the pool once, in order. Pass 0 is an untimed
warm-up whose outputs are kept for the oracles; each timed pass is
compared with it, outside the timed interval, so that repeated ops must
give identical bytes.
"""

from __future__ import annotations

import io
import json
import os
import statistics
import sys
import time
from dataclasses import replace

import reference
import portsim.dispatch as dispatch
import portsim.report as report
import portsim.scenario as scenario
from portsim.errors import ValidationError

WEIGHT_NAMES = ("w_emissions", "w_energy", "w_dispatch", "w_renewables")


def sweep_op(op: dict):
    """The steps a library caller runs on one scenario document."""
    try:
        sc = scenario.validate_scenario(scenario.scenario_from_json(op["text"]))
        override = op["override"]
        if override:
            if "shares" in override:
                sc = scenario.with_shares(sc, scenario.SectorShares(*override["shares"]))
            if "weights" in override:
                weights = dict(zip(WEIGHT_NAMES, override["weights"]))
                sc = scenario.with_weights(sc, replace(sc.objective_weights, **weights))
        rep = report.run_scenario(sc)
        return rep, report.serialize_report(rep, op["format"]), report.summarize(rep)
    except Exception as exc:  # a crashing op is a failed op, not a crashed benchmark
        return exc


def fleet_op(op: dict):
    try:
        solved = dispatch.solve_assignment(dispatch.CostMatrix.from_rows(op["rows"]))
        return solved.mapping, solved.total_cost
    except Exception as exc:  # a crashing op is a failed op, not a crashed benchmark
        return exc


def cli_op(op: dict):
    """``cli.main`` in-process, with its output streams captured."""
    import portsim.cli as cli

    out, err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    try:
        code = cli.main(op["args"])
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        data, text = sys.stdout.buffer.getvalue(), sys.stderr.getvalue()
        sys.stdout, sys.stderr = out, err
    return code, data, text


OPS = {"scenario-sweep": sweep_op, "fleet-dispatch": fleet_op, "cli": cli_op}
REFERENCES = {"scenario-sweep": "python_mix", "fleet-dispatch": "numeric", "cli": "python_mix"}


def signature(result):
    """What must repeat exactly when the same op runs again."""
    if isinstance(result, BaseException):
        return (type(result).__name__, str(result), getattr(result, "field", None))
    if isinstance(result[0], report.SimulationReport):
        return result[1:]
    return result


def describe(result) -> dict:
    """JSON form of a pass-0 result, for the oracles."""
    if isinstance(result, ValidationError):
        return {"status": "rejected", "field": result.field, "message": str(result)}
    if isinstance(result, BaseException):
        return {"status": "error", "message": f"{type(result).__name__}: {result}"}
    if isinstance(result[0], report.SimulationReport):
        rep, data, summary = result
        out = {"status": "report", "text": data.decode("utf-8"), "summary": summary}
        if data.startswith(b"{"):
            out["roundtrip"] = report.report_from_json(data) == rep
        return out
    if isinstance(result[1], bytes):
        return {"status": "exit", "code": result[0], "stdout": result[1].decode("utf-8"), "stderr": result[2]}
    return {"status": "solved", "mapping": list(result[0]), "total": result[1]}


def peak_rss_kb() -> int:
    """High-water resident set of this process image.

    ``/proc/self/status`` VmHWM belongs to this image alone; ``getrusage``
    would also count the parent's memory copied before ``exec``.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_pass(fn, ops: list, expected: list, unstable: list, meter: reference.SpeedMeter) -> list[int]:
    """One pass over the pool; per-op latencies in ns. Outputs are compared
    with pass 0 after the pass, outside the timed intervals."""
    clock = time.perf_counter_ns
    lat = [0] * len(ops)
    results = [None] * len(ops)
    for i, op in enumerate(ops):
        t0 = clock()
        results[i] = fn(op)
        lat[i] = clock() - t0
        meter.tick(lat[i])
    for i, result in enumerate(results):
        if signature(result) != expected[i]:
            unstable[i] += 1
    return lat


def ops_per_s(passes: list[list[float]]) -> float:
    return statistics.median(len(p) / (sum(p) / 1e9) for p in passes)


def layer_metrics(workload: str, ops: list, traced: list) -> dict[str, float]:
    """Per-layer metrics of one workload from its traced passes.

    ``traced`` holds, per pass, the tracer's per-op records. Times per op
    and per call are medians over passes of the pass totals.
    """
    per_pass: list[dict[str, list[int]]] = []
    for records in traced:
        totals: dict[str, list[int]] = {"op": [0, 0]}
        for duration, spans in records:
            totals["op"][0] += duration
            totals["op"][1] += 1
            for name, (self_ns, calls) in spans.items():
                t = totals.setdefault(name, [0, 0])
                t[0] += self_ns
                t[1] += calls
        per_pass.append(totals)

    def per_op_us(name: str) -> float:
        return statistics.median(p.get(name, [0, 0])[0] / p["op"][1] / 1e3 for p in per_pass)

    def per_call_us(name: str) -> float:
        return statistics.median(p[name][0] / p[name][1] / 1e3 if name in p else 0.0 for p in per_pass)

    def calls_per_op(name: str) -> float:
        counts = {p.get(name, [0, 0])[1] / p["op"][1] for p in per_pass}
        if len(counts) != 1:
            raise RuntimeError(f"{name} calls per op differ between passes: {sorted(counts)}")
        return counts.pop()

    def share(name: str) -> float:
        return statistics.median(p.get(name, [0, 0])[0] / p["op"][0] for p in per_pass)

    m: dict[str, float] = {}
    if workload == "scenario-sweep":
        for name in ("scenario.from_json", "scenario.validate", "renewables.annual_generation",
                     "energy.evaluate", "emissions.evaluate", "economics.cost_report", "objective.score",
                     "report.serialize_json", "report.serialize_csv", "report.summarize"):
            m[f"{name}_us"] = per_op_us(name)
        m["report.run_scenario_self_us"] = per_op_us("report.run_scenario")
        m["scenario.validate_calls"] = calls_per_op("scenario.validate")
        m["renewables.annual_generation_calls"] = calls_per_op("renewables.annual_generation")
        m["dispatch.solve_us"] = per_call_us("dispatch.solve")
        for name in ("scenario.from_json", "scenario.validate", "scenario.override", "renewables.annual_generation",
                     "energy.evaluate", "emissions.evaluate", "economics.cost_report", "objective.score",
                     "report.run_scenario", "report.serialize_json", "report.serialize_csv", "report.summarize",
                     "dispatch.solve", "dispatch.from_rows"):
            m[f"{name}.share"] = share(name)
    elif workload == "fleet-dispatch":
        m["dispatch.from_rows_us"] = per_call_us("dispatch.from_rows")
        m["dispatch.fleet.solve.share"] = share("dispatch.solve")
        m["dispatch.fleet.from_rows.share"] = share("dispatch.from_rows")
        by_class: dict[str, list[int]] = {}
        for records in traced:
            for op, (_, spans) in zip(ops, records):
                by_class.setdefault(op["cls"], []).append(spans.get("dispatch.solve", [0])[0])
        for cls, times in by_class.items():
            m[f"dispatch.solve_ms.{cls}"] = statistics.median(times) / 1e6
    else:
        by_kind: dict[str, list[int]] = {}
        for records in traced:
            for op, (duration, _) in zip(ops, records):
                by_kind.setdefault(op["kind"], []).append(duration)
        for kind, times in by_kind.items():
            m[f"cli.main_ms.{kind}"] = statistics.median(times) / 1e6
        m["cli.main_ms"] = statistics.median(p["op"][0] / p["op"][1] / 1e6 for p in per_pass)
        m["presets.get_preset_us"] = per_call_us("presets.get_preset")
    return m


def scaling_curve(curve: list[dict], tracer) -> tuple[dict[str, float], list[dict]]:
    """Solve time of each fixed curve matrix: median of a few repeats,
    fewer as the size grows."""
    metrics, outputs = {}, []
    solve = tracer.wrap("op", fleet_op)
    for point in curve:
        n = point["n"]
        times = []
        for _ in range(9 if n <= 10 else 3 if n <= 20 else 1):
            result = solve(point)
            (_, spans), = tracer.take_ops()
            times.append(spans["dispatch.solve"][0])
        metrics[f"dispatch.solve_ms.{point['cls']}.n{n}"] = statistics.median(times) / 1e6
        outputs.append(describe(result))
    return metrics, outputs


def main() -> None:
    job = json.load(sys.stdin)
    workload, ops = job["workload"], job["ops"]
    if "cwd" in job:
        os.chdir(job["cwd"])
    fn = OPS[workload]
    ref_name = REFERENCES[workload]
    meter = reference.SpeedMeter(reference.timer(getattr(reference, ref_name)), reference.NOMINAL_NS[ref_name], reps=5)
    first = [fn(op) for op in ops]
    expected = [signature(r) for r in first]
    unstable = [0] * len(ops)
    seconds = job["seconds"]
    result: dict = {}
    meter.start()
    deadline = time.perf_counter() + seconds
    if not job["trace"]:
        passes: list[list[int]] = []
        while not passes or time.perf_counter() < deadline:
            passes.append(run_pass(fn, ops, expected, unstable, meter))
        result["rss_kb"] = peak_rss_kb()
        result["passes"] = passes
        result["speed"] = meter.factors()
    else:
        from tracing import Tracer

        # Untraced and traced passes alternate, so both see the same
        # machine phases and their ratio is the tracing overhead.
        tracer = Tracer()
        traced_fn = tracer.wrap("op", fn)
        both: list[list[int]] = []
        records: list = []
        while not records or time.perf_counter() < deadline:
            both.append(run_pass(fn, ops, expected, unstable, meter))
            tracer.install()
            both.append(run_pass(traced_fn, ops, expected, unstable, meter))
            tracer.uninstall()
            records.append(tracer.take_ops())
        scaled = reference.scale(both, meter.factors())
        metrics = layer_metrics(workload, ops, records)
        metrics[f"trace.overhead.{workload}"] = ops_per_s(scaled[0::2]) / ops_per_s(scaled[1::2]) - 1
        tracer.install()
        if job.get("curve"):
            curve_metrics, result["curve_outputs"] = scaling_curve(job["curve"], tracer)
            metrics.update(curve_metrics)
        tracer.uninstall()
        result["metrics"] = metrics
    result["outputs"] = [describe(r) for r in first]
    result["unstable"] = unstable
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
