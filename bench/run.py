"""portsim benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (each closed-loop with one client; one process is busy at a time):

* ``scenario-sweep``: the parameter-sweep library caller. Each op parses a
  scenario document, validates it, optionally overrides shares or weights,
  runs it, serializes the report (JSON or CSV) and summarizes it. Parse,
  validation, the engines and serialization do the work here.
* ``fleet-dispatch``: ``CostMatrix.from_rows`` + ``solve_assignment`` on one
  fleet-scale matrix per op. Dispatch does nearly all the work.
* ``cli-cold``: one ``python -S -m portsim.cli ...`` child per op, the
  documented user path. Interpreter start, imports and argparse dominate.
  ``-S`` keeps site hooks out: portsim needs only the standard library.

A pass runs every op of the workload's seeded pool once. The run measures
whole passes for ``--seconds``. ``ops_per_s`` is the median over passes of
ops per busy second; ``latency_p50_ms`` and ``latency_p90_ms`` are taken
over the pool's ops, each op's latency being its median over the passes
(every pool has at least 100 ops, so at least ten lie beyond p90).
``setup_s`` is the median over several fresh interpreters of what a user
pays before the first op, compiling portsim into an empty bytecode cache
each time. These times are scaled by the machine's speed, measured by a
reference workload timed between blocks of ops (``reference.py``); the
unscaled figures are printed beside them. ``peak_rss_mb`` is the peak
resident memory of the process running portsim: the worker for in-process
workloads, the largest child for cli-cold.

Every op is checked, outside the timed interval, against oracles that do
not use the code under test (``oracles.py``, ``scipy_check.py``).
``attempted`` counts the ops of the pool and ``failed`` those whose output
was wrong or differed between passes: each op counts once, however many
passes fit in the run, so both counts depend only on the code and the
pool. Known defects stay in the pools and count as failed; ``correct`` is
false only when an op outside the known-defect classes fails.

``--trace 1`` runs the layer suite instead, the same for every workload:
each in-process pool with untraced and traced (``tracing.py``) passes
alternating, the dispatch scaling curve, ``-X importtime`` children and
bare-interpreter probes. It prints the per-layer metrics. Their times are
not scaled; shares, call counts and the tracing overhead need no scaling.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import oracles
import reference
from cli_client import run_child

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("scenario-sweep", "fleet-dispatch", "cli-cold")
SETUP_REPS = 9
PROBE_REPS = 9
CLI_PREFIX = ["-S", "-m", "portsim.cli"]
PORTSIM_MODULES = ("portsim", "cli", "dispatch", "economics", "emissions", "energy", "errors",
                   "objective", "presets", "renewables", "report", "scenario")
#: Failure classes of open defects: ROADMAP item 1 (overflow is not
#: rejected) and item 3 (the padding sentinel absorbs small costs).
KNOWN_DEFECTS = {"overflow": "ROADMAP item 1", "wide_range": "ROADMAP item 3"}


def child_env(cache: Path) -> dict[str, str]:
    """An explicit environment: portsim from the checkout, bytecode into
    ``cache``, and nothing inherited that changes Python's behaviour (such
    as ``PYTHONDONTWRITEBYTECODE``)."""
    return {"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": str(SRC),
            "PYTHONPYCACHEPREFIX": str(cache)}


def run_python(args: list[str], cache: Path, cwd: Path, stdin: bytes | None = None,
               timeout: float = 170) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable] + args, input=stdin, env=child_env(cache), cwd=cwd,
                          capture_output=True, timeout=timeout)


def run_json_child(script: str, job: dict, cache: Path, cwd: Path) -> dict:
    proc = run_python(["-S", str(BENCH / script)], cache, cwd, json.dumps(job).encode(),
                      timeout=job.get("seconds", 0) + 150)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
        raise RuntimeError(f"{script} exited with {proc.returncode}")
    return json.loads(proc.stdout)


def setup_seconds(args: list[str], work: Path) -> tuple[float, float, Path]:
    """What a fresh interpreter pays to run ``args``, compiling portsim into
    an empty bytecode cache; the standard library's bytecode is cached, as
    in any installation. Returns the median over ``SETUP_REPS`` of the
    speed-scaled time, the median raw time, and the last (now warm) cache.
    """
    stdlib = work / "pycache-stdlib"
    run_python(["-S", "-c", "import portsim.cli"], stdlib, work)
    shutil.rmtree(stdlib / SRC.relative_to(SRC.anchor), ignore_errors=True)
    reference_child = [sys.executable, "-S", "-c", reference.CHILD_CODE]

    def speed() -> float:
        times = [run_child(reference_child, child_env(stdlib), str(work))[0] for _ in range(2)]
        return statistics.mean(times) / reference.NOMINAL_NS["child"]

    scaled, raw = [], []
    before = speed()
    for k in range(SETUP_REPS):
        cache = work / f"pycache-{k}"
        shutil.copytree(stdlib, cache)
        elapsed, code, _, err, _ = run_child([sys.executable] + args, child_env(cache), str(work))
        if code != 0:
            sys.stderr.write(err.decode("utf-8", "replace"))
            raise RuntimeError(f"set-up child {args} exited with {code}")
        after = speed()
        raw.append(elapsed / 1e9)
        scaled.append(raw[-1] / ((before + after) / 2))
        before = after
    return statistics.median(scaled), statistics.median(raw), cache


def _timings(passes: list[list[float]]) -> dict[str, float]:
    per_op = [statistics.median(col) for col in zip(*passes)]
    deciles = statistics.quantiles(per_op, n=10, method="inclusive")
    return {
        "ops_per_s": statistics.median(len(p) / (sum(p) / 1e9) for p in passes),
        "latency_p50_ms": deciles[4] / 1e6,
        "latency_p90_ms": deciles[8] / 1e6,
    }


def timing_metrics(result: dict, setup: tuple[float, float, Path]) -> tuple[dict, dict]:
    """(speed-scaled, raw) end-to-end metrics of a measured run."""
    scaled = reference.scale(result["passes"], result["speed"])
    rss = {"peak_rss_mb": result["rss_kb"] / 1024}
    return ({"setup_s": setup[0], **_timings(scaled), **rss},
            {"setup_s": setup[1], **_timings(result["passes"]), **rss})


def scipy_verdicts(answers: list[dict], work: Path) -> list[str | None]:
    if not answers:
        return []
    proc = subprocess.run([sys.executable, str(BENCH / "scipy_check.py")], input=json.dumps(answers).encode(),
                          capture_output=True, cwd=work, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
        raise RuntimeError(f"scipy_check.py exited with {proc.returncode} (SciPy is needed for the dispatch oracle)")
    return json.loads(proc.stdout)


# --- checks: one verdict (None or a message) per op -------------------------

def _oracle(fn, *args) -> str | None:
    try:
        fn(*args)
    except oracles.OracleMismatch as exc:
        return str(exc)
    except (LookupError, ValueError, TypeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None


def check_sweep(ops: list[dict], outputs: list[dict]) -> list[str | None]:
    verdicts = []
    for op, out in zip(ops, outputs):
        if op["expect"] == "reject":
            if out["status"] != "rejected":
                verdicts.append(f"expected a rejection naming a field, got {out['status']}"
                                f" {out.get('message', '')[:80]}".rstrip())
            elif op["field"] is not None and out["field"] != op["field"]:
                verdicts.append(f"rejected field {out['field']!r}, expected {op['field']!r}")
            else:
                verdicts.append(None if out["field"] else "rejection names no field")
            continue
        if out["status"] != "report":
            verdicts.append(f"{out['status']}: {out.get('message')}")
            continue
        want = oracles.expected_report(json.loads(op["text"]), op["override"])
        verdict = _oracle(oracles.check_report, out["text"], op["format"], out["summary"], want)
        if verdict is None and op["format"] == "json" and not out["roundtrip"]:
            verdict = "report_from_json does not give back an equal report"
        verdicts.append(verdict)
    return verdicts


def check_dispatch(items: list[tuple[list, dict]], work: Path) -> list[str | None]:
    """``items``: (matrix rows, solved output). At most 7 rows per side goes
    to exact brute force; larger integer matrices to SciPy."""
    verdicts: list[str | None] = [None] * len(items)
    batch, where = [], []
    for k, (rows, out) in enumerate(items):
        if out["status"] != "solved":
            verdicts[k] = f"{out['status']}: {out.get('message')}"
        elif max(len(rows), len(rows[0])) <= 7:
            verdicts[k] = _oracle(oracles.check_assignment, out["mapping"], out["total"], *oracles.brute_force(rows))
        else:
            batch.append({"rows": rows, "mapping": out["mapping"], "total": out["total"]})
            where.append(k)
    for k, verdict in zip(where, scipy_verdicts(batch, work)):
        verdicts[k] = verdict
    return verdicts


def check_cli(ops: list[dict], outputs: list[dict], work: Path) -> list[str | None]:
    verdicts: list[str | None] = [None] * len(ops)
    dispatch_items, where = [], []
    for k, (op, out) in enumerate(zip(ops, outputs)):
        code, stdout, stderr = out["code"], out["stdout"], out["stderr"]
        if op["kind"] == "dispatch":
            if code != 0:
                verdicts[k] = f"exit {code}: {stderr.strip()[-120:]}"
                continue
            try:
                mapping, total = oracles.parse_dispatch_output(stdout, len(op["rows"]))
            except (oracles.OracleMismatch, ValueError) as exc:
                verdicts[k] = f"malformed dispatch output: {exc}"
                continue
            dispatch_items.append((op["rows"], {"status": "solved", "mapping": mapping, "total": total}))
            where.append(k)
        elif op["kind"] == "validate":
            if op["valid"]:
                doc = oracles.PRESET_DOCS.get(op["source"]) or json.loads((work / op["source"]).read_text())
                if code != 0 or stdout != f"valid: {doc['name']}\n":
                    verdicts[k] = f"validate gave exit {code}, {stdout!r}"
            elif code != 1 or stdout or stderr.count("\n") != 1 or "Traceback" in stderr:
                verdicts[k] = f"invalid file gave exit {code} and {stderr!r:.120}"
        else:
            if code != 0:
                verdicts[k] = f"exit {code}: {stderr.strip()[-120:]}"
                continue
            doc = op["doc"] or oracles.PRESET_DOCS[op["source"]]
            want = oracles.expected_report(doc, op["override"])
            verdicts[k] = _oracle(oracles.check_report, stdout, op["format"], stderr.rstrip("\n"), want)
    for k, verdict in zip(where, check_dispatch(dispatch_items, work)):
        verdicts[k] = verdict
    return verdicts


class Tally:
    """Failures by class, counted once per op of the pool."""

    def __init__(self) -> None:
        self.attempted = 0
        self.classes: dict[str, list] = {}  # class -> [failed, attempted, first message]

    def add(self, cls: str, verdict: str | None) -> None:
        entry = self.classes.setdefault(cls, [0, 0, None])
        entry[1] += 1
        self.attempted += 1
        if verdict is not None:
            entry[0] += 1
            entry[2] = entry[2] or verdict

    @property
    def failed(self) -> int:
        return sum(e[0] for e in self.classes.values())

    @property
    def correct(self) -> bool:
        return all(e[0] == 0 or cls in KNOWN_DEFECTS for cls, e in self.classes.items())

    def report(self) -> None:
        for cls, (failed, attempted, message) in sorted(self.classes.items()):
            if failed:
                known = f" (known defect, {KNOWN_DEFECTS[cls]})" if cls in KNOWN_DEFECTS else " (UNEXPECTED)"
                print(f"  failed {cls}: {failed}/{attempted}{known}; first: {message}")


def add_unstable(verdicts: list[str | None], unstable: list[int]) -> list[str | None]:
    return [v if v or not u else f"output differs in {u} repeats" for v, u in zip(verdicts, unstable)]


# --- workloads --------------------------------------------------------------

def run_in_process(workload: str, seed: int, seconds: float, work: Path, tally: Tally) -> tuple[dict, dict]:
    setup = setup_seconds(["-S", "-c", "import portsim"], work)
    cache = setup[2]
    ops = inputs.sweep_pool(seed) if workload == "scenario-sweep" else inputs.fleet_pool(seed)
    result = run_json_child("worker.py", {"workload": workload, "ops": ops, "seconds": seconds, "trace": False},
                            cache, work)
    if workload == "scenario-sweep":
        verdicts = check_sweep(ops, result["outputs"])
    else:
        verdicts = check_dispatch([(op["rows"], out) for op, out in zip(ops, result["outputs"])], work)
    for op, verdict in zip(ops, add_unstable(verdicts, result["unstable"])):
        tally.add(op["cls"], verdict)
    print(f"{workload}: {len(result['passes'])} passes of {len(ops)} ops")
    return timing_metrics(result, setup)


def write_cli_files(seed: int, work: Path) -> list[dict]:
    ops, files = inputs.cli_pool(seed)
    for name, text in files.items():
        (work / name).write_text(text)
    return ops


def run_cli_cold(seed: int, seconds: float, work: Path, tally: Tally) -> tuple[dict, dict]:
    ops = write_cli_files(seed, work)
    setup = setup_seconds(CLI_PREFIX + ["run", "yangshan-phase4"], work)
    cache = setup[2]
    job = {"prefix": [sys.executable] + CLI_PREFIX, "ops": [op["args"] for op in ops], "seconds": seconds,
           "env": child_env(cache), "cwd": str(work)}
    result = run_json_child("cli_client.py", job, cache, work)
    verdicts = add_unstable(check_cli(ops, result["outputs"], work), result["unstable"])
    for op, verdict in zip(ops, verdicts):
        tally.add(op["kind"], verdict)
    print(f"cli-cold: {len(result['passes'])} passes of {len(ops)} ops")
    return timing_metrics(result, setup)


def parse_importtime(stderr: str) -> tuple[float, dict[str, float]]:
    """(cumulative ms of the top-level portsim imports, self us per portsim module)."""
    total_us = 0
    self_us: dict[str, float] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        own, cumulative, name = line[len("import time:"):].split("|")
        module = name.strip()
        if module != "portsim" and not module.startswith("portsim."):
            continue
        self_us[module.split(".")[-1]] = int(own)
        if len(name) - len(name.lstrip()) == 1:  # imported at top level, not by another module
            total_us += int(cumulative)
    return total_us / 1e3, self_us


def cli_probes(work: Path, cache: Path) -> dict[str, float]:
    """Bare-interpreter, ``-X importtime`` and whole-op children."""
    def median_ms(args: list[str]) -> float:
        times = []
        for _ in range(PROBE_REPS):
            t0 = time.perf_counter()
            run_python(args, cache, work)
            times.append((time.perf_counter() - t0) * 1e3)
        return statistics.median(times)

    m = {"cli.interp_ms": median_ms(["-S", "-c", "pass"]),
         "cli.op_ms": median_ms(CLI_PREFIX + ["run", "yangshan-phase4"])}
    totals, selfs = [], {name: [] for name in PORTSIM_MODULES}
    for _ in range(PROBE_REPS):
        proc = run_python(["-S", "-X", "importtime", "-c", "import portsim.cli"], cache, work)
        total, self_us = parse_importtime(proc.stderr.decode("utf-8", "replace"))
        totals.append(total)
        for name in PORTSIM_MODULES:
            selfs[name].append(self_us.get(name, 0.0))
    m["cli.import_ms"] = statistics.median(totals)
    for name in PORTSIM_MODULES:
        m[f"cli.import_us.{name}"] = statistics.median(selfs[name])
    m["cli.interp.share"] = m["cli.interp_ms"] / m["cli.op_ms"]
    m["cli.import.share"] = m["cli.import_ms"] / m["cli.op_ms"]
    return m


def run_layers(seed: int, seconds: float, work: Path, tally: Tally) -> dict[str, float]:
    """The traced layer suite; the same whatever the workload."""
    cache = work / "pycache"
    run_python(["-S", "-c", "import portsim.cli"], cache, work)
    share = seconds / 3
    metrics: dict[str, float] = {}

    sweep = inputs.sweep_pool(seed)
    result = run_json_child("worker.py", {"workload": "scenario-sweep", "ops": sweep, "seconds": share,
                                          "trace": True}, cache, work)
    metrics.update(result["metrics"])
    for op, verdict in zip(sweep, add_unstable(check_sweep(sweep, result["outputs"]), result["unstable"])):
        tally.add(op["cls"], verdict)

    fleet, curve = inputs.fleet_pool(seed), inputs.curve_matrices()
    result = run_json_child("worker.py", {"workload": "fleet-dispatch", "ops": fleet, "seconds": share,
                                          "trace": True, "curve": curve}, cache, work)
    metrics.update(result["metrics"])
    items = [(op["rows"], out) for op, out in zip(fleet, result["outputs"])]
    items += [(point["rows"], out) for point, out in zip(curve, result["curve_outputs"])]
    verdicts = add_unstable(check_dispatch(items, work), result["unstable"] + [0] * len(curve))
    for op, verdict in zip(fleet + [{"cls": f"curve_{p['cls']}"} for p in curve], verdicts):
        tally.add(op["cls"], verdict)

    cli_ops = write_cli_files(seed, work)
    result = run_json_child("worker.py", {"workload": "cli", "ops": cli_ops, "seconds": share, "trace": True,
                                          "cwd": str(work)}, cache, work)
    metrics.update(result["metrics"])
    verdicts = add_unstable(check_cli(cli_ops, result["outputs"], work), result["unstable"])
    for op, verdict in zip(cli_ops, verdicts):
        tally.add(f"cli_main_{op['kind']}", verdict)
    metrics.update(cli_probes(work, cache))
    metrics["cli.main.share"] = metrics["cli.main_ms.run_preset"] / metrics["cli.op_ms"]
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not (SRC / "portsim" / "__init__.py").is_file():
        print(f"bench: no portsim sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    work = BENCH / ".work" / str(os.getpid())
    work.mkdir(parents=True)
    tally = Tally()
    raw: dict[str, float] = {}
    try:
        if args.trace:
            values = run_layers(args.seed, args.seconds, work, tally)
        elif args.workload == "cli-cold":
            values, raw = run_cli_cold(args.seed, args.seconds, work, tally)
        else:
            values, raw = run_in_process(args.workload, args.seed, args.seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()

    missing = sorted(set(declared) - set(values))
    if missing:
        print(f"bench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    tally.report()
    for name, unit in declared.items():
        unscaled = f" (unscaled {raw[name]:.6g})" if name in raw and raw[name] != values[name] else ""
        print(f"  {name} = {values[name]:.6g} {unit}{unscaled}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
