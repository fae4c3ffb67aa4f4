"""Smoke test of the benchmark: every workload, untraced and traced, for
one second each.

    python3 bench/smoke.py

Fails (exit 1) when a run exits non-zero, when its last line is not the
result object, when a metric named in BENCHMARK.json is missing or has
another unit, or when an op outside the known-defect classes fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            argv = spec["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
            label = f"{workload} --trace {trace}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                problems.append(f"{label}: exit {proc.returncode}, no result line\n{proc.stderr[-2000:]}")
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if proc.returncode != 0 or set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: exit {proc.returncode}, keys {sorted(result)}")
            if got != declared:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(declared.items()) ^ set(got.items()))}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} attempted={result['attempted']}")
            print(f"{label}: attempted {result['attempted']}, failed {result['failed']}, "
                  f"{len(got)} metrics", flush=True)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
