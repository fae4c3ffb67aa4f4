"""Client of the cli-cold workload: one child process per op.

Run as ``python -S cli_client.py``; it reads a job (JSON) from stdin and
writes its result (JSON) to stdout. It starts each child itself, so the
child's recorded peak memory is the larger of the child's own and this
small process's, never that of ``run.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import reference


def run_child(argv: list[str], env: dict, cwd: str) -> tuple[int, int, bytes, bytes, int]:
    """(wall ns, exit code, stdout, stderr, peak RSS in KiB) of one child."""
    t0 = time.perf_counter_ns()
    child = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    # Outputs are a few KiB, well below a pipe's buffer, so reading one
    # stream to its end cannot block the child on the other.
    out = child.stdout.read()
    err = child.stderr.read()
    _, status, usage = os.wait4(child.pid, 0)
    elapsed = time.perf_counter_ns() - t0
    child.returncode = os.waitstatus_to_exitcode(status)
    child.stdout.close()
    child.stderr.close()
    return elapsed, child.returncode, out, err, usage.ru_maxrss


def main() -> None:
    job = json.load(sys.stdin)
    prefix, env, cwd = job["prefix"], job["env"], job["cwd"]
    ops = job["ops"]
    meter = reference.SpeedMeter(
        lambda: run_child([prefix[0], "-S", "-c", reference.CHILD_CODE], env, cwd)[0], reference.NOMINAL_NS["child"], reps=1)
    meter.start()
    deadline = time.perf_counter() + job["seconds"]
    passes: list[list[int]] = []
    outputs: list[dict] = []
    unstable = [0] * len(ops)
    rss_kb = 0
    while not passes or time.perf_counter() < deadline:
        lat = []
        for i, args in enumerate(ops):
            elapsed, code, out, err, rss = run_child(prefix + args, env, cwd)
            lat.append(elapsed)
            meter.tick(elapsed)
            rss_kb = max(rss_kb, rss)
            result = {"status": "exit", "code": code, "stdout": out.decode("utf-8", "replace"),
                      "stderr": err.decode("utf-8", "replace")}
            if not passes:
                outputs.append(result)
            elif result != outputs[i]:
                unstable[i] += 1
        passes.append(lat)
    json.dump({"passes": passes, "speed": meter.factors(), "outputs": outputs, "unstable": unstable,
               "rss_kb": rss_kb}, sys.stdout)


if __name__ == "__main__":
    main()
