"""Run workloads in fresh processes and report their metrics.

Each workload runs in its own child process (:mod:`benchmarks.e2e.child`).
An untraced run starts a set-up-only child before the measuring child and
another after it; ``setup_s`` is the median set-up time of the three.
The metrics reported are those ``BENCHMARK.json`` lists — the end-to-end
ones, or the per-layer ones for a traced run; whatever else a child
measured is printed as a diagnostic.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.e2e import END_TO_END, PER_LAYER, ROOT

#: wall-clock budget of one workload, set-up probes included
WORKLOAD_BUDGET_S = 170.0


class HarnessError(RuntimeError):
    """A workload process failed, timed out, or printed no result."""


def _child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT), str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _spawn(args: dict, deadline: float) -> dict:
    """Run one child to completion; its last stdout line is the result."""
    args = dict(args, t0=time.monotonic())
    # own session: on a timeout or an interrupt the whole group (a server
    # and its workers included) is killed, not just the child
    proc = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.e2e.child", json.dumps(args)],
        cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
        stdin=subprocess.DEVNULL, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise HarnessError(f"{args['workload']}: timed out") from None
        raise
    lines = out.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"{args['workload']}: child exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, *, seed: int, seconds: float, ops, trace: bool) -> dict:
    """One workload's result: metrics with units, counts, checks, digest."""
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    args = {"workload": workload, "seed": seed, "seconds": seconds, "ops": ops,
            "trace": trace, "setup_only": False}

    def probe() -> float:
        return _spawn(dict(args, setup_only=True), deadline)["setup_s"]

    # one probe before and one after the measuring child: samples half a
    # minute apart see different states of a shared host
    before = [] if trace else [probe()]
    result = _spawn(args, deadline)
    after = [] if trace else [probe()]
    catalogue = PER_LAYER if trace else END_TO_END
    values = dict(result["metrics"])
    if not trace:
        result["setup_s_samples"] = before + [result["setup_s"]] + after
        values["setup_s"] = statistics.median(result["setup_s_samples"])
    result["metrics"] = {name: {"value": values.pop(name), "unit": unit}
                         for name, unit in catalogue.items()}
    # measured but not gated by BENCHMARK.json: printed as diagnostics
    result["diagnostics"] = {**values, **result["diagnostics"]}
    result["correct"] = result["ops_failed"] == 0 and all(
        ran > 0 for ran, _ in result["checks"].values())
    return result


def report_lines(workload: str, result: dict) -> list[str]:
    """``workload metric value unit`` per metric, then counts and checks."""
    lines = [f"{workload} {name} {entry['value']!r} {entry['unit']}"
             for name, entry in result["metrics"].items()]
    lines += [f"{workload} ops_attempted {result['ops_attempted']}",
              f"{workload} ops_failed {result['ops_failed']}",
              f"{workload} outputs_sha256 {result['outputs_sha256']}"]
    lines += [f"{workload} check.{name} ran={ran} failed={failed}"
              for name, (ran, failed) in result["checks"].items()]
    lines += [f"{workload} diag.{name} {value!r}"
              for name, value in result["diagnostics"].items()]
    lines += [f"{workload} error {e}" for e in result.get("errors", [])]
    return lines


def run(workloads, *, seed: int, seconds: float, ops=None, trace: bool = False,
        out=None) -> int:
    """The ``run`` command: prints per-metric lines, then one JSON line."""
    results = {}
    for workload in workloads:
        result = run_workload(workload, seed=seed, seconds=seconds, ops=ops, trace=trace)
        results[workload] = result
        print("\n".join(report_lines(workload, result)), flush=True)
    if out is not None:
        Path(out).write_text(json.dumps(
            {"seed": seed, "seconds": seconds, "ops": ops, "trace": trace,
             "workloads": results}, indent=2) + "\n")
    single = len(results) == 1
    metrics = {(name if single else f"{workload}.{name}"): entry
               for workload, result in results.items()
               for name, entry in result["metrics"].items()}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["ops_attempted"] for r in results.values()),
        "failed": sum(r["ops_failed"] for r in results.values()),
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1
