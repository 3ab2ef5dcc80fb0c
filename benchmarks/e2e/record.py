"""The committed history: ``python -m benchmarks.e2e record``.

``record`` runs every workload ``--runs`` times untraced (seeds
``0..runs-1``) and once traced, and appends one entry to
``benchmarks/history/BENCH_e2e.json``: per workload, the median and
quartiles of each end-to-end metric and each numeric diagnostic with the
raw values, the per-layer metrics and the folded span table.  The file
keeps the newest :data:`KEEP` entries.

Without ``keep``, :func:`append_record` writes the same bytes as the
``_record()`` helper that each of eight ``benchmarks/test_perf_*.py``
files defines for itself (a JSON list, two-space indent, one trailing
newline), so those files can import it instead.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from benchmarks.e2e import END_TO_END, ROOT, WORKLOADS
from benchmarks.e2e.harness import run_workload
from benchmarks.e2e.stats import summary

HISTORY = ROOT / "benchmarks" / "history" / "BENCH_e2e.json"
KEEP = 20


def append_record(path, payload: dict, *, keep: Optional[int] = None) -> None:
    """Append ``payload`` to the JSON list at ``path``, keeping the newest
    ``keep`` entries; an unreadable file starts a fresh list."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    history = []
    if path.exists():
        try:
            history = json.loads(path.read_text())
        except json.JSONDecodeError:
            history = []
    history.append(payload)
    if keep is not None:
        history = history[-keep:]
    path.write_text(json.dumps(history, indent=2) + "\n")


def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def record(*, runs: int, seconds: float) -> int:
    entry = {
        "git_sha": _git_sha(),
        "recorded": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cores": os.cpu_count(),
        "seconds": seconds,
        "runs": runs,
        "workloads": {},
    }
    for workload in WORKLOADS:
        values: dict = {}
        for seed in range(runs):
            result = run_workload(workload, seed=seed, seconds=seconds, ops=None, trace=False)
            if not result["correct"]:
                print(f"error: {workload} seed {seed} failed its checks: {result['errors']}")
                return 1
            measured = {name: m["value"] for name, m in result["metrics"].items()}
            measured.update((name, v) for name, v in result["diagnostics"].items()
                            if isinstance(v, (int, float)))
            for name, v in measured.items():
                values.setdefault(name, []).append(v)
        traced = run_workload(workload, seed=0, seconds=seconds, ops=None, trace=True)
        summaries = {name: {**summary(v), "values": v} for name, v in values.items()}
        entry["workloads"][workload] = {
            "end_to_end": {name: {"unit": unit, **summaries.pop(name)}
                           for name, unit in END_TO_END.items()},
            "diagnostics": summaries,
            "per_layer": traced["metrics"],
            "layers": traced["layers"],
        }
        rows = [*entry["workloads"][workload]["end_to_end"].items(),
                *((f"diag.{name}", s) for name, s in summaries.items())]
        for name, s in rows:
            print(f"{workload} {name} median={s['median']:.6g} q1={s['q1']:.6g} "
                  f"q3={s['q3']:.6g} spread={s['spread']:.4f}", flush=True)
    append_record(HISTORY, entry, keep=KEEP)
    print(f"appended to {HISTORY.relative_to(ROOT)}")
    return 0
