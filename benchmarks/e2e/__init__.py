"""End-to-end benchmark: four workloads, end-to-end and per-layer metrics.

Run ``python -m benchmarks.e2e run --seed S [--workload NAME] [--trace]``
from the repository root (``benchmarks/e2e/README.md`` has the details).
The catalogue — workload names, metric names and units, the default
window length — is ``BENCHMARK.json`` at the repository root; this module
reads it once for every part of the harness.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

WORKLOADS = tuple(w["name"] for w in _SPEC["workloads"])
#: What a user of the system sees, measured with tracing off.
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
#: Single layers, measured in the separate traced run.  A workload that
#: does not exercise a layer reports 0 for it.
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
#: length of one timed window, in seconds
RUN_SECONDS = _SPEC["run_seconds"]
