"""The two sources of per-layer numbers: span self time and counter totals.

A span's *self time* is its duration minus the part of its interval that
its children cover: the union of the children's ``[ts − duration_s, ts]``
intervals, clipped to the parent's own interval.  Children are matched by
``(trace_id, parent_id)``, so a span a worker process opened under a
parent-side span (id suffix ``.w0``) counts as that span's child — span
records carry ``time.monotonic()`` end stamps, one system-wide clock on
Linux.  A span whose parent is missing (evicted from a ring, still open)
is an *orphan*: it is kept as a root and listed, never dropped.

Spans are grouped by name, with a ``kind`` attribute appended in brackets
(``flow.solve[cold]``, ``batch[simulate]``) because one span name covers
layers of different cost.

Counters are read from Prometheus text (the serve tier's ``/metrics``, or
the in-process registry rendered the same way) and totalled per family.

``python -m benchmarks.e2e layers RUN.json`` prints the per-layer metrics
and this table for every workload of a traced run.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Iterable


def layer_key(record: dict) -> str:
    kind = (record.get("attrs") or {}).get("kind")
    name = record.get("name")
    return f"{name}[{kind}]" if kind is not None else str(name)


def _interval(record: dict) -> tuple[float, float]:
    end = float(record["ts"])
    return end - float(record["duration_s"]), end


def _covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` inside ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    run_lo = run_hi = None
    for a, b in clipped:
        if b <= a:
            continue
        if run_hi is None or a > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = a, b
        else:
            run_hi = max(run_hi, b)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_times(records: Iterable[dict]) -> tuple[list[tuple[dict, float]], list[dict]]:
    """``([(span, self_seconds), ...], orphans)`` for the ``span`` records."""
    spans = [r for r in records if r.get("type", "span") == "span"]
    ids = {(r.get("trace_id"), r.get("span_id")) for r in spans}
    children: dict[tuple, list[dict]] = defaultdict(list)
    orphans = []
    for r in spans:
        parent = r.get("parent_id")
        if parent is None:
            continue
        key = (r.get("trace_id"), parent)
        if key in ids:
            children[key].append(r)
        else:
            orphans.append(r)
    out = []
    for r in spans:
        lo, hi = _interval(r)
        kids = children.get((r.get("trace_id"), r.get("span_id")), ())
        covered = _covered((_interval(k) for k in kids), lo, hi)
        out.append((r, max(0.0, (hi - lo) - covered)))
    return out, orphans


def fold(records: Iterable[dict]) -> dict:
    """Per-layer totals: ``{"layers": {key: {count, total_s, self_s}},
    "orphans": [...], "spans": n}``."""
    pairs, orphans = self_times(records)
    layers: dict[str, dict] = {}
    for record, self_s in pairs:
        row = layers.setdefault(layer_key(record),
                                {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += float(record["duration_s"])
        row["self_s"] += self_s
    return {
        "layers": layers,
        "orphans": [{"key": layer_key(r), "trace_id": r.get("trace_id"),
                     "span_id": r.get("span_id"), "parent_id": r.get("parent_id")}
                    for r in orphans],
        "spans": len(pairs),
    }


def counter_totals(exposition: str) -> dict:
    """Every counter of a Prometheus text page, summed over its labels by
    family name, plus a ``name{mode=...}`` total per ``mode`` label."""
    from repro.obs import parse_exposition

    page = parse_exposition(exposition)
    totals: dict = {}
    for name, labels, value in page["samples"]:
        if page["types"].get(name) != "counter":
            continue
        keys = [name] + ([f"{name}{{mode={labels['mode']}}}"] if "mode" in labels else [])
        for key in keys:
            totals[key] = totals.get(key, 0) + value
    return totals


def render_fold(folded: dict) -> str:
    """The folded table, heaviest self time first."""
    layers = folded["layers"]
    whole = sum(row["self_s"] for row in layers.values()) or 1.0
    lines = [f"{'layer':<34} {'count':>7} {'total_ms':>11} {'self_ms':>11} {'self%':>6}"]
    for key, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{key:<34} {row['count']:>7} {1e3 * row['total_s']:>11.2f} "
                     f"{1e3 * row['self_s']:>11.2f} {100 * row['self_s'] / whole:>6.1f}")
    lines.append(f"{folded['spans']} spans, {len(folded['orphans'])} orphans")
    return "\n".join(lines)


def render_run(run: dict) -> str:
    """Per-layer metrics plus the folded table of every traced workload."""
    blocks = []
    for name, result in run["workloads"].items():
        lines = [f"== {name} (seed {run['seed']}, trace={int(run['trace'])})"]
        for metric, entry in result["metrics"].items():
            lines.append(f"{metric:<36} {entry['value']:>14.6g} {entry['unit']}")
        if result.get("layers"):
            lines.append("")
            lines.append(render_fold(result["layers"]))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def main(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        run = json.load(fh)
    print(render_run(run))
    return 0
