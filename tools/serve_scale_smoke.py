"""CI smoke for the multi-process serve tier + load harness.

Boots the server with 2 worker processes and drives ~200 mixed
classify/simulate requests through the open-loop load generator
(Poisson + synchronized bursts), then gates on the SLO layer: zero hard
errors, bounded shed rate.  Latency floors stay out — shared CI runners
have unpredictable timing — but the whole chain (spawn, warm imports,
shard routing, micro-batch dispatch to workers, shed accounting, SLO
arithmetic) executes for real.

The telemetry chain is exercised end to end as well: a classify request
must return an ``X-Repro-Trace-Id`` whose ``/v1/trace/{id}`` span tree
crosses every tier (ingress → admission → batch → worker → flow solve),
and the frontend ``/metrics`` page must carry worker-labelled series,
merged from the registry snapshots the workers' task replies carry (a
scrape sends the workers no task of its own).  A sample of span records
is written to ``$REPRO_SPAN_ARTIFACT`` (default
``test-traces/serve_spans.jsonl``) for CI upload.

Run as a *file* (``python tools/serve_scale_smoke.py``), not via
``python - <<EOF``: spawn-context workers re-import ``__main__``, which
must therefore be an importable path with a main guard.
"""

import json
import os
import pathlib

from repro.loadgen import (
    SLO,
    assert_slo,
    burst_schedule,
    classify_request,
    poisson_schedule,
    run_open_loop,
    simulate_request,
)
from repro.obs.merge import parse_exposition
from repro.serve import BackgroundServer, ServeClient

SPEC = {"topology": "gnp", "n": 32, "p": 0.2, "seed": 5,
        "in_rate": 1, "out_rate": 2}


def _factory(i: int):
    if i % 2:
        return simulate_request(SPEC, horizon=200, seed=i)
    return classify_request({**SPEC, "seed": i})


def _span_names(tree: list) -> set:
    names = set()
    stack = list(tree)
    while stack:
        node = stack.pop()
        names.add(node["name"])
        stack.extend(node["children"])
    return names


def _check_tracing(client: ServeClient) -> dict:
    """One classify request, followed end to end through /v1/trace."""
    client.classify({**SPEC, "seed": 991})
    trace_id = client.last_trace_id
    assert trace_id, "classify response carried no X-Repro-Trace-Id"
    trace = client.trace(trace_id)
    assert trace["trace_id"] == trace_id, trace
    names = _span_names(trace["tree"])
    for expected in ("ingress", "admission", "batch", "worker",
                     "flow.classify"):
        assert expected in names, (expected, sorted(names))
    return trace


def _check_merged_metrics(client: ServeClient) -> None:
    """Worker-labelled series must appear on the frontend page."""
    page = client.metrics_text()
    parsed = parse_exposition(page)
    workers = {labels.get("worker")
               for name, labels, _ in parsed["samples"]
               if "worker" in labels}
    assert workers >= {"0", "1"}, f"worker labels on /metrics: {workers}"
    warm = [(labels, value) for name, labels, value in parsed["samples"]
            if name == "repro_flow_warm_solves_total"
            and "worker" in labels]
    assert warm, "no worker-labelled repro_flow_warm_solves_total series"


def _write_span_artifact(trace: dict) -> str:
    path = pathlib.Path(os.environ.get(
        "REPRO_SPAN_ARTIFACT", "test-traces/serve_spans.jsonl"
    ))
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for rec in trace["spans"]:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return str(path)


def main() -> None:
    srv = BackgroundServer(workers=2)
    url = srv.start(timeout=120.0)
    try:
        schedule = (poisson_schedule(80.0, count=160, seed=3)
                    + burst_schedule(bursts=2, burst_size=20, period=1.0))
        schedule.sort()
        report = run_open_loop(url, schedule, _factory, timeout=120.0)
        assert report.total == 200, report.status_counts()
        assert_slo(report, SLO(max_shed_rate=0.9, max_error_rate=0.0))
        slowest = report.slowest(3)
        assert all(row["trace_id"] for row in slowest), slowest
        pool = srv.server.pool
        assert pool is not None
        assert pool.restarts == 0 and pool.duplicate_results == 0
        # coalescing folds many simulate requests into one worker task,
        # so compare kinds, not counts: both paths crossed the boundary
        assert pool.completed.get("classify", 0) >= 1, dict(pool.completed)
        assert pool.completed.get("simulate_batch", 0) >= 1, dict(pool.completed)
        client = ServeClient(url)
        health = client.healthz()
        assert health["workers"]["alive"] == 2, health
        assert len(health["workers"]["per_worker"]) == 2, health
        assert health["trace"]["ring_capacity"] > 0, health
        trace = _check_tracing(client)
        _check_merged_metrics(client)
        # the page is read from the snapshots on task replies: scraping
        # must not have sent the workers a task of its own
        assert set(pool.completed) <= {"classify", "simulate_batch"}, \
            dict(pool.completed)
        artifact = _write_span_artifact(trace)
    finally:
        srv.stop()
    print(f"serve scale smoke OK: {report.to_json()}")
    print(f"span artifact: {artifact} ({trace['span_count']} spans, "
          f"trace {trace['trace_id']})")


if __name__ == "__main__":
    main()
