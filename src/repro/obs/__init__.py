"""repro.obs — the shared observability substrate.

Four pieces, one package:

* **Spans and events** (:mod:`repro.obs.spans`) — the one event model.
  Timed, parent-linked spans (``sim.run``, ``flow.solve``, ``sweep``,
  the serve tier's ``ingress`` ... ``worker``), and events that happened
  inside them (a run's ``run_start`` / ``step`` / ``run_end``, a sweep's
  ``sweep_start`` / ``point_done`` / ``chunk_failed``), written to a
  :class:`TraceSink` (:mod:`repro.obs.trace`: JSONL file, in-memory ring
  buffer, or null).
* **Metrics** (:mod:`repro.obs.metrics`) — a process-local registry of
  counters, gauges, and fixed-bucket histograms with labeled children,
  exportable as a dict snapshot or Prometheus text.
* **Profiling** (:mod:`repro.obs.profile`) — the stage pipeline's timing
  seam rendered as ``profile_report()`` tables (surfaced as ``--profile``
  on the CLI).
* **Replay** (:mod:`repro.obs.replay`) — a traced run's events
  reconstruct the exact ``P_t`` series and stability verdict.

Zero cost when off
------------------
Everything starts disabled: the global span sink is :data:`NULL_SINK`
(``enabled = False``), the global registry is disabled, and profiling is
opt-in per config.  The instrumented hot paths pay one attribute check
per step; ``benchmarks/test_perf_obs.py`` guards the total at < 3%
against an uninstrumented twin pipeline.

``configure()`` sets the process-global state — the one span sink and
the registry — and round-trips::

    import repro.obs as obs

    prev = obs.configure(spans="spans.jsonl", metrics=True)
    ...                       # every span is now recorded + measured
    obs.configure(**prev)     # restore the previous state

Events go only to a sink a caller passes explicitly
(``SimulationConfig(trace=sink)``, ``run_sweep(trace=...)``, ``--trace``
on the CLI); the spans opened on that sink, and their children, land
there too.
"""

from __future__ import annotations

from repro.errors import ObservabilityError
from repro.obs.merge import (
    add_snapshots,
    counter_regressions,
    merge_worker_snapshots,
    parse_exposition,
    render_snapshot,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_INSTRUMENT,
    PROMETHEUS_CONTENT_TYPE,
    get_registry,
)
from repro.obs.profile import profile_report, profile_rows
from repro.obs.replay import ReplayResult, replay_trace
from repro.obs.spans import (
    SPAN_SECONDS_METRIC,
    Span,
    current_span,
    current_trace_id,
    get_span_sink,
    new_trace_id,
    normalized_tree,
    render_waterfall,
    set_span_sink,
    span,
    span_records,
    span_tree,
)
from repro.obs.trace import (
    NULL_SINK,
    WALL_CLOCK_FIELDS,
    JsonlSink,
    NullSink,
    RingBufferSink,
    TraceSink,
    config_fingerprint,
    read_trace,
    resolve_sink,
)

__all__ = [
    "configure",
    "ObservabilityError",
    # trace
    "TraceSink",
    "NullSink",
    "NULL_SINK",
    "JsonlSink",
    "RingBufferSink",
    "resolve_sink",
    "config_fingerprint",
    "read_trace",
    "WALL_CLOCK_FIELDS",
    # metrics
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "NULL_INSTRUMENT",
    "DEFAULT_LATENCY_BUCKETS",
    "PROMETHEUS_CONTENT_TYPE",
    "get_registry",
    # spans
    "SPAN_SECONDS_METRIC",
    "Span",
    "span",
    "current_span",
    "current_trace_id",
    "new_trace_id",
    "get_span_sink",
    "set_span_sink",
    "span_records",
    "span_tree",
    "normalized_tree",
    "render_waterfall",
    # snapshot merging
    "add_snapshots",
    "merge_worker_snapshots",
    "render_snapshot",
    "parse_exposition",
    "counter_regressions",
    # profiling
    "profile_report",
    "profile_rows",
    # replay
    "ReplayResult",
    "replay_trace",
]

_UNSET = object()


def configure(*, metrics=_UNSET, spans=_UNSET) -> dict:
    """Configure process-global observability; returns the previous state.

    Parameters
    ----------
    metrics:
        ``True``/``False`` — enable or disable the global registry.
    spans:
        ``None``/``False`` — disable (install :data:`NULL_SINK`); a
        ``str``/``Path`` — record spans to that JSONL file; a
        :class:`TraceSink` — install it as the global span sink.

    The returned dict maps each argument you passed to its previous value
    and round-trips: ``prev = configure(spans=..., metrics=...)`` followed
    by ``configure(**prev)`` restores the state exactly.
    """
    previous: dict = {}
    if metrics is not _UNSET:
        registry = get_registry()
        previous["metrics"] = registry.enabled
        registry.enabled = bool(metrics)
    if spans is not _UNSET:
        previous["spans"] = set_span_sink(resolve_sink(spans, "spans"))
    return previous
