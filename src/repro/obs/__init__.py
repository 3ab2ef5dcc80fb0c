"""repro.obs — the shared observability substrate.

Three pieces, one package:

* **Spans and events** (:mod:`repro.obs.spans`) — the one event model.
  Timed, parent-linked spans (``sim.run`` and, in a traced run, its
  per-stage ``sim.stage`` children; ``flow.solve``, ``sweep``, the serve
  tier's ``ingress`` ... ``worker``), and events that happened inside
  them (a run's ``run_start`` / ``step`` / ``run_end``, a sweep's
  ``sweep_start`` / ``point_done`` / ``chunk_failed``), written to a
  :class:`TraceSink` (:mod:`repro.obs.trace`: JSONL file, in-memory ring
  buffer, or null).  The CLI's ``--profile`` prints a traced run's
  ``sim.run`` and ``sim.stage`` spans as a waterfall.
* **Metrics** (:mod:`repro.obs.metrics`) — a process-local registry of
  counters, gauges, and fixed-bucket histograms with labeled children,
  exportable as a dict snapshot or Prometheus text.
* **Replay** (:mod:`repro.obs.replay`) — a traced run's events
  reconstruct the exact ``P_t`` series and stability verdict.

Zero cost when off
------------------
Everything starts disabled: the global span sink is :data:`NULL_SINK`
(``enabled = False``), the global registry is disabled, and events and
stage spans are opt-in per run (``SimulationConfig.trace``).  An
untraced step pays two attribute checks (the pipeline's stage-time
table and the engine's event span); ``benchmarks/test_perf_obs.py``
guards the total at < 3% against an engine with both removed.

``configure()`` sets the process-global state — the one span sink and
the registry — and round-trips::

    import repro.obs as obs

    sink = obs.JsonlSink("spans.jsonl")
    prev = obs.configure(spans=sink, metrics=True)
    try:
        ...                   # every span is now recorded + measured
    finally:
        obs.configure(**prev) # restore the previous state
        sink.close()          # the sink is the caller's to close

Events go only to a sink a caller passes explicitly
(``SimulationConfig(trace=sink)``, ``run_sweep(trace=...)``, ``--trace``
on the CLI); the spans opened on that sink, and their children, land
there too.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "..errors": ("ObservabilityError",),
    ".trace": ("TraceSink", "NullSink", "NULL_SINK", "JsonlSink", "RingBufferSink",
               "resolve_sink", "config_fingerprint", "read_trace", "WALL_CLOCK_FIELDS"),
    ".metrics": ("MetricsRegistry", "Counter", "Gauge", "Histogram", "NULL_INSTRUMENT",
                 "DEFAULT_LATENCY_BUCKETS", "PROMETHEUS_CONTENT_TYPE", "get_registry"),
    ".spans": ("SPAN_SECONDS_METRIC", "Span", "span", "current_span", "current_trace_id",
               "new_trace_id", "get_span_sink", "set_span_sink", "span_records",
               "span_tree", "normalized_tree", "render_waterfall"),
    ".merge": ("add_snapshots", "merge_worker_snapshots", "render_snapshot",
               "parse_exposition", "counter_regressions"),
    ".replay": ("ReplayResult", "replay_trace"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
__all__.insert(0, "configure")

_UNSET = object()


def configure(*, metrics=_UNSET, spans=_UNSET) -> dict:
    """Configure process-global observability; returns the previous state.

    Parameters
    ----------
    metrics:
        ``True``/``False`` — enable or disable the global registry.
    spans:
        ``None``/``False`` — disable (install :data:`NULL_SINK`); a
        :class:`TraceSink` — install it as the global span sink (it stays
        the caller's to close).  A path is refused: nothing would close
        the file.

    The returned dict maps each argument you passed to its previous value
    and round-trips: ``prev = configure(spans=..., metrics=...)`` followed
    by ``configure(**prev)`` restores the state exactly.  A refused
    ``spans`` raises before anything changes.
    """
    from repro.obs.metrics import get_registry
    from repro.obs.spans import set_span_sink
    from repro.obs.trace import resolve_sink

    if spans is not _UNSET:
        sink = resolve_sink(spans, "spans", paths=False)
    previous: dict = {}
    if metrics is not _UNSET:
        registry = get_registry()
        previous["metrics"] = registry.enabled
        registry.enabled = bool(metrics)
    if spans is not _UNSET:
        previous["spans"] = set_span_sink(sink)
    return previous
