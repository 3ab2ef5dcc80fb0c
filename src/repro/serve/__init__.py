"""repro.serve — the simulation-as-a-service layer.

A stdlib-only asyncio HTTP/JSON front end over the repo's batched
simulation stack:

* :mod:`repro.serve.server` — the :class:`ReproServer` asyncio HTTP
  server (``/v1/classify``, ``/v1/simulate``, ``/v1/sweeps``,
  ``/healthz``, ``/metrics``) plus :class:`BackgroundServer` for
  embedding it in tests and scripts.
* :mod:`repro.serve.batching` — the micro-batching coalescer: concurrent
  ``/v1/simulate`` requests with the same config fingerprint fold into
  one :class:`~repro.core.ensemble.EnsembleSimulator` batch, so server
  throughput inherits the vectorized pipeline's speedup while every
  response stays bit-identical to a single :class:`~repro.core.engine.Simulator`
  run.
* :mod:`repro.serve.workers` — the multi-process worker tier: spawn-
  context worker processes with warm imports behind a futures interface,
  classify requests sharded by fingerprint range (each worker owns a
  private :class:`~repro.sweep.cache.FeasibilityCache` shard), and
  requeue-and-respawn recovery when a worker dies mid-task.
* :mod:`repro.serve.admission` — bounded-queue + token-bucket admission
  control: overload degrades to fast ``429 + Retry-After`` responses,
  never to unbounded memory.
* :mod:`repro.serve.jobs` — async sweep jobs persisted through the
  crash-safe :mod:`repro.sweep.checkpoint` JSONL format; a restarted
  server resumes in-flight sweeps from their torn-tail-tolerant logs.
* :mod:`repro.serve.client` — a thin stdlib-``urllib`` client library.
* :mod:`repro.serve.codec` — the JSON wire format (network specs in,
  reports/verdicts out).

Everything is stdlib + the repo's own modules: no web framework, no new
dependencies.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "..errors": ("ServeError",),
    ".admission": ("AdmissionController",),
    ".batching": ("MicroBatcher", "direct_simulate"),
    ".client": ("ServeClient",),
    ".codec": ("parse_spec", "parse_simulate_request", "report_to_json",
               "simulation_response"),
    ".jobs": ("JobManager", "JobState", "grid_from_request", "summarize_rows"),
    ".server": ("ReproServer", "BackgroundServer"),
    ".workers": ("WorkerPool",),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
