"""repro.loadgen — the load-generation harness for the serve tier.

Holds the serve layer to the paper's own standard: stability under an
*open-loop* arrival process.  A schedule of arrival offsets is fixed up
front (:mod:`~repro.loadgen.schedules` — Poisson, synchronized bursts,
constant rate), an asyncio driver fires thousands of concurrent clients
at those offsets over minimal stdlib HTTP
(:mod:`~repro.loadgen.runner`), and the per-request latency/status
records roll up into a :class:`~repro.loadgen.runner.LoadReport` that
:mod:`~repro.loadgen.slo` gates with p50/p99 latency, shed-rate, and
throughput objectives.

A closed-loop mode (fixed concurrency, next request on completion) is
included for capacity measurement — that is what
``benchmarks/test_perf_serve_scale.py`` uses to show classify
throughput scaling across ``repro serve --workers N``.

Stdlib only, deterministic schedules (seeded ``random.Random``), no new
dependencies.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "..errors": ("LoadGenError",),
    ".runner": ("LoadReport", "RequestResult", "RequestSpec", "classify_request",
                "simulate_request", "percentile", "run_open_loop", "run_closed_loop"),
    ".schedules": ("poisson_schedule", "burst_schedule", "constant_schedule"),
    ".slo": ("SLO", "check_slo", "assert_slo"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
