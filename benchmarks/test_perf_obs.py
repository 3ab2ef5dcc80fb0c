"""Observability overhead guard: instrumented engine vs an untraced twin.

The zero-cost-when-off contract of :mod:`repro.obs`: with the global sink
disabled and no metrics enabled, the instrumented hot path (one
``trace.enabled`` attribute check per step, inside the recording stage)
must stay within **3%** of a pipeline with the trace seam physically
removed.  The twin is built here — a ``RecordingStage`` subclass with the
pre-obs step body — so the diff under test is exactly the seam.

Also asserts the ISSUE's replay acceptance oracle at benchmark scale:
a traced ensemble run's JSONL reconstructs the exact P_t series and
verdicts of the live run.

The span layer extends the same budget: with a span sink *and* the
metrics registry enabled, the run-level spans (one ``sim.run`` per run —
never per-step instrumentation) must keep the engine within 3% of the
fully-disabled configuration.
"""

import time

import numpy as np
import pytest

from repro import obs
from repro.core.ensemble import EnsembleSimulator
from repro.core.pipeline import DEFAULT_PIPELINE, RecordingStage, StagePipeline
from repro.errors import SimulationError
from repro.graphs import generators as gen
from repro.network import NetworkSpec
from repro.obs import RingBufferSink, get_tracer, replay_trace
from repro.obs.spans import get_span_sink

REPLICAS = 32
HORIZON = 200
ROUNDS = 5


def gadget_spec():
    g, entries, exits = gen.bottleneck_gadget(4, 4, 2)
    return NetworkSpec.classical(
        g, {v: 1 for v in entries}, {v: 1 for v in exits}
    )


class BaselineRecording(RecordingStage):
    """The recording stage with the trace seam removed (pre-obs body)."""

    def run(self, host, st) -> None:
        Q = host.Q
        if host.config.validate_every_step and (Q < 0).any():
            raise SimulationError("negative queue after step")
        host.t += 1
        host.history.append(Q, st.injected, st.transmitted, st.lost, st.delivered)


BASELINE_PIPELINE = StagePipeline(tuple(
    BaselineRecording() if stage.name == "recording" else stage
    for stage in DEFAULT_PIPELINE.stages
))


class BaselineEnsemble(EnsembleSimulator):
    pipeline = BASELINE_PIPELINE


def _run(cls, spec):
    return cls(spec, REPLICAS, seeds=list(range(REPLICAS))).run(HORIZON)


class TestDisabledOverhead:
    def test_instrumented_within_3pct_of_twin(self, perf_asserts):
        """min-of-N, runs interleaved so drift hits both twins equally."""
        assert get_tracer().enabled is False, (
            "overhead benchmark needs the global sink disabled"
        )
        spec = gadget_spec()
        # warm-up: first-call caches on both variants, outside timing
        _run(BaselineEnsemble, spec)
        _run(EnsembleSimulator, spec)

        base_times, inst_times = [], []
        for _ in range(ROUNDS):
            t0 = time.perf_counter()
            _run(BaselineEnsemble, spec)
            base_times.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            res = _run(EnsembleSimulator, spec)
            inst_times.append(time.perf_counter() - t0)

        # instrumentation must not change the dynamics either
        twin = _run(BaselineEnsemble, spec)
        np.testing.assert_array_equal(res.total_queued, twin.total_queued)

        ratio = min(inst_times) / min(base_times)
        print(f"\nbaseline: {min(base_times):.4f}s  "
              f"instrumented: {min(inst_times):.4f}s  ratio: {ratio:.4f}")
        if perf_asserts:
            assert ratio <= 1.03, (
                f"disabled observability costs {100 * (ratio - 1):.1f}% "
                f"(budget: 3%)"
            )


class TestEnabledSpanOverhead:
    def test_spans_and_metrics_within_3pct(self, perf_asserts):
        """Spans enabled (ring sink + registry) vs everything off.

        Run-level spans fire once per ``run()``, not per step, so the
        budget is the same 3% as the disabled case — interleaved
        min-of-N like the twin benchmark above.
        """
        assert get_span_sink().enabled is False
        spec = gadget_spec()
        ring = RingBufferSink(capacity=4096)
        _run(EnsembleSimulator, spec)  # warm-up, spans off

        off_times, on_times = [], []
        for _ in range(ROUNDS):
            t0 = time.perf_counter()
            off_res = _run(EnsembleSimulator, spec)
            off_times.append(time.perf_counter() - t0)
            restore = obs.configure(metrics=True, spans=ring)
            try:
                t0 = time.perf_counter()
                on_res = _run(EnsembleSimulator, spec)
                on_times.append(time.perf_counter() - t0)
            finally:
                obs.configure(**restore)

        assert get_span_sink().enabled is False  # restore round-tripped
        assert any(r["name"] == "sim.run" for r in ring.records)
        np.testing.assert_array_equal(on_res.total_queued,
                                      off_res.total_queued)

        ratio = min(on_times) / min(off_times)
        print(f"\nspans off: {min(off_times):.4f}s  "
              f"on: {min(on_times):.4f}s  ratio: {ratio:.4f}")
        if perf_asserts:
            assert ratio <= 1.03, (
                f"enabled spans cost {100 * (ratio - 1):.1f}% (budget: 3%)"
            )


class TestTracedReplayAtScale:
    def test_traced_ensemble_replays_exactly(self):
        from repro.core import SimulationConfig

        spec = gadget_spec()
        ring = RingBufferSink()
        ens = EnsembleSimulator(spec, REPLICAS, seeds=list(range(REPLICAS)),
                                config=SimulationConfig(trace=ring))
        res = ens.run(HORIZON)
        rr = replay_trace(ring.records)
        assert rr.replicas == REPLICAS
        for r in range(REPLICAS):
            np.testing.assert_array_equal(rr.trajectories[r].potentials,
                                          res.trajectory(r).potentials)
            assert rr.verdicts[r].bounded == res.verdicts[r].bounded


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
