"""Observability overhead guard: instrumented engine vs an untraced twin.

The zero-cost-when-off contract of :mod:`repro.obs`: with no trace sink
and no metrics enabled, the instrumented hot path (two attribute checks
per step: the pipeline's stage-time table and the engine's event span
for the ``step`` event) must stay within **3%** of an engine with the
trace seam physically removed.  The twin is built here — an
``EnsembleSimulator`` subclass whose ``_step`` is the pre-obs body, which
runs the stages itself — and both sides run the stage pipeline
(``numeric_fastpath=False``), so the diff under test is exactly the
seam.

Also asserts the ISSUE's replay acceptance oracle at benchmark scale:
a traced ensemble run's JSONL reconstructs the exact P_t series and
verdicts of the live run.

The span layer extends the same budget: with a span sink *and* the
metrics registry enabled, the run-level spans (one ``sim.run`` per run —
never per-step instrumentation) must keep the engine within 3% of the
fully-disabled configuration.

Both gates read the median of per-round ratios over 40 interleaved
rounds.  One run takes about 0.03 s, so a min of 5 runs swung 0.81–1.29
on a shared 2-core x86_64 host while the interleaved median held at
0.99–1.03.
"""

import statistics
import time

import numpy as np
import pytest

from repro import obs
from repro.core import SimulationConfig
from repro.core.ensemble import EnsembleSimulator
from repro.core.pipeline import StepState
from repro.graphs import generators as gen
from repro.network import NetworkSpec
from repro.obs import RingBufferSink, replay_trace
from repro.obs.spans import get_span_sink

REPLICAS = 32
HORIZON = 200
ROUNDS = 40


def gadget_spec():
    g, entries, exits = gen.bottleneck_gadget(4, 4, 2)
    return NetworkSpec.classical(
        g, {v: 1 for v in entries}, {v: 1 for v in exits}
    )


class BaselineEnsemble(EnsembleSimulator):
    """The engine with the trace seam removed: a step runs the stages
    without the pipeline's stage-time check or the event-span check."""

    def _step(self):
        st = StepState(t=self.t)
        if self.config.record_events:
            st.q_start = self.Q[0].copy()
        for stage in self.pipeline.stages:
            stage.run(self, st)
        return st


def _run(cls, spec, config=None):
    return cls(spec, REPLICAS, seeds=list(range(REPLICAS)),
               config=config).run(HORIZON)


def _timed_run(cls, spec, config=None):
    t0 = time.perf_counter()
    res = _run(cls, spec, config)
    return time.perf_counter() - t0, res


def interleaved_median_ratio(base, test):
    """Median of ``test / base`` wall time over ``ROUNDS`` back-to-back pairs.

    ``base`` and ``test`` each return ``(seconds, result)``.  The side that
    runs first alternates by round, so drift and ordering hit both alike.
    Returns the median ratio and each side's last result.
    """
    ratios = []
    for r in range(ROUNDS):
        if r % 2:
            (t_test, test_res), (t_base, base_res) = test(), base()
        else:
            (t_base, base_res), (t_test, test_res) = base(), test()
        ratios.append(t_test / t_base)
    return statistics.median(ratios), base_res, test_res


class TestDisabledOverhead:
    def test_instrumented_within_3pct_of_twin(self, perf_asserts):
        """Median ratio of interleaved rounds, so drift hits both twins."""
        # both sides on the stage pipeline, untraced
        config = SimulationConfig(numeric_fastpath=False)
        assert config.trace is None, "overhead benchmark needs tracing off"
        spec = gadget_spec()
        # warm-up: first-call caches on both variants, outside timing
        _run(BaselineEnsemble, spec, config)
        _run(EnsembleSimulator, spec, config)

        ratio, twin, res = interleaved_median_ratio(
            lambda: _timed_run(BaselineEnsemble, spec, config),
            lambda: _timed_run(EnsembleSimulator, spec, config),
        )

        # instrumentation must not change the dynamics either
        np.testing.assert_array_equal(res.total_queued, twin.total_queued)

        print(f"\ninstrumented/baseline: median ratio {ratio:.4f} "
              f"over {ROUNDS} rounds")
        if perf_asserts:
            assert ratio <= 1.03, (
                f"disabled observability costs {100 * (ratio - 1):.1f}% "
                f"(budget: 3%)"
            )


class TestEnabledSpanOverhead:
    def test_spans_and_metrics_within_3pct(self, perf_asserts):
        """Spans enabled (ring sink + registry) vs everything off.

        Run-level spans fire once per ``run()``, not per step, so the
        budget is the same 3% as the disabled case — the same interleaved
        median as the twin benchmark above.
        """
        assert get_span_sink().enabled is False
        spec = gadget_spec()
        ring = RingBufferSink(capacity=4096)
        _run(EnsembleSimulator, spec)  # warm-up, spans off

        def spans_on():
            restore = obs.configure(metrics=True, spans=ring)
            try:
                return _timed_run(EnsembleSimulator, spec)
            finally:
                obs.configure(**restore)

        ratio, off_res, on_res = interleaved_median_ratio(
            lambda: _timed_run(EnsembleSimulator, spec), spans_on
        )

        assert get_span_sink().enabled is False  # restore round-tripped
        assert any(r["name"] == "sim.run" for r in ring.records)
        np.testing.assert_array_equal(on_res.total_queued,
                                      off_res.total_queued)

        print(f"\nspans on/off: median ratio {ratio:.4f} over {ROUNDS} rounds")
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
