"""Trace replay: a traced run's events reconstruct P_t and the verdict.

The acceptance oracle of the trace layer: replaying a trace yields the
*exact* potential series and stability verdict of the live run, without
re-simulating — also when the trace holds more runs than one.
"""

import numpy as np
import pytest

from repro.core import SimulationConfig, Simulator
from repro.core.ensemble import EnsembleSimulator
from repro.errors import ObservabilityError
from repro.graphs import generators
from repro.network import NetworkSpec
from repro.obs import JsonlSink, RingBufferSink, replay_trace


def _spec(out_rate=2):
    g = generators.grid(3, 3)
    return NetworkSpec.classical(g, {0: 1}, {8: out_rate})


class TestScalarReplay:
    def test_replay_matches_live_potentials_and_verdict(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with JsonlSink(path) as sink:
            res = Simulator(_spec(), config=SimulationConfig(
                horizon=80, seed=3, trace=sink)).run()
        rr = replay_trace(path)
        assert rr.backend == "scalar"
        np.testing.assert_array_equal(rr.trajectory.potentials,
                                      res.trajectory.potentials)
        assert rr.verdict.bounded == res.verdict.bounded

    def test_replay_of_divergent_run(self, tmp_path):
        # in-rate 3 into a path that can only carry 1 packet/step: diverges
        g = generators.path(3)
        spec = NetworkSpec.classical(g, {0: 3}, {2: 1})
        ring = RingBufferSink()
        res = Simulator(spec, config=SimulationConfig(
            horizon=120, seed=0, trace=ring)).run()
        rr = replay_trace(ring.records)
        assert rr.verdict.bounded == res.verdict.bounded is False
        np.testing.assert_array_equal(rr.trajectory.potentials,
                                      res.trajectory.potentials)

    def test_replay_accepts_record_lists(self):
        ring = RingBufferSink()
        res = Simulator(_spec(), config=SimulationConfig(
            horizon=40, seed=5, trace=ring)).run()
        rr = replay_trace(ring.records)
        np.testing.assert_array_equal(rr.trajectory.potentials,
                                      res.trajectory.potentials)


class TestBatchedReplay:
    def test_replay_matches_every_replica(self):
        ring = RingBufferSink()
        ens = EnsembleSimulator(_spec(), 6, seed=9, config=SimulationConfig(
            trace=ring))
        res = ens.run(60)
        rr = replay_trace(ring.records)
        assert rr.backend == "batched"
        assert rr.replicas == 6
        for i in range(6):
            np.testing.assert_array_equal(rr.trajectories[i].potentials,
                                          res.trajectory(i).potentials)
            assert rr.verdicts[i].bounded == res.verdicts[i].bounded


class TestSeveralRuns:
    """Two runs in one trace: replay rebuilds the first one exactly."""

    def _runs(self, sink):
        first = Simulator(_spec(), config=SimulationConfig(
            horizon=60, seed=3, trace=sink)).run()
        spec = NetworkSpec.classical(generators.path(3), {0: 3}, {2: 1})
        Simulator(spec, config=SimulationConfig(
            horizon=60, seed=3, trace=sink)).run()
        return first

    def test_ring_with_two_specs(self):
        ring = RingBufferSink()
        first = self._runs(ring)
        rr = replay_trace(ring.records)
        np.testing.assert_array_equal(rr.trajectory.potentials,
                                      first.trajectory.potentials)
        np.testing.assert_array_equal(rr.trajectory.total_queued,
                                      first.trajectory.total_queued)
        assert rr.verdict.bounded == first.verdict.bounded

    def test_appended_jsonl_file(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        with JsonlSink(path) as sink:
            first = Simulator(_spec(), config=SimulationConfig(
                horizon=60, seed=3, trace=sink)).run()
        with JsonlSink(path, append=True) as sink:
            Simulator(_spec(), config=SimulationConfig(
                horizon=60, seed=4, trace=sink)).run()
        rr = replay_trace(path)
        np.testing.assert_array_equal(rr.trajectory.potentials,
                                      first.trajectory.potentials)
        assert rr.verdict.bounded == first.verdict.bounded


class TestReplayErrors:
    def test_empty_trace_raises(self):
        with pytest.raises(ObservabilityError):
            replay_trace([])

    def test_trace_without_steps_raises(self):
        start = {"type": "event", "name": "run_start", "trace_id": "t",
                 "span_id": "1", "attrs": {"n": 3}}
        with pytest.raises(ObservabilityError, match="no step events"):
            replay_trace([start])
