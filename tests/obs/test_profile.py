"""Per-stage wall time as spans: coverage, the failure seam, and who
gets none.

A traced run (``SimulationConfig(trace=sink)``) emits, under its
``sim.run`` span, one ``sim.stage`` child per pipeline stage with attrs
``{"kind": <stage>, "calls": <count>}`` and the stage's total time as
``duration_s``, on both backends; a stage that *raises* still leaves its
partial time (the pipeline books in a ``finally``).  Untraced runs, and
runs that only see a global span ring, emit none.
"""

import numpy as np
import pytest

from repro import obs
from repro.core import SimulationConfig, Simulator
from repro.core.ensemble import EnsembleSimulator
from repro.core.pipeline import STAGE_NAMES
from repro.graphs import generators
from repro.network import NetworkSpec
from repro.obs import RingBufferSink


def _spec():
    g = generators.grid(3, 3)
    return NetworkSpec.classical(g, {0: 1}, {8: 2})


HORIZON = 40


def _spans(records, name):
    return [r for r in records if r["type"] == "span" and r["name"] == name]


def _stage_spans(records):
    """``{stage name: sim.stage record}``, checked to hang off ``sim.run``."""
    (run,) = _spans(records, "sim.run")
    stages = _spans(records, "sim.stage")
    assert all(s["parent_id"] == run["span_id"] for s in stages)
    assert all(s["trace_id"] == run["trace_id"] for s in stages)
    assert sum(s["duration_s"] for s in stages) <= run["duration_s"]
    by_kind = {s["attrs"]["kind"]: s for s in stages}
    assert len(by_kind) == len(stages)  # each stage once
    return by_kind


class TestStageCoverage:
    def test_scalar_every_stage_once_calls_eq_T(self):
        ring = RingBufferSink()
        Simulator(_spec(), config=SimulationConfig(
            horizon=HORIZON, seed=1, trace=ring)).run()
        stages = _stage_spans(ring.records)
        assert list(stages) == list(STAGE_NAMES)  # pipeline order
        for name in STAGE_NAMES:
            assert stages[name]["attrs"] == {"kind": name, "calls": HORIZON}
            assert stages[name]["duration_s"] >= 0.0

    def test_batched_every_stage_once_calls_eq_T(self):
        ring = RingBufferSink()
        EnsembleSimulator(_spec(), 4, seed=1, config=SimulationConfig(
            trace=ring)).run(HORIZON)
        stages = _stage_spans(ring.records)
        assert list(stages) == list(STAGE_NAMES)
        for name in STAGE_NAMES:
            assert stages[name]["attrs"]["calls"] == HORIZON

    def test_disabled_profiling_records_nothing(self, monkeypatch):
        """An untraced run on the pipeline times no stage and emits no
        stage span."""
        import repro.core.pipeline as pipeline
        from repro.obs.spans import Span

        calls = []
        monkeypatch.setattr(pipeline, "perf_counter",
                            lambda: calls.append("tick") or 0.0)
        monkeypatch.setattr(Span, "child",
                            lambda self, *a, **kw: calls.append("child"))
        sim = Simulator(_spec(), config=SimulationConfig(
            horizon=10, seed=1, numeric_fastpath=False))
        sim.run()
        assert calls == [] and sim._stage_times is None

    def test_global_span_ring_gets_sim_run_and_no_stages(self):
        """The server's ring and the e2e traced pass are such runs: spans
        on, but no ``config.trace``, so no events and no stage spans."""
        ring = RingBufferSink()
        prev = obs.configure(spans=ring)
        try:
            Simulator(_spec(), config=SimulationConfig(
                horizon=HORIZON, seed=1, numeric_fastpath=False)).run()
            EnsembleSimulator(_spec(), 3, seed=1, config=SimulationConfig(
                numeric_fastpath=False)).run(HORIZON)
        finally:
            obs.configure(**prev)
        assert [r["name"] for r in ring.records] == ["sim.run", "sim.run"]
        assert all(r["attrs"]["engine"] == "pipeline" for r in ring.records)


class _BoomArrivals:
    """Exact classical injections until step ``boom_at``, then raise."""

    def __init__(self, in_vec: np.ndarray, boom_at: int) -> None:
        self.in_vec = in_vec
        self.boom_at = boom_at

    def sample(self, t: int, rng) -> np.ndarray:
        if t == self.boom_at:
            raise RuntimeError("stage blew up")
        return self.in_vec


class TestFailureSeam:
    def test_raising_stage_still_records_partial_time(self):
        """After a raise at step k the stages *before* the raising one
        (and the raising one itself) show k+1 calls; later stages show k."""
        spec = _spec()
        k = 5
        in_vec = np.zeros(spec.n, dtype=np.int64)
        in_vec[0] = 1
        ring = RingBufferSink()
        cfg = SimulationConfig(horizon=HORIZON, seed=1, trace=ring,
                               arrivals=_BoomArrivals(in_vec, boom_at=k))
        sim = Simulator(spec, config=cfg)
        with pytest.raises(RuntimeError, match="blew up"):
            sim.run()
        stages = _stage_spans(ring.records)
        (run,) = _spans(ring.records, "sim.run")
        assert run["attrs"]["error"] == "RuntimeError"
        assert stages["topology"]["attrs"]["calls"] == k + 1
        assert stages["injection"]["attrs"]["calls"] == k + 1  # partial: it raised
        assert stages["injection"]["duration_s"] >= 0.0
        for name in STAGE_NAMES[2:]:
            assert stages[name]["attrs"]["calls"] == k, name
        assert sim._stage_times is None and sim._event_span is None
