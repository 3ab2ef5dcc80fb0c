"""Trace layer: sinks, determinism, and the wall-clock field contract.

The load-bearing property (ISSUE satellite): two runs of the same
``(spec, seed)`` produce byte-identical JSONL traces once the fields in
``WALL_CLOCK_FIELDS`` are stripped — and those fields are monotone.
"""

import json

import pytest

from repro import obs
from repro.core import SimulationConfig, Simulator
from repro.errors import ObservabilityError
from repro.graphs import generators
from repro.network import NetworkSpec
from repro.obs import (
    NULL_SINK,
    WALL_CLOCK_FIELDS,
    JsonlSink,
    RingBufferSink,
    config_fingerprint,
    get_tracer,
    read_trace,
    set_tracer,
)


def _spec():
    g = generators.grid(3, 3)
    return NetworkSpec.classical(g, {0: 1}, {8: 2})


def _traced_run(sink, seed=7, horizon=50):
    cfg = SimulationConfig(horizon=horizon, seed=seed, trace=sink)
    return Simulator(_spec(), config=cfg).run()


def _strip(record: dict) -> dict:
    return {k: v for k, v in record.items() if k not in WALL_CLOCK_FIELDS}


def _canonical_lines(records) -> list[str]:
    return [json.dumps(_strip(r), sort_keys=True, separators=(",", ":"))
            for r in records]


class TestDeterminism:
    def test_same_seed_twice_is_byte_identical_modulo_wall_clock(self, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for p in paths:
            with JsonlSink(p) as sink:
                _traced_run(sink)
        a, b = (read_trace(p) for p in paths)
        assert _canonical_lines(a) == _canonical_lines(b)
        # and the stripped fields really were the only difference
        assert len(a) == len(b) == 50 + 2  # steps + run_start + run_end

    def test_wall_clock_fields_are_monotone(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlSink(path) as sink:
            _traced_run(sink)
        stamps = [r["ts"] for r in read_trace(path)]
        assert all(b >= a for a, b in zip(stamps, stamps[1:]))

    def test_ring_buffer_agrees_with_file_record_for_record(self, tmp_path):
        path = tmp_path / "t.jsonl"
        ring = RingBufferSink()
        with JsonlSink(path) as sink:
            _traced_run(sink)
        _traced_run(ring)
        file_recs, ring_recs = read_trace(path), ring.records
        assert len(file_recs) == len(ring_recs)
        assert _canonical_lines(file_recs) == _canonical_lines(ring_recs)

    def test_different_seeds_differ(self, tmp_path):
        a, b = RingBufferSink(), RingBufferSink()
        _traced_run(a, seed=1)
        _traced_run(b, seed=2)
        assert _canonical_lines(a.records)[0] != _canonical_lines(b.records)[0]


class TestActiveEdges:
    """``active_edges`` counts distinct links per replica, single runs and
    ensembles alike — two packets crossing one link count it once."""

    def _spec(self):
        from repro.network import RevelationPolicy

        return NetworkSpec.generalized(
            generators.complete(4), {0: 2, 1: 2}, {2: 1, 3: 1},
            retention=2, revelation=RevelationPolicy.ZERO,
        )

    def _steps(self, records):
        return [r["active_edges"] for r in records if r["type"] == "step"]

    @pytest.mark.parametrize("replicas", [1, 3])
    def test_ensemble_counts_distinct_edges(self, replicas):
        from repro.core.engine import LinkCapacityMode
        from repro.core.ensemble import EnsembleSimulator

        seeds = [5, 6, 7][:replicas]
        ring = RingBufferSink()
        EnsembleSimulator(
            self._spec(), replicas, seeds=seeds,
            config=SimulationConfig(link_capacity=LinkCapacityMode.PER_DIRECTION,
                                    trace=ring),
        ).run(12)
        batched = self._steps(ring.records)
        for r, seed in enumerate(seeds):
            cfg = SimulationConfig(seed=seed, record_events=True,
                                   link_capacity=LinkCapacityMode.PER_DIRECTION,
                                   trace=RingBufferSink())
            sim = Simulator(self._spec(), config=cfg)
            sim.run(12)
            distinct = [len(set(ev.edge_ids.tolist())) for ev in sim.events]
            assert self._steps(cfg.trace.records) == distinct
            assert [row[r] for row in batched] == distinct
        # the case is one where transmissions outnumber links
        transmitted = [x for x in sim.result().trajectory.transmitted]
        assert any(t > d for t, d in zip(transmitted, distinct))


class TestJsonlSink:
    def test_emit_after_close_raises(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink.close()
        with pytest.raises(ObservabilityError, match="after close"):
            sink.emit({"type": "step"})

    def test_append_mode_accumulates(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlSink(path) as sink:
            sink.emit({"a": 1})
        with JsonlSink(path, append=True) as sink:
            sink.emit({"a": 2})
        assert [r["a"] for r in read_trace(path)] == [1, 2]

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"a":1}\n{"a":2}\n{"a":3', encoding="utf-8")
        assert [r["a"] for r in read_trace(path)] == [1, 2]

    def test_corrupt_middle_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"a":1}\nnot json\n{"a":3}\n', encoding="utf-8")
        with pytest.raises(ObservabilityError, match="corrupt"):
            read_trace(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ObservabilityError, match="no trace file"):
            read_trace(tmp_path / "absent.jsonl")


class TestRingBufferSink:
    def test_capacity_evicts_oldest_and_counts_dropped(self):
        ring = RingBufferSink(capacity=3)
        for i in range(5):
            ring.emit({"i": i})
        assert [r["i"] for r in ring.records] == [2, 3, 4]
        assert ring.dropped == 2

    def test_bad_capacity_rejected(self):
        with pytest.raises(ObservabilityError):
            RingBufferSink(capacity=0)


class TestGlobalSink:
    def test_default_is_disabled_null_sink(self):
        assert get_tracer() is NULL_SINK
        assert get_tracer().enabled is False

    def test_configure_installs_and_round_trips(self, tmp_path):
        ring = RingBufferSink()
        prev = obs.configure(trace=ring)
        try:
            assert get_tracer() is ring
            _traced_run(None)  # config.trace None -> the global sink
            assert any(r["type"] == "run_start" for r in ring.records)
        finally:
            obs.configure(**prev)
        assert get_tracer() is NULL_SINK

    def test_set_tracer_rejects_non_sinks(self):
        with pytest.raises(ObservabilityError, match="emit"):
            set_tracer(42)

    def test_configure_path_makes_jsonl_sink(self, tmp_path):
        prev = obs.configure(trace=str(tmp_path / "g.jsonl"))
        try:
            assert isinstance(get_tracer(), JsonlSink)
        finally:
            get_tracer().close()
            obs.configure(**prev)


class TestConfigFingerprint:
    def test_stable_across_identical_configs(self):
        a = SimulationConfig(horizon=100, seed=3)
        b = SimulationConfig(horizon=100, seed=3)
        assert config_fingerprint(a) == config_fingerprint(b)

    def test_sensitive_to_knobs(self):
        a = SimulationConfig(horizon=100)
        b = SimulationConfig(horizon=200)
        assert config_fingerprint(a) != config_fingerprint(b)

    def test_trace_field_excluded(self):
        a = SimulationConfig(trace=RingBufferSink())
        b = SimulationConfig(trace=None)
        assert config_fingerprint(a) == config_fingerprint(b)
