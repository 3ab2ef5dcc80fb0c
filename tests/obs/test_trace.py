"""Trace layer: sinks, the sink resolver, determinism, and the
wall-clock field contract.

The load-bearing property: two runs of the same ``(spec, seed)`` produce
byte-identical JSONL traces once the fields in ``WALL_CLOCK_FIELDS`` are
stripped — and those fields are monotone.
"""

import json

import pytest

from repro import obs
from repro.core import SimulationConfig, Simulator
from repro.errors import ObservabilityError
from repro.graphs import generators
from repro.network import NetworkSpec
from repro.obs import (
    WALL_CLOCK_FIELDS,
    JsonlSink,
    RingBufferSink,
    config_fingerprint,
    read_trace,
    resolve_sink,
)
from repro.sweep import GridSpec, run_sweep


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
        # (steps, run_start, run_end, 12 sim.stage spans, sim.run)
        assert len(a) == len(b) == 50 + 3 + 12

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
        return [r["attrs"]["active_edges"] for r in records
                if r["type"] == "event" and r["name"] == "step"]

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


class TestEventEnvelope:
    """A traced run is one ``sim.run`` span plus events naming it."""

    def test_events_name_the_sim_run_span(self):
        ring = RingBufferSink()
        _traced_run(ring, horizon=10)
        events = [r for r in ring.records if r["type"] == "event"]
        *stages, run = [r for r in ring.records if r["type"] == "span"]
        assert run["name"] == "sim.run"
        assert {s["name"] for s in stages} == {"sim.stage"}
        assert [e["name"] for e in events] == (
            ["run_start"] + ["step"] * 10 + ["run_end"])
        for ev in events:
            assert set(ev) == {"type", "name", "trace_id", "span_id",
                               "attrs", "ts"}
            assert ev["type"] == "event"
            assert (ev["trace_id"], ev["span_id"]) == (
                run["trace_id"], run["span_id"])
        start, end = events[0]["attrs"], events[-1]["attrs"]
        assert start["seed"] == 7 and start["n"] == 9
        assert start["fingerprint"] == end["fingerprint"]
        assert end["outcome"] in ("bounded", "divergent")
        assert "wall_time" not in end

    def test_attrs_are_plain_python_values(self):
        ring = RingBufferSink()
        _traced_run(ring, horizon=10)

        def plain(value):
            if isinstance(value, list):
                return all(plain(v) for v in value)
            return value is None or type(value) in (bool, int, float, str)

        for ev in ring.records[:-1]:
            assert all(plain(v) for v in ev["attrs"].values()), ev

    def test_untraced_run_writes_no_events_to_the_global_sink(self):
        ring = RingBufferSink()
        prev = obs.configure(spans=ring)
        try:
            _traced_run(None)
        finally:
            obs.configure(**prev)
        assert [r["type"] for r in ring.records] == ["span"]

    def test_traced_run_leaves_the_global_sink_alone(self):
        ring, own = RingBufferSink(), RingBufferSink()
        prev = obs.configure(spans=ring)
        try:
            _traced_run(own, horizon=10)
        finally:
            obs.configure(**prev)
        assert ring.records == []
        assert own.records[-1]["name"] == "sim.run"

    def test_steps_outside_run_write_no_events(self):
        ring = RingBufferSink()
        sim = Simulator(_spec(), config=SimulationConfig(trace=ring))
        for _ in range(3):
            sim.step()
        assert ring.records == []  # no sim.run span to carry them

    def test_configure_has_no_trace_sink(self):
        with pytest.raises(TypeError):
            obs.configure(trace=RingBufferSink())


class TestResolveSink:
    """One resolver turns every ``trace=`` value into a sink."""

    def test_forms(self, tmp_path):
        ring = RingBufferSink()
        assert resolve_sink(None, "trace") is None
        assert resolve_sink(ring, "trace") is ring
        with resolve_sink(tmp_path / "t.jsonl", "trace") as sink:
            assert isinstance(sink, JsonlSink)

    def test_sweep_rejects_bytes_path(self):
        grid = GridSpec(seed=1).cartesian(a=[1])
        with pytest.raises(ObservabilityError, match="^trace must be .* got bytes$"):
            run_sweep(grid, _point, trace=b"x.jsonl")

    def test_sweep_rejects_non_sink(self):
        grid = GridSpec(seed=1).cartesian(a=[1])
        with pytest.raises(ObservabilityError, match="^trace must be .* got int$"):
            run_sweep(grid, _point, trace=42)

    def test_simulation_config_rejects_path(self, tmp_path):
        cfg = SimulationConfig(horizon=5, trace=str(tmp_path / "x.jsonl"))
        with pytest.raises(ObservabilityError,
                           match="SimulationConfig.trace .* not a path"):
            Simulator(_spec(), config=cfg)
        assert not (tmp_path / "x.jsonl").exists()

    def test_simulation_config_rejects_non_sink(self):
        with pytest.raises(ObservabilityError, match="SimulationConfig.trace"):
            Simulator(_spec(), config=SimulationConfig(trace=object()))

    def test_configure_spans_rejects_non_sink(self):
        with pytest.raises(ObservabilityError, match="^spans must be"):
            obs.configure(spans=42)


def _point(params, seed):
    return {"a": params["a"]}


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
