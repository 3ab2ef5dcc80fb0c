"""Sweep-layer observability: events, chunk_failed, metrics, telemetry.

A traced sweep is one ``sweep`` span carrying ``sweep_start`` /
``point_done`` / ``chunk_failed`` events.  A failing chunk emits its
``chunk_failed`` event (grid fingerprint, chunk index, exception repr)
*before* the exception propagates — on both the serial and pooled paths.
"""

import pytest

from repro import obs
from repro.flow.residual import FlowProblem
from repro.obs import RingBufferSink, get_registry, read_trace
from repro.sweep import GridSpec, run_sweep
from repro.sweep.cache import FeasibilityCache, shared_cache
from repro.sweep.points import random_instance_spec


def ok_point(params, seed):
    return {"y": params["a"]}


def boom_point(params, seed):
    if params["a"] == 13:
        raise ValueError("unlucky point")
    return {"y": params["a"]}


def _events(ring):
    """Event names, with the closing ``sweep`` span as ``"sweep"``."""
    return [r["name"] for r in ring.records
            if r["type"] == "event" or r["name"] == "sweep"]


def _event(ring, name):
    return [r["attrs"] for r in ring.records
            if r["type"] == "event" and r["name"] == name]


class TestSweepEvents:
    def test_event_stream_shape(self):
        grid = GridSpec(seed=3).cartesian(a=[1, 2, 3])
        ring = RingBufferSink()
        run_sweep(grid, ok_point, workers=0, trace=ring)
        evs = _events(ring)
        assert evs[0] == "sweep_start"
        assert evs[-1] == "sweep"
        assert evs.count("point_done") == 3
        (start,) = _event(ring, "sweep_start")
        assert start["fingerprint"] == grid.fingerprint()
        assert start["points"] == 3 and start["pending"] == 3
        # every event names the sweep span; the point spans nest under it
        sweep = ring.records[-1]
        assert sweep["type"] == "span" and "error" not in sweep["attrs"]
        assert {(r["trace_id"], r["span_id"]) for r in ring.records
                if r["type"] == "event"} == {(sweep["trace_id"], sweep["span_id"])}
        points = [r for r in ring.records if r.get("name") == "sweep.point"]
        assert [p["parent_id"] for p in points] == [sweep["span_id"]] * 3

    def test_point_done_carries_index_and_seed(self):
        grid = GridSpec(seed=3).cartesian(a=[1, 2])
        ring = RingBufferSink()
        run_sweep(grid, ok_point, workers=0, trace=ring)
        dones = _event(ring, "point_done")
        assert sorted(r["index"] for r in dones) == [0, 1]
        assert all(r["seed"] == grid.point(r["index"]).seed for r in dones)

    def test_resume_reflected_in_sweep_start(self, tmp_path):
        grid = GridSpec(seed=3).cartesian(a=[1, 2, 3])
        ckpt = tmp_path / "c.jsonl"
        run_sweep(grid, ok_point, workers=0, checkpoint=ckpt)
        ring = RingBufferSink()
        run_sweep(grid, ok_point, workers=0, checkpoint=ckpt, resume=True,
                  trace=ring)
        (start,) = _event(ring, "sweep_start")
        assert start["resumed"] == 3 and start["pending"] == 0
        assert _events(ring).count("point_done") == 0

    def test_untraced_sweep_emits_nothing(self):
        ring = RingBufferSink()
        grid = GridSpec(seed=3).cartesian(a=[1])
        run_sweep(grid, ok_point, workers=0)  # global sink is NULL_SINK
        assert ring.records == []

    def test_untraced_sweep_sends_spans_to_global_sink_without_events(self):
        ring = RingBufferSink()
        prev = obs.configure(spans=ring)
        try:
            run_sweep(GridSpec(seed=3).cartesian(a=[1, 2]), ok_point)
        finally:
            obs.configure(**prev)
        assert [r["name"] for r in ring.records] == [
            "sweep.point", "sweep.point", "sweep"]
        assert {r["type"] for r in ring.records} == {"span"}

    def test_path_trace_collects_spans_beside_a_global_sink(self, tmp_path):
        ring, path = RingBufferSink(), tmp_path / "sweep.jsonl"
        prev = obs.configure(spans=ring)
        try:
            run_sweep(GridSpec(seed=3).cartesian(a=[1]), ok_point, trace=path)
        finally:
            obs.configure(**prev)
        assert ring.records == []
        names = [r["name"] for r in read_trace(path)]
        assert names == ["sweep_start", "sweep.point", "point_done", "sweep"]


class TestChunkFailed:
    def test_serial_failure_emits_before_raising(self):
        grid = GridSpec(seed=1).cartesian(a=[1, 13, 2])
        ring = RingBufferSink()
        with pytest.raises(ValueError, match="unlucky"):
            run_sweep(grid, boom_point, workers=0, trace=ring)
        evs = _events(ring)
        assert evs[-2:] == ["chunk_failed", "sweep"]
        assert ring.records[-1]["attrs"]["error"] == "ValueError"
        (rec,) = _event(ring, "chunk_failed")
        assert rec["fingerprint"] == grid.fingerprint()
        assert rec["chunk"] == 1
        assert "ValueError" in rec["error"] and "unlucky" in rec["error"]

    def test_pooled_failure_emits_before_raising(self):
        grid = GridSpec(seed=1).cartesian(a=[1, 13, 2, 4])
        ring = RingBufferSink()
        with pytest.raises(ValueError, match="unlucky"):
            run_sweep(grid, boom_point, workers=2, chunk_size=1, trace=ring)
        (rec,) = _event(ring, "chunk_failed")
        assert rec["fingerprint"] == grid.fingerprint()
        assert "unlucky" in rec["error"]

    def test_failure_counter_increments(self):
        prev = obs.configure(metrics=True)
        try:
            grid = GridSpec(seed=1).cartesian(a=[13])
            with pytest.raises(ValueError):
                run_sweep(grid, boom_point, workers=0)
            reg = get_registry()
            assert reg.counter("repro_sweep_chunk_failures_total").value == 1
        finally:
            obs.configure(**prev)


class TestSweepMetrics:
    def test_points_and_latency_instruments(self):
        prev = obs.configure(metrics=True)
        try:
            grid = GridSpec(seed=3).cartesian(a=[1, 2, 3])
            run_sweep(grid, ok_point, workers=0)
            reg = get_registry()
            assert reg.counter("repro_sweep_points_completed_total").value == 3
            assert reg.histogram("repro_sweep_chunk_seconds").count == 3
            assert reg.gauge("repro_sweep_points_pending").value == 0
        finally:
            obs.configure(**prev)


class TestProgressLine:
    def test_progress_writes_rate_and_eta(self, capsys):
        grid = GridSpec(seed=3).cartesian(a=[1, 2])
        run_sweep(grid, ok_point, workers=0, progress=True)
        err = capsys.readouterr().err
        assert "sweep: 2/2 points" in err
        assert "/s" in err and "eta" in err

    def test_no_progress_no_output(self, capsys):
        grid = GridSpec(seed=3).cartesian(a=[1])
        run_sweep(grid, ok_point, workers=0)
        assert capsys.readouterr().err == ""


class TestCacheMetrics:
    def test_hits_misses_evictions_counters(self):
        prev = obs.configure(metrics=True)
        try:
            cache = FeasibilityCache(max_entries=1)
            spec_a = random_instance_spec({"n": 6}, seed=1)
            spec_b = random_instance_spec({"n": 7}, seed=2)
            cache.classify(spec_a)
            cache.classify(spec_a)          # hit
            cache.classify(spec_b)          # miss -> evicts spec_a
            assert (cache.hits, cache.misses, cache.evictions) == (1, 2, 1)
            reg = get_registry()
            assert reg.counter("repro_feasibility_cache_hits_total").value == 1
            assert reg.counter("repro_feasibility_cache_misses_total").value == 2
            assert reg.counter("repro_feasibility_cache_evictions_total").value == 1
        finally:
            obs.configure(**prev)

    def test_bad_max_entries_rejected(self):
        from repro.errors import SweepError

        with pytest.raises(SweepError, match="max_entries"):
            FeasibilityCache(max_entries=0)

    def test_disabled_metrics_still_count_locally(self):
        cache = FeasibilityCache()
        spec = random_instance_spec({"n": 6}, seed=1)
        cache.classify(spec)
        cache.classify(spec)
        assert (cache.hits, cache.misses) == (1, 1)
        assert get_registry().snapshot() == {}

    def test_shared_cache_hit_rate_feeds_progress(self, capsys):
        shared = shared_cache()
        shared.clear()
        spec = random_instance_spec({"n": 6}, seed=1)
        shared.classify(spec)
        shared.classify(spec)
        grid = GridSpec(seed=3).cartesian(a=[1])
        run_sweep(grid, ok_point, workers=0, progress=True)
        assert "cache hit 50%" in capsys.readouterr().err
        shared.clear()


class TestFlowMetrics:
    def test_solver_counters_by_algorithm(self):
        from repro.flow.dinic import dinic
        from repro.flow.edmonds_karp import edmonds_karp
        from repro.flow.push_relabel import push_relabel

        prob = FlowProblem(
            n=4,
            tails=(0, 0, 1, 2),
            heads=(1, 2, 3, 3),
            capacities=(2, 2, 2, 2),
            source=0,
            sink=3,
        )
        prev = obs.configure(metrics=True)
        try:
            dinic(prob)
            edmonds_karp(prob)
            push_relabel(prob, "highest")
            reg = get_registry()
            solves = reg.counter("repro_flow_solves_total", "", ("algorithm",))
            assert solves.labels(algorithm="dinic").value == 1
            assert solves.labels(algorithm="edmonds_karp").value == 1
            assert solves.labels(algorithm="push_relabel_highest").value == 1
            assert reg.counter("repro_flow_augmentations_total", "",
                               ("algorithm",)).labels(
                algorithm="dinic").value >= 1
            assert reg.counter("repro_flow_pushes_total", "",
                               ("algorithm",)).labels(
                algorithm="push_relabel_highest").value >= 1
        finally:
            obs.configure(**prev)

    def test_disabled_registry_untouched_by_solvers(self):
        from repro.flow.dinic import dinic

        prob = FlowProblem(n=2, tails=(0,), heads=(1,), capacities=(1,),
                           source=0, sink=1)
        dinic(prob)
        assert get_registry().snapshot() == {}
