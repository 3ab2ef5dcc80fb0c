"""Unit tests for the span layer: ids, propagation, sinks, rendering."""

import pytest

from repro import obs
from repro.errors import ObservabilityError
from repro.obs import RingBufferSink, get_registry
from repro.obs.spans import (
    SPAN_SECONDS_METRIC,
    current_span,
    current_trace_id,
    get_span_sink,
    new_trace_id,
    normalized_tree,
    render_waterfall,
    set_span_sink,
    span,
    span_records,
    span_tree,
)


class ListSink:
    """Append-only in-memory sink: the simplest thing `emit` can feed."""

    enabled = True

    def __init__(self):
        self.records = []

    def emit(self, record):
        self.records.append(record)


class TestZeroCostOff:
    def test_null_span_when_everything_off(self):
        assert not get_span_sink().enabled
        assert not get_registry().enabled
        with span("anything", key="value") as sp:
            assert sp.span_id is None
            assert sp.context() is None
            sp.set("ignored", 1)  # must be a no-op, not an error
        assert current_span() is None

    def test_null_span_is_shared(self):
        with span("a") as sa:
            pass
        with span("b") as sb:
            pass
        assert sa is sb


class TestIds:
    def test_root_and_children_are_deterministic(self):
        sink = ListSink()
        set_span_sink(sink)
        with span("root", trace_id="t1") as root:
            assert root.span_id == "1"
            assert current_trace_id() == "t1"
            with span("a") as a:
                assert a.span_id == "1.1"
                assert a.parent_id == "1"
            with span("b") as b:
                assert b.span_id == "1.2"
                with span("c") as c:
                    assert c.span_id == "1.2.1"
        ids = {(r["span_id"], r["parent_id"]) for r in sink.records}
        assert ids == {("1", None), ("1.1", "1"), ("1.2", "1"),
                       ("1.2.1", "1.2")}
        assert all(r["trace_id"] == "t1" for r in sink.records)

    def test_tuple_parent_with_remote_suffix(self):
        sink = ListSink()
        set_span_sink(sink)
        with span("worker", parent=("tid", "1.2"), remote_suffix="w3") as sp:
            assert sp.trace_id == "tid"
            assert sp.span_id == "1.2.w3"
            assert sp.parent_id == "1.2"
            with span("inner") as inner:
                assert inner.span_id == "1.2.w3.1"

    def test_default_remote_suffix(self):
        sink = ListSink()
        set_span_sink(sink)
        with span("detached", parent=("tid", "1")) as sp:
            assert sp.span_id == "1.r"

    def test_new_trace_id_is_hex16(self):
        tid = new_trace_id()
        assert len(tid) == 16
        int(tid, 16)
        assert tid != new_trace_id()


class TestEmission:
    def test_record_shape_and_timing(self):
        sink = ListSink()
        set_span_sink(sink)
        with span("work", kind="demo"):
            pass
        (rec,) = sink.records
        assert rec["type"] == "span"
        assert rec["name"] == "work"
        assert rec["attrs"] == {"kind": "demo"}
        assert rec["duration_s"] >= 0
        assert "ts" in rec

    def test_exception_stamps_error_and_propagates(self):
        sink = ListSink()
        set_span_sink(sink)
        with pytest.raises(ValueError):
            with span("doomed"):
                raise ValueError("boom")
        (rec,) = sink.records
        assert rec["attrs"]["error"] == "ValueError"

    def test_explicit_sink_overrides_global(self):
        global_sink = ListSink()
        local_sink = ListSink()
        set_span_sink(global_sink)
        with span("pinned", sink=local_sink):
            pass
        assert not global_sink.records
        assert [r["name"] for r in local_sink.records] == ["pinned"]

    def test_child_inherits_an_explicit_sink(self):
        global_sink, local_sink = ListSink(), ListSink()
        set_span_sink(global_sink)
        with span("pinned", sink=local_sink) as root:
            with span("child"):
                with span("grandchild"):
                    pass
            with span("direct", parent=root):
                pass
        assert not global_sink.records
        assert [r["name"] for r in local_sink.records] == [
            "grandchild", "child", "direct", "pinned"]

    def test_tuple_parent_lands_in_the_global_sink(self):
        global_sink, local_sink = ListSink(), ListSink()
        set_span_sink(global_sink)
        with span("pinned", sink=local_sink) as root:
            with span("remote", parent=root.context(), remote_suffix="w0"):
                with span("inner"):
                    pass
        assert [r["name"] for r in local_sink.records] == ["pinned"]
        assert [r["name"] for r in global_sink.records] == ["inner", "remote"]
        assert global_sink.records[1]["parent_id"] == root.span_id

    def test_event_names_its_span(self):
        sink = ListSink()
        with span("work", sink=sink, trace_id="t") as sp:
            with span("inner"):
                sp.event("tick", n=1)
        (ev,) = [r for r in sink.records if r["type"] == "event"]
        assert ev == {"type": "event", "name": "tick", "trace_id": "t",
                      "span_id": "1", "attrs": {"n": 1}, "ts": ev["ts"]}

    def test_null_span_event_is_a_no_op(self):
        with span("off") as sp:
            sp.event("ignored", n=1)
        assert sp.span_id is None

    def test_metrics_only_activation_records_histogram(self):
        reg = get_registry()
        reg.enabled = True
        assert not get_span_sink().enabled
        with span("stage", trace_id="tmetrics") as sp:
            assert sp.span_id == "1"  # live span, not the null one
        snap = reg.snapshot()
        entry = snap[SPAN_SECONDS_METRIC]
        (series,) = entry["series"]
        assert series["labels"] == {"name": "stage"}
        assert series["count"] == 1
        exemplars = series["exemplars"]
        assert any(e["trace_id"] == "tmetrics" for e in exemplars.values())

    def test_set_span_sink_rejects_non_sink(self):
        with pytest.raises(ObservabilityError, match="emit"):
            set_span_sink(object())

    def test_configure_spans_path_and_restore(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        restore = obs.configure(spans=path)
        try:
            assert get_span_sink().enabled
            with span("to-file"):
                pass
        finally:
            obs.configure(**restore)
        assert not get_span_sink().enabled
        recs = obs.read_trace(path)
        assert [r["name"] for r in span_records(recs)] == ["to-file"]


class TestTreeAndRendering:
    def _make_records(self):
        sink = ListSink()
        set_span_sink(sink)
        with span("root", trace_id="t"):
            with span("left"):
                pass
            with span("right", worker=1):
                pass
        return sink.records

    def test_span_tree_nests(self):
        (root,) = span_tree(self._make_records())
        assert root["name"] == "root"
        assert [c["name"] for c in root["children"]] == ["left", "right"]

    def test_orphans_become_roots(self):
        records = [r for r in self._make_records() if r["name"] != "root"]
        roots = span_tree(records)
        assert sorted(r["name"] for r in roots) == ["left", "right"]

    def test_normalized_tree_strips_timing_and_attrs(self):
        one = normalized_tree(self._make_records(), drop_attrs=("worker",))
        two = normalized_tree(self._make_records(), drop_attrs=("worker",))
        assert one == two  # trace ids and durations differ; the tree not
        (root,) = one
        assert set(root) == {"name", "attrs", "children"}
        assert root["children"][1]["attrs"] == {}

    def test_ring_buffer_collects_spans(self):
        ring = RingBufferSink(capacity=2)
        set_span_sink(ring)
        with span("a", trace_id="t"):
            pass
        with span("b", trace_id="t"):
            pass
        with span("c", trace_id="t"):
            pass
        assert [r["name"] for r in ring.records] == ["b", "c"]
        assert ring.dropped == 1

    def test_render_waterfall(self):
        text = render_waterfall(self._make_records())
        assert "trace t" in text
        assert "3 spans" in text
        for name in ("root", "left", "right"):
            assert name in text
        # children indent under the root
        lines = text.splitlines()
        (left_line,) = [ln for ln in lines if "left" in ln]
        assert left_line.startswith("  ")
