"""Tests of the end-to-end benchmark: the span folding and percentile
helpers on synthetic inputs, the BENCHMARK.json catalogue, and a smoke run
of every workload through the real command line at ``--ops 10``."""

import json
import re
import subprocess
import sys

import pytest

from benchmarks.e2e import END_TO_END, PER_LAYER, ROOT, WORKLOADS
from benchmarks.e2e.layers import fold, render_run
from benchmarks.e2e.stats import percentile

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _span(span_id, parent_id, start, end, name=None, trace_id="t", **attrs):
    return {"type": "span", "name": name or f"s{span_id}", "trace_id": trace_id,
            "span_id": span_id, "parent_id": parent_id, "attrs": attrs,
            "duration_s": end - start, "ts": end}


class TestFold:
    def test_nested_spans_subtract_their_children(self):
        folded = fold([_span("1", None, 0.0, 10.0, "root"),
                       _span("1.1", "1", 2.0, 5.0, "child"),
                       _span("1.1.1", "1.1", 3.0, 4.0, "leaf")])
        assert folded["layers"]["root"]["self_s"] == pytest.approx(7.0)
        assert folded["layers"]["child"]["self_s"] == pytest.approx(2.0)
        assert folded["layers"]["leaf"]["self_s"] == pytest.approx(1.0)
        assert folded["layers"]["root"]["total_s"] == pytest.approx(10.0)
        assert folded["orphans"] == []

    def test_overlapping_children_count_their_union_once(self):
        folded = fold([_span("1", None, 0.0, 10.0, "root"),
                       _span("1.1", "1", 2.0, 6.0, "a"),
                       _span("1.2", "1", 4.0, 8.0, "b"),
                       _span("1.3", "1", 9.0, 12.0, "late")])  # clipped at 10
        assert folded["layers"]["root"]["self_s"] == pytest.approx(10.0 - 6.0 - 1.0)

    def test_cross_process_children_count_as_children(self):
        folded = fold([_span("1", None, 0.0, 10.0, "ingress"),
                       _span("1.2", "1", 1.0, 9.0, "batch", kind="classify"),
                       _span("1.2.w0", "1.2", 2.0, 8.0, "worker", kind="classify"),
                       _span("1.2.w0.1", "1.2.w0", 3.0, 7.0, "flow.solve", kind="cold")])
        assert folded["layers"]["batch[classify]"]["self_s"] == pytest.approx(2.0)
        assert folded["layers"]["worker[classify]"]["self_s"] == pytest.approx(2.0)
        assert folded["layers"]["flow.solve[cold]"]["self_s"] == pytest.approx(4.0)

    def test_orphans_are_reported_not_dropped(self):
        folded = fold([_span("1", None, 0.0, 4.0, "root"),
                       _span("7.1", "7", 1.0, 3.0, "lost")])
        assert [o["span_id"] for o in folded["orphans"]] == ["7.1"]
        assert folded["layers"]["lost"]["self_s"] == pytest.approx(2.0)
        assert folded["layers"]["root"]["self_s"] == pytest.approx(4.0)
        assert folded["spans"] == 2

    def test_traces_are_kept_apart(self):
        folded = fold([_span("1", None, 0.0, 4.0, "root", trace_id="a"),
                       _span("1.1", "1", 1.0, 3.0, "child", trace_id="b")])
        assert folded["layers"]["root"]["self_s"] == pytest.approx(4.0)
        assert len(folded["orphans"]) == 1


class TestPercentile:
    def test_nearest_rank(self):
        ten = list(range(10, 0, -1))
        assert percentile(ten, 50) == 5
        assert percentile(ten, 90) == 9
        assert percentile(ten, 91) == 10
        assert percentile(ten, 100) == 10
        assert percentile(ten, 1) == 1
        assert percentile(list(range(1, 101)), 90) == 90
        assert percentile([7.5], 50) == 7.5

    @pytest.mark.parametrize("pct", [0, 101, 50.0, True])
    def test_rejects_bad_ranks(self, pct):
        with pytest.raises(ValueError):
            percentile([1, 2, 3], pct)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            percentile([], 50)


def test_catalogue_names_are_well_formed():
    for name in list(END_TO_END) + list(PER_LAYER) + list(WORKLOADS):
        assert NAME.match(name), name


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "benchmarks.e2e", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)


def test_every_workload_runs_through_the_cli():
    proc = _cli("run", "--seed", "0", "--ops", "10")
    assert proc.returncode == 0, proc.stderr[-4000:]
    lines = proc.stdout.strip().splitlines()
    final = json.loads(lines[-1])
    assert final["correct"] and final["failed"] == 0
    printed = {}
    for line in lines[:-1]:
        workload, name, *rest = line.split(" ")
        assert workload in WORKLOADS and NAME.match(name), line
        printed[(workload, name)] = rest
    for workload in WORKLOADS:
        for name, unit in END_TO_END.items():
            value, printed_unit = printed[(workload, name)]
            assert printed_unit == unit and float(value) > 0, (workload, name)
        assert printed[(workload, "ops_failed")] == ["0"]
        assert int(printed[(workload, "ops_attempted")][0]) >= 10
        assert re.fullmatch(r"[0-9a-f]{64}", printed[(workload, "outputs_sha256")][0])
        checks = [rest for (w, name), rest in printed.items()
                  if w == workload and name.startswith("check.")]
        assert checks and all(ran != "ran=0" and failed == "failed=0"
                              for ran, failed in checks), (workload, checks)


def test_traced_run_feeds_the_layer_table(tmp_path):
    out = tmp_path / "run.json"
    proc = _cli("run", "--workload", "region_map", "--ops", "4", "--trace",
                "--out", str(out))
    assert proc.returncode == 0, proc.stderr[-4000:]
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(final["metrics"]) == set(PER_LAYER)
    run = json.loads(out.read_text())
    assert run["workloads"]["region_map"]["metrics"]["flow.cold_solves_per_op"]["value"] == 2
    table = render_run(run)
    for name in PER_LAYER:
        assert name in table
    assert "flow.solve[cold]" in table
