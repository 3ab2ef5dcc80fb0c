"""CLI observability: --profile, --trace, --progress, --metrics-out, and
the ``obs trace`` reader."""

import numpy as np
import pytest

from repro.cli import main
from repro.core import SimulationConfig, Simulator
from repro.core.ensemble import EnsembleSimulator
from repro.graphs import generators
from repro.network import NetworkSpec
from repro.obs import read_trace, replay_trace


def _names(records, kind):
    return [r["name"] for r in records if r["type"] == kind]


class TestSimulateFlags:
    def test_profile_prints_stage_table(self, capsys):
        assert main(["simulate", "--topology", "grid", "--rows", "3",
                     "--cols", "3", "--out-rate", "2", "--horizon", "50",
                     "--profile"]) == 0
        out = capsys.readouterr().out
        assert "stage" in out and "share" in out
        for stage in ("injection", "selection", "recording", "total"):
            assert stage in out

    def test_trace_writes_replayable_jsonl(self, capsys, tmp_path):
        trace = tmp_path / "sim.jsonl"
        assert main(["simulate", "--topology", "path", "--n", "5",
                     "--horizon", "60", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert f"trace: {trace}" in out
        records = read_trace(trace)
        events = _names(records, "event")
        assert events == ["run_start"] + ["step"] * 60 + ["run_end"]
        # --trace also collects the spans into the same file
        assert _names(records, "span") == ["sim.run", "cli.simulate"]
        rr = replay_trace(trace)
        assert rr.verdict.bounded == ("bounded: True" in out)
        live = Simulator(NetworkSpec.classical(generators.path(5), {0: 1}, {4: 1}),
                         config=SimulationConfig(horizon=60, seed=0)).run()
        np.testing.assert_array_equal(rr.trajectory.potentials,
                                      live.trajectory.potentials)


class TestEnsembleFlags:
    def test_profile_and_trace(self, capsys, tmp_path):
        trace = tmp_path / "ens.jsonl"
        assert main(["ensemble", "--topology", "grid", "--rows", "3",
                     "--cols", "3", "--out-rate", "2", "--horizon", "40",
                     "--replicas", "4", "--profile", "--trace",
                     str(trace)]) == 0
        out = capsys.readouterr().out
        assert "share" in out and "recording" in out
        rr = replay_trace(trace)
        assert rr.backend == "batched" and rr.replicas == 4
        spec = NetworkSpec.classical(generators.grid(3, 3), {0: 1}, {8: 2})
        live = EnsembleSimulator(spec, 4, seed=0).run(40)
        for r in range(4):
            np.testing.assert_array_equal(rr.trajectories[r].potentials,
                                          live.trajectory(r).potentials)
            assert rr.verdicts[r].bounded == live.verdicts[r].bounded


class TestSweepFlags:
    def test_trace_progress_and_metrics_out(self, capsys, tmp_path):
        trace = tmp_path / "sweep.jsonl"
        prom = tmp_path / "metrics.prom"
        assert main(["sweep", "--axis", "n=6,7", "--point", "classify",
                     "--trace", str(trace), "--progress",
                     "--metrics-out", str(prom)]) == 0
        captured = capsys.readouterr()
        assert "sweep:" in captured.err and "eta" in captured.err
        records = read_trace(trace)
        events = _names(records, "event")
        assert events == ["sweep_start", "point_done", "point_done"]
        assert records[-1]["type"] == "span" and records[-1]["name"] == "sweep"
        text = prom.read_text(encoding="utf-8")
        assert "repro_sweep_points_completed_total 2" in text
        assert "repro_feasibility_cache" in text  # hit or miss, either counts

    def test_plain_sweep_unchanged(self, capsys):
        assert main(["sweep", "--axis", "n=6", "--point", "classify"]) == 0
        captured = capsys.readouterr()
        assert "sweep: 1 points" in captured.out
        assert captured.err == ""


class TestObsTrace:
    """``repro-lgg obs trace FILE``: the span waterfall of a JSONL trace."""

    @pytest.fixture
    def sim_trace(self, tmp_path, capsys):
        path = tmp_path / "sim.jsonl"
        assert main(["simulate", "--topology", "path", "--n", "4",
                     "--horizon", "30", "--trace", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_list_counts_spans_only(self, sim_trace, capsys):
        assert main(["obs", "trace", str(sim_trace), "--list"]) == 0
        (line,) = capsys.readouterr().out.splitlines()
        (tid,) = {r["trace_id"] for r in read_trace(sim_trace)}
        assert line == f"{tid}  2 spans"  # cli.simulate + sim.run, no events

    def test_trace_id_renders_only_that_trace(self, sim_trace, tmp_path, capsys):
        other = tmp_path / "other.jsonl"
        assert main(["simulate", "--topology", "path", "--n", "4",
                     "--horizon", "30", "--trace", str(other)]) == 0
        merged = tmp_path / "merged.jsonl"
        merged.write_text(sim_trace.read_text() + other.read_text())
        (tid,) = {r["trace_id"] for r in read_trace(sim_trace)}
        capsys.readouterr()
        assert main(["obs", "trace", str(merged), "--trace-id", tid]) == 0
        out = capsys.readouterr().out
        assert out.count("trace ") == 1 and f"trace {tid}" in out
        assert "cli.simulate" in out and "sim.run" in out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["obs", "trace", str(tmp_path / "absent.jsonl")]) == 2
        assert "error: no trace file" in capsys.readouterr().err

    def test_no_span_records_exits_2(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        path.write_text('{"type":"event","name":"step","attrs":{}}\n')
        assert main(["obs", "trace", str(path)]) == 2
        assert "no span records" in capsys.readouterr().err

    def test_torn_tail_is_tolerated(self, sim_trace, capsys):
        with open(sim_trace, "a", encoding="utf-8") as fh:
            fh.write('{"type":"span","na')
        assert main(["obs", "trace", str(sim_trace), "--list"]) == 0
        assert "2 spans" in capsys.readouterr().out

    def test_corrupt_middle_line_exits_2(self, sim_trace, capsys):
        lines = sim_trace.read_text().splitlines()
        lines.insert(1, "not json")
        sim_trace.write_text("\n".join(lines) + "\n")
        assert main(["obs", "trace", str(sim_trace)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: corrupt trace record at {sim_trace}:2")
