"""Package export tables: every ``repro`` package ``__init__`` declares
its public names in ``_EXPORTS`` and resolves them on first access
(``repro._exports``).  The tables must be complete and correct, and the
public API must not move: every package's ``__all__`` is pinned below,
in order, as it was when the packages still imported their submodules.
"""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent

PUBLIC_API = {
    "repro": (
        "MultiGraph", "build_extended_graph", "generators", "NetworkSpec", "NodeRole",
        "RevelationPolicy", "FeasibilityReport", "classify_network", "max_flow", "min_cut",
        "LGGPolicy", "SimulationResult", "Simulator", "simulate_lgg", "__version__",
    ),
    "repro.analysis": (
        "RunMetrics", "summarize", "format_table", "format_series", "sparkline",
        "delivery_rate_series", "standing_mass", "warmup_time", "height_profile",
        "render_grid_landscape", "jain_index", "normalized_shares",
        "per_source_throughput",
    ),
    "repro.arrivals": (
        "ArrivalProcess", "DeterministicArrivals", "ScaledArrivals", "BernoulliArrivals",
        "UniformArrivals", "PoissonClippedArrivals", "BurstArrivals", "OnOffArrivals",
        "TokenBucketArrivals", "TraceArrivals", "RecordingArrivals", "dominates",
    ),
    "repro.core": (
        "TieBreak", "TransmissionPolicy", "LGGPolicy",
        "FlowRoutingPolicy", "BackpressurePolicy", "RandomForwardingPolicy",
        "ShortestPathPolicy", "DEFAULT_PIPELINE", "STAGE_NAMES", "Stage", "StagePipeline",
        "StepState", "ExtractionMode", "LinkCapacityMode",
        "SimulationConfig", "SimulationResult", "Simulator", "simulate_lgg",
        "PacketSimulator", "PacketStats", "EnsembleSimulator", "EnsembleResult",
        "StabilityVerdict", "assess_stability", "bounds", "lyapunov",
    ),
    "repro.dynamic": (
        "TopologySchedule", "ScheduledChanges", "PeriodicLinkSchedule",
        "EdgeChurnSchedule",
    ),
    "repro.exp": (
        "REGISTRY", "ExperimentResult", "get_experiment", "render",
    ),
    "repro.flow": (
        "FlowProblem", "FlowResult", "max_flow", "min_cut", "CutKind",
        "MinCut", "classify_cut", "is_unique_min_cut", "is_sd_cut", "FeasibilityReport",
        "NetworkClass", "RegionReport", "classify_network", "classify_region",
        "feasible_flow", "BreakpointEnvelope", "EnvelopeSegment", "breakpoint_envelope",
        "ParametricMaxFlow",
        "source_arc_updates", "PathDecomposition", "decompose_paths",
        "edge_flow_from_result", "DistributedRun", "distributed_push_relabel", "CutFamily",
        "count_min_cuts", "enumerate_min_cuts",
    ),
    "repro.graphs": (
        "CSRTopology", "MultiGraph", "ExtendedGraph", "build_extended_graph", "generators",
        "from_networkx", "to_networkx",
    ),
    "repro.interference": (
        "InterferenceModel", "GreedyMatchingInterference", "OracleMatchingInterference",
        "DistanceTwoInterference",
    ),
    "repro.loadgen": (
        "LoadGenError", "LoadReport", "RequestResult", "RequestSpec", "classify_request",
        "simulate_request", "percentile", "run_open_loop", "run_closed_loop",
        "poisson_schedule", "burst_schedule", "constant_schedule", "SLO", "check_slo",
        "assert_slo",
    ),
    "repro.loss": (
        "LossModel", "NoLoss", "BernoulliLoss", "GilbertElliottLoss",
        "AdversarialEdgeLoss", "TargetedNodeLoss",
    ),
    "repro.mobility": (
        "MobilityModel", "RandomWaypoint", "VirtualForce", "CircularOrbit",
        "model_by_name", "MODEL_NAMES", "MobilitySnapshot", "MobilityTrace",
        "MobilitySchedule", "TimelineEntry", "FeasibilityTimeline", "feasibility_timeline",
        "feasibility_timeline_cold",
    ),
    "repro.network": (
        "NetworkSpec", "NodeRole", "RevelationPolicy", "Trajectory", "network_state",
    ),
    "repro.numeric": (
        "INT_SCALE_LIMIT", "ScaledValues", "common_denominator", "scale_int", "try_scale",
        "unscale", "fastpath_steps_total", "fraction_fallbacks_total",
        "note_fastpath_steps", "note_fraction_fallback", "reset_counters",
    ),
    "repro.obs": (
        "configure", "ObservabilityError", "TraceSink", "NullSink", "NULL_SINK",
        "JsonlSink", "RingBufferSink", "resolve_sink", "config_fingerprint", "read_trace",
        "WALL_CLOCK_FIELDS", "MetricsRegistry", "Counter", "Gauge", "Histogram",
        "NULL_INSTRUMENT", "DEFAULT_LATENCY_BUCKETS", "PROMETHEUS_CONTENT_TYPE",
        "get_registry", "SPAN_SECONDS_METRIC", "Span", "span", "current_span",
        "current_trace_id", "new_trace_id", "get_span_sink", "set_span_sink",
        "span_records", "span_tree", "normalized_tree", "render_waterfall",
        "add_snapshots", "merge_worker_snapshots", "render_snapshot", "parse_exposition",
        "counter_regressions", "ReplayResult", "replay_trace",
    ),
    "repro.reduction": (
        "CutSplit", "interior_min_cut", "build_b_prime", "build_a_prime",
        "split_along_cut", "section_v_case",
    ),
    "repro.serve": (
        "ServeError", "AdmissionController", "MicroBatcher", "direct_simulate",
        "ServeClient", "parse_spec", "parse_simulate_request", "report_to_json",
        "simulation_response", "JobManager", "JobState", "grid_from_request",
        "summarize_rows", "ReproServer", "BackgroundServer", "WorkerPool",
    ),
    "repro.sweep": (
        "GridPoint", "GridSpec", "PointRecord", "SweepRun", "run_sweep",
        "FeasibilityCache", "shared_cache", "canonical_graph_key", "canonical_ray_key",
        "canonical_spec_key",
        "SweepCheckpoint", "load_records", "resume", "FAMILIES", "random_instance_spec",
        "classify_point", "region_point", "mobility_point",
    ),
}

PACKAGES = ["repro"] + sorted(
    m.name for m in pkgutil.walk_packages(repro.__path__, "repro.") if m.ispkg)


def test_every_package_is_pinned():
    assert sorted(PACKAGES) == sorted(PUBLIC_API)


@pytest.mark.parametrize("name", PACKAGES)
class TestExports:
    def test_all_is_unchanged(self, name):
        assert list(importlib.import_module(name).__all__) == list(PUBLIC_API[name])

    def test_names_resolve_to_their_modules(self, name):
        pkg = importlib.import_module(name)
        for module, names in pkg._EXPORTS.items():
            source = importlib.import_module(module, name)
            if names is None:
                assert getattr(pkg, module.rpartition(".")[2]) is source
                continue
            for attr in names:
                assert getattr(pkg, attr) is getattr(source, attr), (module, attr)

    def test_dir_lists_all(self, name):
        pkg = importlib.import_module(name)
        assert set(pkg.__all__) <= set(dir(pkg))

    def test_unknown_name_raises_attribute_error(self, name):
        pkg = importlib.import_module(name)
        with pytest.raises(AttributeError, match=f"module {name!r} has no attribute 'nope'"):
            pkg.nope
        assert not hasattr(pkg, "nope")

    def test_star_import_binds_all(self, name):
        pkg = importlib.import_module(name)
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        for attr in pkg.__all__:
            assert namespace[attr] is getattr(pkg, attr), attr


def test_readme_quickstart_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["NetworkClass.UNSATURATED", "3", "True"]
