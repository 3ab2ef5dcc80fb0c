"""Sweep-engine throughput: parallel speedup and feasibility-cache hit rate.

Two claims, on a 64-point grid:

* sharding across ``workers=4`` processes beats the inline serial path by
  >= 2x wall-clock (the point payload — classify + simulate a random
  instance — is CPU-bound, so the pool should scale until the core count
  runs out; the assertion is therefore gated on >= 4 usable cores and on
  perf mode, but both paths always run and must agree bit for bit);
* a grid that revisits each (topology, rates) cell across a repeat axis
  serves the repeats from the canonical-hash cache — the hit-rate floor
  is exact arithmetic, asserted unconditionally.

Results append to ``benchmarks/results/sweep_speedup.json`` (gitignored
output, not an input).
"""

import os
import time
from pathlib import Path

from benchmarks.e2e.record import append_record
from repro.graphs import generators as gen
from repro.network import NetworkSpec
from repro.sweep import (
    FeasibilityCache,
    GridSpec,
    region_point,
    run_sweep,
)

WORKERS = 4
POINTS = 64
HORIZON = 240
RESULTS = Path(__file__).parent / "results" / "sweep_speedup.json"


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _region_grid() -> GridSpec:
    # horizon pinned as a singleton axis: keeps the payload identical for
    # both execution modes and the runtime flat across points
    return GridSpec(seed=0).cartesian(
        sample=list(range(POINTS)), horizon=[HORIZON]
    )


class TestParallelSpeedup:
    def test_workers4_vs_serial(self, timed_pass, perf_asserts):
        """>= 2x wall-clock at workers=4 over the inline serial path on a
        64-point grid — with bit-identical records as the precondition."""
        grid = _region_grid()

        # warm-up: imports, pool fork, first-call caches — all off-clock
        warm = GridSpec(seed=1).cartesian(sample=[0, 1], horizon=[40])
        run_sweep(warm, region_point, workers=0)
        run_sweep(warm, region_point, workers=WORKERS)

        t0 = time.perf_counter()
        serial = run_sweep(grid, region_point, workers=0)
        serial_s = time.perf_counter() - t0

        parallel, parallel_s = timed_pass(
            lambda: run_sweep(grid, region_point, workers=WORKERS))

        # same sweep before comparing speed: the differential guarantee
        # must hold at benchmark scale, not just on toy grids
        assert parallel.records == serial.records

        ratio = serial_s / parallel_s
        cores = _usable_cores()
        append_record(RESULTS, {
            "points": POINTS,
            "horizon": HORIZON,
            "workers": WORKERS,
            "usable_cores": cores,
            "serial_seconds": round(serial_s, 4),
            "parallel_seconds": round(parallel_s, 4),
            "speedup": round(ratio, 2),
        })
        print(f"\nserial: {serial_s:.3f}s  workers={WORKERS}: {parallel_s:.3f}s  "
              f"speedup: {ratio:.2f}x on {cores} core(s)")
        if perf_asserts and cores >= WORKERS:
            assert ratio >= 2.0, (
                f"workers={WORKERS} only {ratio:.2f}x faster than serial "
                f"(need >= 2x on a {POINTS}-point grid with {cores} cores)"
            )


def lattice_classify_point(params, seed):
    """Deterministic topology from params alone — the cache-friendly
    workload: the ``rep`` axis revisits identical flow problems."""
    g = gen.grid(params["rows"], params["cols"])
    spec = NetworkSpec.classical(
        g, {0: params["rate"]}, {g.n - 1: 2}
    )
    report = _CACHE.classify(spec)
    return {"network_class": report.network_class.value}


_CACHE = FeasibilityCache()


class TestCacheHitRate:
    def test_repeat_axis_hits_the_cache(self, benchmark):
        """4 distinct flow problems x 16 repeats: 64 lookups, 4 misses."""
        _CACHE.clear()
        grid = (
            GridSpec(seed=0)
            .zipped(rows=[4, 5], cols=[5, 5])
            .cartesian(rate=[1, 2], rep=list(range(16)))
        )
        assert len(grid) == 64

        run = benchmark.pedantic(
            lambda: run_sweep(grid, lattice_classify_point, workers=0),
            rounds=1, iterations=1,
        )
        assert len(run.records) == 64
        assert _CACHE.misses == 4
        assert _CACHE.hits == 60
        assert _CACHE.hit_rate >= 0.9
        print(f"\ncache: {_CACHE.hits} hits / {_CACHE.misses} misses "
              f"({_CACHE.hit_rate:.0%}) in {run.elapsed:.3f}s")

    def test_cache_beats_cold_classification(self, timed_pass, perf_asserts):
        """The 60 cache hits must make the sweep faster than classifying
        every point cold (same grid, cache cleared per point)."""
        grid = (
            GridSpec(seed=0)
            .zipped(rows=[4, 5], cols=[5, 5])
            .cartesian(rate=[1, 2], rep=list(range(16)))
        )

        _CACHE.clear()
        t0 = time.perf_counter()
        warm_run = run_sweep(grid, lattice_classify_point, workers=0)
        warm_s = time.perf_counter() - t0

        def cold_sweep():
            def cold_point(params, seed):
                _CACHE.clear()  # defeat memoization: every point pays
                return lattice_classify_point(params, seed)

            return run_sweep(grid, cold_point, workers=0)

        cold_run, cold_s = timed_pass(cold_sweep)

        assert cold_run.records == warm_run.records
        ratio = cold_s / warm_s
        print(f"\ncold: {cold_s:.3f}s  cached: {warm_s:.3f}s  "
              f"speedup: {ratio:.2f}x")
        if perf_asserts:
            assert ratio >= 1.5, (
                f"cache only bought {ratio:.2f}x over cold classification"
            )
