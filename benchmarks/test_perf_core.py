"""Integer LGG kernel: long-run engine speedup over the stage pipeline.

The claim: on the e03/e04 long-run workloads (the Theorem 1 stability
sweep, ``k = 1..8`` unit sources over a 4-wide bottleneck at horizon 6000,
and the divergence-rate sweep, ``λ = 5..8`` at horizon 8000) the
pure-integer kernel (:mod:`repro.core.fastpath`) beats the forced stage
pipeline (``numeric_fastpath=False``) by >= 5x aggregate wall-clock —
the observed ratio is ~9–10x on 2 shared cores: the kernel's cycle check
catches the recurring queue vector of every stable configuration and
tiles the rest of its horizon (135–185x), while divergent ones never
recur and step every step (6–9x).

Exact agreement of every trajectory series, final queue vector and
stability verdict between the two paths is asserted unconditionally —
speed never buys away correctness; only the wall-clock ratio is gated on
``perf_asserts`` (off under ``--perf-smoke``, where shared CI runners
make timing flaky).

Results append to ``benchmarks/results/BENCH_core.json`` (gitignored
output, not an input).
"""

import time
from pathlib import Path

import pytest

from benchmarks.e2e.record import append_record
from repro.core.engine import SimulationConfig, Simulator
from repro.exp.workloads import bottleneck_spec
from repro.numeric import fastpath_steps_total, reset_counters

# (active sources k, horizon) — e03's stability sweep plus e04's
# divergence sweep, at their report-quality (fast=False) horizons
E03 = [(k, 6000) for k in range(1, 9)]
E04 = [(k, 8000) for k in range(5, 9)]
CONFIGS = E03 + E04
SPEEDUP_FLOOR = 5.0
RESULTS = Path(__file__).parent / "results" / "BENCH_core.json"


def _run(k: int, horizon: int, *, fastpath) -> tuple:
    spec = bottleneck_spec(k, width=8, bridge=4)
    cfg = SimulationConfig(horizon=horizon, numeric_fastpath=fastpath)
    res = Simulator(spec, config=cfg).run()
    t = res.trajectory
    return (
        tuple(t.potentials),
        tuple(t.total_queued),
        tuple(t.max_queues),
        tuple(t.injected),
        tuple(t.transmitted),
        tuple(t.lost),
        tuple(t.delivered),
        tuple(res.final_queues.tolist()),
        res.verdict.bounded,
        res.verdict.divergent,
    )


class TestIntegerKernelSpeedup:
    def test_kernel_beats_pipeline_5x(self, timed_pass, perf_asserts):
        # warm-up both paths off the clock
        _run(2, 50, fastpath=True)
        _run(2, 50, fastpath=False)

        scalar_facts = []
        t0 = time.perf_counter()
        for k, horizon in CONFIGS:
            scalar_facts.append(_run(k, horizon, fastpath=False))
        scalar_s = time.perf_counter() - t0

        fast_facts = []
        reset_counters()

        def fast_pass():
            fast_facts.clear()
            for k, horizon in CONFIGS:
                fast_facts.append(_run(k, horizon, fastpath=None))

        _, fast_s = timed_pass(fast_pass)
        speedup = scalar_s / fast_s if fast_s > 0 else float("inf")

        total_steps = sum(h for _, h in CONFIGS)
        kernel_steps = fastpath_steps_total()

        append_record(RESULTS, {
            "bench": "core_fastpath",
            "configs": len(CONFIGS),
            "total_steps": total_steps,
            "kernel_steps": kernel_steps,
            "scalar_s": round(scalar_s, 4),
            "fast_s": round(fast_s, 4),
            "speedup": round(speedup, 2),
            "perf_asserts": perf_asserts,
        })
        print(f"\n[core:fastpath] pipeline {scalar_s:.3f}s  kernel {fast_s:.3f}s  "
              f"speedup {speedup:.2f}x over {len(CONFIGS)} runs "
              f"({total_steps} steps)")

        # correctness is never timing-gated: trajectories must be identical
        assert fast_facts == scalar_facts
        # and the kernel must actually have carried every step
        assert kernel_steps == total_steps

        if perf_asserts:
            assert speedup >= SPEEDUP_FLOOR, (
                f"integer kernel only {speedup:.2f}x faster than the stage "
                f"pipeline (pipeline {scalar_s:.3f}s, kernel {fast_s:.3f}s); "
                f"floor is {SPEEDUP_FLOOR}x"
            )
