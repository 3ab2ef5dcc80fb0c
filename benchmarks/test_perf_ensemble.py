"""Batched vs. scalar ensemble throughput.

The whole point of ``EnsembleSimulator`` is to amortize the per-step Python
overhead across replicas: R scalar ``Simulator`` runs pay the interpreter
cost R times, the batched pipeline pays it once on ``(R, n)`` arrays.  This
benchmark measures the ratio on the bottleneck gadget (the paper's stress
topology) and enforces the >= 5x floor the batched backend is expected to
clear at R = 64.

Results are appended to ``benchmarks/results/ensemble_speedup.json`` so the
ratio's history survives across runs (the file is gitignored output, not an
input).
"""

import time
from pathlib import Path

import pytest

from benchmarks.e2e.record import append_record
from repro.core import SimulationConfig, Simulator
from repro.core.ensemble import EnsembleSimulator
from repro.graphs import generators as gen
from repro.network import NetworkSpec

REPLICAS = 64
HORIZON = 300
RESULTS = Path(__file__).parent / "results" / "ensemble_speedup.json"


def gadget_spec():
    g, entries, exits = gen.bottleneck_gadget(4, 4, 2)
    return NetworkSpec.classical(
        g, {v: 1 for v in entries}, {v: 1 for v in exits}
    )


def run_scalar_loop(spec):
    results = []
    for r in range(REPLICAS):
        sim = Simulator(spec, config=SimulationConfig(horizon=HORIZON, seed=r))
        results.append(sim.run())
    return results


def run_batched(spec):
    return EnsembleSimulator(
        spec, REPLICAS, seeds=list(range(REPLICAS))
    ).run(HORIZON)


class TestEnsembleSpeedup:
    def test_batched_vs_scalar_loop(self, timed_pass, perf_asserts):
        """Batched backend must be >= 5x faster than looping the scalar
        engine over the same 64 replicas (identical trajectories)."""
        spec = gadget_spec()

        # warm-up outside timing (imports, first-call JIT-ish caches)
        EnsembleSimulator(spec, 2, seeds=[0, 1]).run(10)
        Simulator(spec, config=SimulationConfig(horizon=10, seed=0)).run()

        t0 = time.perf_counter()
        scalar_results = run_scalar_loop(spec)
        scalar_s = time.perf_counter() - t0

        res, batched_s = timed_pass(run_batched, spec)

        # same dynamics before comparing speed
        for r in (0, REPLICAS // 2, REPLICAS - 1):
            assert (res.total_queued[:, r].tolist()
                    == scalar_results[r].trajectory.total_queued)

        ratio = scalar_s / batched_s
        append_record(RESULTS, {
            "replicas": REPLICAS,
            "horizon": HORIZON,
            "scalar_seconds": round(scalar_s, 4),
            "batched_seconds": round(batched_s, 4),
            "speedup": round(ratio, 2),
        })
        print(f"\nscalar loop: {scalar_s:.3f}s  batched: {batched_s:.3f}s  "
              f"speedup: {ratio:.1f}x")
        if perf_asserts:
            assert ratio >= 5.0, (
                f"batched backend only {ratio:.1f}x faster than the scalar loop "
                f"(need >= 5x at R={REPLICAS})"
            )

    @pytest.mark.parametrize("replicas", [16, 64, 256])
    def test_batched_scaling(self, replicas, benchmark):
        """Per-replica cost should *fall* with R (overhead amortization)."""
        spec = gadget_spec()

        def run():
            return EnsembleSimulator(
                spec, replicas, seeds=list(range(replicas))
            ).run(HORIZON)

        res = benchmark.pedantic(run, rounds=1, iterations=1)
        assert res.replicas == replicas
