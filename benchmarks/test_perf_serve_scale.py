"""Serve-tier scaling: classify throughput across ``--workers N``.

The claim: moving classify work from the in-process executor (GIL-bound
threads) to the multi-process worker tier scales near-linearly up to the
core count — ``workers=4`` clears >= 2.5x the ``workers=0`` closed-loop
throughput on a >= 4-core machine.

The workload is a closed-loop :mod:`repro.loadgen` run over *distinct*
gnp instances (every request a fresh max-flow classification — no cache
hits, so the measurement is compute scaling, not cache luck), plus one
open-loop Poisson run that holds the pooled tier to an SLO: zero hard
errors, bounded shed rate.

Structural assertions (zero errors, bit-identical verdicts, worker tasks
actually crossing the process boundary) always run; the wall-clock
scaling floor is gated on ``perf_asserts`` **and** the machine having
the cores to show it (``os.cpu_count() >= 4``) — a 1-core CI runner
still exercises every code path and records its numbers.

Results append to ``benchmarks/results/BENCH_serve_scale.json``
(gitignored output, not an input).
"""

import os
import time
from pathlib import Path

from benchmarks.e2e.record import append_record
from repro.flow import classify_network
from repro.loadgen import (
    SLO,
    check_slo,
    classify_request,
    poisson_schedule,
    run_closed_loop,
    run_open_loop,
)
from repro.serve import BackgroundServer, ServeClient, parse_spec, report_to_json

N_REQUESTS = 160
CONCURRENCY = 8
SPEEDUP_FLOOR = 2.5          # workers=4 vs workers=0, >= 4 cores only
RESULTS = Path(__file__).parent / "results" / "BENCH_serve_scale.json"


def _spec(seed: int) -> dict:
    """A distinct mid-size instance per seed: ~ms of real solve work."""
    return {"topology": "gnp", "n": 64, "p": 0.15, "seed": seed,
            "in_rate": 1, "out_rate": 2}


def _worker_tiers() -> list[int]:
    cores = os.cpu_count() or 1
    tiers = [0, 2]
    if cores >= 4:
        tiers.append(4)
    return tiers


class TestClassifyThroughputScaling:
    def test_worker_tiers_scale_classify_throughput(self, benchmark,
                                                    perf_asserts):
        requests = [classify_request(_spec(seed)) for seed in range(N_REQUESTS)]
        tiers: dict[int, dict] = {}

        def measure_all():
            for workers in _worker_tiers():
                srv = BackgroundServer(workers=workers, threads=CONCURRENCY)
                url = srv.start(timeout=120.0)
                try:
                    client = ServeClient(url, timeout=120)
                    client.classify(_spec(10_000))  # warm-up, off-clock
                    t0 = time.perf_counter()
                    report = run_closed_loop(url, requests,
                                             concurrency=CONCURRENCY,
                                             timeout=120.0)
                    wall = time.perf_counter() - t0
                    pool = srv.server.pool
                    tiers[workers] = {
                        "report": report,
                        "wall": wall,
                        "worker_tasks": (dict(pool.completed)
                                         if workers > 0 else None),
                        "restarts": pool.restarts if workers > 0 else 0,
                    }
                finally:
                    srv.stop()

        benchmark.pedantic(measure_all, rounds=1, iterations=1)

        # structural: every tier answered everything, cleanly
        for workers, data in tiers.items():
            report = data["report"]
            assert report.total == N_REQUESTS, f"workers={workers} dropped work"
            assert report.ok == N_REQUESTS, (
                f"workers={workers}: {report.status_counts()}"
            )
            assert report.errors == 0 and report.shed == 0
            assert data["restarts"] == 0
        # structural: pooled tiers really did the work out-of-process
        for workers, data in tiers.items():
            if workers > 0:
                done = data["worker_tasks"]
                assert done is not None
                # warm-up + the run (coalescing identical submits can't
                # happen here: every spec is distinct)
                assert done.get("classify", 0) >= N_REQUESTS

        baseline = tiers[0]["report"].throughput
        rows = []
        for workers, data in sorted(tiers.items()):
            report = data["report"]
            rows.append({
                "workers": workers,
                "requests": report.total,
                "wall_seconds": round(data["wall"], 4),
                "throughput_rps": round(report.throughput, 2),
                "p50_s": round(report.p50, 5),
                "p99_s": round(report.p99, 5),
                "speedup_vs_inproc": round(report.throughput / baseline, 3),
            })
        payload = {
            "benchmark": "classify_throughput_scaling",
            "cores": os.cpu_count(),
            "concurrency": CONCURRENCY,
            "spec": "gnp n=64 p=0.15, distinct seed per request",
            "tiers": rows,
        }
        append_record(RESULTS, payload)
        print("\nworkers  rps      p50ms   p99ms   speedup")
        for row in rows:
            print(f"{row['workers']:>7}  {row['throughput_rps']:<7}  "
                  f"{row['p50_s'] * 1000:<6.1f}  {row['p99_s'] * 1000:<6.1f}  "
                  f"{row['speedup_vs_inproc']}x")

        cores = os.cpu_count() or 1
        if perf_asserts and cores >= 4:
            speedup = tiers[4]["report"].throughput / baseline
            assert speedup >= SPEEDUP_FLOOR, (
                f"workers=4 only {speedup:.2f}x over in-process "
                f"(need >= {SPEEDUP_FLOOR}x on a {cores}-core machine)"
            )

    def test_pooled_responses_stay_bit_identical(self):
        """Scaling never buys away correctness: a pooled classify equals
        the direct in-process oracle for a spec from the bench set."""
        spec_payload = _spec(0)
        with BackgroundServer(workers=2) as url:
            body = ServeClient(url, timeout=120).classify(spec_payload)
        expected = report_to_json(
            classify_network(parse_spec(spec_payload).extended()))
        assert {k: v for k, v in body.items() if k != "cache_hit"} == expected


class TestOpenLoopSLO:
    def test_pooled_tier_holds_an_slo_under_poisson_load(self, perf_asserts):
        """Open-loop Poisson arrivals against the pooled tier: zero hard
        errors always; latency quantiles gated with the other wall-clock
        asserts."""
        schedule = poisson_schedule(40.0, count=120, seed=11)
        srv = BackgroundServer(workers=2, threads=CONCURRENCY)
        url = srv.start(timeout=120.0)
        try:
            ServeClient(url, timeout=120).classify(_spec(10_001))  # warm-up
            report = run_open_loop(
                url, schedule, lambda i: classify_request(_spec(20_000 + i)),
                timeout=120.0)
        finally:
            srv.stop()

        append_record(RESULTS, {
            "benchmark": "open_loop_poisson_slo",
            "cores": os.cpu_count(),
            "rate_rps": 40.0,
            **report.to_json(),
        })
        # the degradation contract is unconditional
        assert check_slo(report, SLO(max_shed_rate=1.0,
                                     max_error_rate=0.0)) == []
        assert report.total == 120
        if perf_asserts:
            violations = check_slo(report, SLO(
                p50_s=0.5, p99_s=2.0, max_shed_rate=0.5, max_error_rate=0.0))
            assert violations == [], violations
