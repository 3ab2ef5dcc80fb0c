"""Serving-layer performance: micro-batching throughput and shed latency.

Two claims, measured with a closed-loop load generator (real HTTP against
a :class:`BackgroundServer` on an ephemeral port):

* **batching** — N identical closed-loop clients issuing concurrently are
  served >= 5x faster than the same N requests issued serially, because
  the micro-batcher folds them into a handful of vectorized ensemble runs
  (one argsort per step for all replicas) while the serial path pays one
  scalar run per request.  Bit-identity of every response to the scalar
  oracle is asserted unconditionally — speed never buys away correctness.
* **shedding** — a burst over a tiny admission window produces only 200s
  and 429s (zero 5xx, zero drops), and the 429s are *fast*: shed p99 stays
  bounded because rejection happens at the door, not after queueing.

Results append to ``benchmarks/results/serve_perf.json`` (output, not an
input).  Wall-clock assertions are gated on ``perf_asserts`` (off under
``--perf-smoke``); structural assertions always run.
"""

import threading
import time
from pathlib import Path

from benchmarks.e2e.record import append_record
from repro.errors import ServeError
from repro.serve import BackgroundServer, ServeClient, direct_simulate, parse_spec

SPEC = {"topology": "path", "n": 6, "in_rate": 1, "out_rate": 2}
N_CLIENTS = 16
HORIZON = 2000
RESULTS = Path(__file__).parent / "results" / "serve_perf.json"


def _percentile(samples, q):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class TestBatchedThroughput:
    def test_concurrent_burst_beats_serial_5x(self, benchmark, perf_asserts):
        with BackgroundServer(batch_window=0.05, max_batch=64,
                              threads=2) as url:
            client = ServeClient(url, timeout=120)
            client.simulate(SPEC, horizon=100, seed=0)  # warm-up, off-clock

            # serial baseline: one closed loop, requests back to back —
            # every request is its own batch of one
            t0 = time.perf_counter()
            serial_responses = [
                client.simulate(SPEC, horizon=HORIZON, seed=s)
                for s in range(N_CLIENTS)
            ]
            serial_s = time.perf_counter() - t0

            # batched: the same N requests, issued concurrently, coalesce
            responses: dict[int, dict] = {}
            errors: list[Exception] = []
            barrier = threading.Barrier(N_CLIENTS)

            def worker(seed):
                try:
                    barrier.wait(timeout=30)
                    responses[seed] = client.simulate(
                        SPEC, horizon=HORIZON, seed=seed
                    )
                except Exception as exc:  # noqa: BLE001 - asserted below
                    errors.append(exc)

            def burst():
                threads = [threading.Thread(target=worker, args=(s,))
                           for s in range(N_CLIENTS)]
                t0 = time.perf_counter()
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                return time.perf_counter() - t0

            batched_s = benchmark.pedantic(burst, rounds=1, iterations=1)

            assert not errors
            assert len(responses) == N_CLIENTS
            # correctness precondition: every batched response bit-equals
            # the scalar oracle AND the serial response for its seed
            spec = parse_spec(SPEC)
            for seed in range(N_CLIENTS):
                expected = direct_simulate(spec, HORIZON, seed)
                got = {k: responses[seed][k] for k in expected}
                serial_got = {k: serial_responses[seed][k] for k in expected}
                assert got == expected
                assert serial_got == expected
            batches = {r["batch"]["seq"] for r in responses.values()}
            assert len(batches) < N_CLIENTS  # coalescing actually happened

        ratio = serial_s / batched_s
        append_record(RESULTS, {
            "clients": N_CLIENTS,
            "horizon": HORIZON,
            "serial_seconds": round(serial_s, 4),
            "batched_seconds": round(batched_s, 4),
            "speedup": round(ratio, 2),
            "ensemble_batches": len(batches),
        })
        print(f"\nserial: {serial_s:.3f}s  concurrent: {batched_s:.3f}s  "
              f"speedup: {ratio:.2f}x across {len(batches)} batch(es)")
        if perf_asserts:
            assert ratio >= 5.0, (
                f"micro-batching only {ratio:.2f}x over serial "
                f"(need >= 5x for {N_CLIENTS} identical-config clients)"
            )


class TestShedLatency:
    def test_overload_sheds_fast_and_clean(self, benchmark, perf_asserts):
        n_burst = 32
        with BackgroundServer(queue_limit=2, batch_window=0.2,
                              threads=2) as url:
            client = ServeClient(url, timeout=120)
            client.simulate(SPEC, horizon=100, seed=0)  # warm-up

            outcomes: list[tuple[int, float]] = []
            lock = threading.Lock()
            barrier = threading.Barrier(n_burst)

            def worker(seed):
                barrier.wait(timeout=30)
                t0 = time.perf_counter()
                try:
                    client.simulate(SPEC, horizon=HORIZON, seed=seed)
                    code = 200
                except ServeError as exc:
                    code = exc.status or 0
                with lock:
                    outcomes.append((code, time.perf_counter() - t0))

            def burst():
                threads = [threading.Thread(target=worker, args=(s,))
                           for s in range(n_burst)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()

            benchmark.pedantic(burst, rounds=1, iterations=1)

        assert len(outcomes) == n_burst                 # zero drops
        codes = {code for code, _ in outcomes}
        assert codes <= {200, 429}                      # zero 5xx
        assert 429 in codes                             # it did overload
        shed_latencies = [lat for code, lat in outcomes if code == 429]
        served_count = sum(1 for code, _ in outcomes if code == 200)
        p99 = _percentile(shed_latencies, 0.99)
        append_record(RESULTS, {
            "burst": n_burst,
            "served": served_count,
            "shed": len(shed_latencies),
            "shed_p99_seconds": round(p99, 4),
        })
        print(f"\nburst {n_burst}: {served_count} served, "
              f"{len(shed_latencies)} shed, shed p99 {p99 * 1000:.1f}ms")
        if perf_asserts:
            # a shed is a constant-time door rejection; 500ms leaves room
            # for thread scheduling on a loaded 1-core runner
            assert p99 < 0.5, f"shed p99 {p99:.3f}s — rejections are queueing"
