"""Mobility: trace generation, and the incremental timeline vs its oracle.

Trace generation: ``MobilityTrace.generate`` at the sizes of the e2e
``mobility_churn`` workload (n 32–48, 48 steps) applies the link rule once
to each trace's ``(S, n, 2)`` positions stack and stores the links as one
bit row per snapshot over the trace's link universe.  Every snapshot's
links are checked against :func:`radius_edges` on that snapshot's
positions; generate seconds and link-storage bytes per trace (the
universe keys plus the rows, beside the 8 bytes per link that one pair
key per link would cost) are recorded, never gated.

The timeline claim: tracking feasibility through a mobility trace with one
warm chain (:func:`feasibility_timeline` — one cold solve of snapshot 0 on
scaled integers, then one two-way capacity step per snapshot that closes
the links that left and opens the ones that joined) beats the cold oracle
(:func:`feasibility_timeline_cold`, a fresh ``Fraction`` max-flow per
snapshot), on dense slowly-changing traces and on a fast churning one.

Exact agreement of every per-snapshot verdict *and* max-flow value is
asserted unconditionally — the differential is the acceptance criterion,
never timing-gated; only the wall-clock ratio is gated on
``perf_asserts`` (off under ``--perf-smoke``).

Results append to ``benchmarks/results/BENCH_mobility.json`` (gitignored
output, not an input).
"""

import statistics
import time
from pathlib import Path

from benchmarks.e2e.record import append_record
from repro.graphs.generators import radius_edges
from repro.mobility import (
    MobilityTrace,
    RandomWaypoint,
    feasibility_timeline,
    feasibility_timeline_cold,
)

# (n, radius, speed, steps) — three dense traces in slow motion, where few
# links change per snapshot, and one fast sparse trace at mobility_churn's
# size, where dozens of links leave and join between snapshots
SPECS = [
    (24, 0.45, 0.02, 120),
    (32, 0.40, 0.02, 120),
    (40, 0.35, 0.015, 100),
    (48, 0.30, 0.08, 48),
]
SPEEDUP_FLOOR = 1.5
RESULTS = Path(__file__).parent / "results" / "BENCH_mobility.json"


# (n, radius, speed) of mobility_churn-sized traces: slow and dense, then
# fast and sparser; 48 steps each
GENERATE_SPECS = [
    (32, 0.40, 0.01), (36, 0.38, 0.015), (40, 0.36, 0.02),
    (48, 0.30, 0.05), (48, 0.30, 0.075), (48, 0.30, 0.10),
]
GENERATE_STEPS = 48


class TestTraceGeneration:
    def test_generate_mobility_churn_sized_traces(self):
        generate_s, link_bytes, key_bytes = [], [], []
        for i, (n, radius, speed) in enumerate(GENERATE_SPECS):
            t0 = time.perf_counter()
            tr = MobilityTrace.generate(RandomWaypoint(speed=speed), n,
                                        radius=radius, steps=GENERATE_STEPS,
                                        seed=900 + i)
            generate_s.append(time.perf_counter() - t0)
            link_bytes.append(tr.universe_keys.nbytes + tr.rows.nbytes)
            links = 0
            for snap in tr:
                assert list(snap.links) == radius_edges(snap.positions, tr.radius)
                links += len(snap.keys)
            key_bytes.append(8 * links)
        append_record(RESULTS, {
            "bench": "mobility_generate",
            "traces": len(GENERATE_SPECS),
            "steps": GENERATE_STEPS,
            "generate_s": [round(s, 5) for s in generate_s],
            "link_bytes": link_bytes,
            "key_bytes": key_bytes,
            "generate_s_median": round(statistics.median(generate_s), 5),
            "link_bytes_median": statistics.median(link_bytes),
            "key_bytes_median": statistics.median(key_bytes),
            "link_to_key_bytes": round(sum(link_bytes) / sum(key_bytes), 4),
        })
        print(f"\n[mobility] generate {1e3 * statistics.median(generate_s):.2f} ms "
              f"per trace (median of {len(generate_s)}), "
              f"links {statistics.median(link_bytes):.0f} bytes per trace "
              f"({sum(link_bytes) / sum(key_bytes):.3f} of 8 bytes per link)")


def _traces():
    return [
        MobilityTrace.generate(
            RandomWaypoint(speed=speed), n, radius=radius, steps=steps,
            seed=700 + i,
        )
        for i, (n, radius, speed, steps) in enumerate(SPECS)
    ]


def _facts(tl):
    return [(e.t, e.feasible, e.max_flow_value) for e in tl.entries]


class TestIncrementalTimelineSpeedup:
    def test_warm_chain_beats_cold_oracle(self, timed_pass, perf_asserts):
        traces = _traces()
        rates = [({0: 1}, {tr.n - 1: 2}) for tr in traces]

        # warm-up: touch both paths once, off the clock
        feasibility_timeline(traces[0], *rates[0])
        feasibility_timeline_cold(traces[0], *rates[0])

        t0 = time.perf_counter()
        cold = [
            _facts(feasibility_timeline_cold(tr, *r))
            for tr, r in zip(traces, rates)
        ]
        cold_s = time.perf_counter() - t0

        warm_timelines = []

        def warm_pass():
            warm_timelines.clear()
            for tr, r in zip(traces, rates):
                warm_timelines.append(feasibility_timeline(tr, *r))

        _, warm_s = timed_pass(warm_pass)
        speedup = cold_s / warm_s if warm_s > 0 else float("inf")

        warm_solves = sum(tl.warm_solves for tl in warm_timelines)
        cold_solves = sum(tl.cold_solves for tl in warm_timelines)
        snapshots = sum(len(tl) for tl in warm_timelines)
        append_record(RESULTS, {
            "bench": "mobility_timeline",
            "traces": len(traces),
            "snapshots": snapshots,
            "warm_solves": warm_solves,
            "cold_solves": cold_solves,
            "cold_s": round(cold_s, 4),
            "warm_s": round(warm_s, 4),
            "speedup": round(speedup, 2),
            "perf_asserts": perf_asserts,
        })
        print(f"\n[mobility] cold {cold_s:.3f}s  warm {warm_s:.3f}s  "
              f"speedup {speedup:.2f}x over {snapshots} snapshots "
              f"({warm_solves} warm / {cold_solves} cold solves)")

        # the differential acceptance criterion: exact, never timing-gated
        assert [_facts(tl) for tl in warm_timelines] == cold
        # one cold solve per trace: every later snapshot is a warm step
        assert cold_solves == len(traces)
        assert warm_solves == snapshots - len(traces)

        if perf_asserts:
            assert speedup >= SPEEDUP_FLOOR, (
                f"incremental timeline only {speedup:.2f}x faster "
                f"(cold {cold_s:.3f}s, warm {warm_s:.3f}s); floor is "
                f"{SPEEDUP_FLOOR}x"
            )
