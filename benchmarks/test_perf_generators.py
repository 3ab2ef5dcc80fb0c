"""Random generators: numpy's stream without a numpy call per draw.

``region_map`` builds 1,200 random networks per seed.  A fifth are
Barabási–Albert graphs (n = 128, m = 2) and a fifth Watts–Strogatz
graphs (n = 128, k = 4, β = 0.2), and both generators make one draw at a
time.  Production draws through :func:`repro._rng.scalar_draws`, which
calls the bit generator's own C functions and applies numpy's 32-bit
Lemire step; the old path is the per-draw oracles of
``tests/graphs/generators_reference.py``, one ``rng.integers`` or
``rng.random`` per draw.

Every graph must equal its oracle's (edge ids, orientation, slot count):
that is asserted unconditionally.  Only the wall-clock ratio over the
combined 240-call batches is gated on ``perf_asserts`` (off under
``--perf-smoke``).

Results append to ``benchmarks/results/BENCH_generators.json``
(gitignored output, not an input).
"""

import time
from pathlib import Path

from benchmarks.e2e.record import append_record
from repro.graphs import generators as gen

from tests.graphs.generators_reference import (
    barabasi_albert_reference,
    watts_strogatz_reference,
)
from tests.graphs.test_generators_oracle import store

CALLS = 240
#: region_map's shapes: (production, oracle, args before the seed)
SHAPES = {
    "ba": (gen.barabasi_albert, barabasi_albert_reference, (128, 2)),
    "ws": (gen.watts_strogatz, watts_strogatz_reference, (128, 4, 0.2)),
}
REPEATS = 5
SPEEDUP_FLOOR = 1.5
RESULTS = Path(__file__).parent / "results" / "BENCH_generators.json"


def _batch_s(*makes, args) -> list[float]:
    """Best wall time of ``REPEATS`` batches of ``CALLS`` seeded calls per
    maker, the makers' batches alternating so host noise hits each alike."""
    best = [float("inf")] * len(makes)
    for _ in range(REPEATS):
        for i, make in enumerate(makes):
            t0 = time.perf_counter()
            for seed in range(CALLS):
                make(*args, seed)
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


class TestGeneratorDraws:
    def test_scalar_draws_beat_per_draw_calls(self, perf_asserts):
        record = {"bench": "generators", "calls": CALLS}
        old_total = new_total = 0.0
        for name, (make, oracle, args) in SHAPES.items():
            # identity is never timing-gated
            for seed in range(CALLS):
                assert store(make(*args, seed)) == store(oracle(*args, seed)), (name, seed)
            old_s, new_s = _batch_s(oracle, make, args=args)
            record[f"{name}_per_draw_ms"] = round(old_s * 1e3, 2)
            record[f"{name}_ms"] = round(new_s * 1e3, 2)
            old_total += old_s
            new_total += new_s
            print(f"\n[generators] {name}: per-draw {old_s * 1e3:.1f} ms, "
                  f"scalar draws {new_s * 1e3:.1f} ms over {CALLS} calls")
        speedup = old_total / new_total
        record.update(speedup=round(speedup, 2), perf_asserts=perf_asserts)
        append_record(RESULTS, record)
        print(f"[generators] combined speedup {speedup:.2f}x")

        if perf_asserts:
            assert speedup >= SPEEDUP_FLOOR, (
                f"BA + WS batches only {speedup:.2f}x faster than the "
                f"per-draw oracles; floor is {SPEEDUP_FLOOR}x"
            )
