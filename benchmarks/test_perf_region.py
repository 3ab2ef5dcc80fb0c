"""Exact region boundaries: one envelope per ray vs. a classify per point.

The workload is the one e03/e17/e23 actually run: a region map resolves
every instance at a *grid of load scales* along its injection ray —
"is λ·(in rates) still routable?" for each sampled λ — plus the
stability margin at the nominal point.  The per-point path answers each
sample with its own warm classify (:func:`classify_network` of the
scaled instance; nothing carries over between scales).  The envelope
path answers the *entire ray* from one :func:`classify_region` call: the
breakpoint envelope is exact for every λ at once, so each sample is an
O(log segments) lookup and the margin falls out exactly, not
``tol``-bracketed.

Consistency is asserted unconditionally: at every sampled scale the
envelope's verdict (class and max-flow value) must equal the scaled
classify's, and the all-cold bisection margin
(``max_unsaturation_margin_cold`` from ``tests/flow/engines.py``, run
off the clock) must bracket
the exact one from below within ``TOL``.  Only the wall-clock ratio is
gated on ``perf_asserts`` (off under ``--perf-smoke``, where shared CI
runners make timing flaky).

Results append to ``benchmarks/results/BENCH_region.json`` (gitignored
output, not an input).
"""

import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from benchmarks.e2e.record import append_record
from repro.flow.feasibility import NetworkClass, classify_network, classify_region
from repro.graphs import build_extended_graph
from repro.graphs import generators as gen
from tests.flow.engines import max_unsaturation_margin_cold

# (n, gnp_p, sources, sinks, rate_lo, rate_hi) — region maps sweep many
# instances; per-ray resolution cost is what the envelope path attacks
SPECS = [
    (60, 0.10, 6, 6, 2, 6),
    (90, 0.08, 8, 8, 3, 8),
    (120, 0.06, 8, 8, 3, 8),
]
REPEATS = 2
# the rate axis of the map: load scales λ sampled along each ray, the
# e03 "k-fold inflation" axis at map resolution
SCALES = [Fraction(k, 4) for k in range(1, 17)]
TOL = Fraction(1, 4096)
SPEEDUP_FLOOR = 3.0
RESULTS = Path(__file__).parent / "results" / "BENCH_region.json"


def _instances():
    """(graph, in_rates, out_rates) triples — both paths build their own
    extended graphs from these, so instance construction is charged to
    whichever pipeline needs it (the old one, once per scale)."""
    out = []
    for i, (n, p, n_src, n_snk, r_lo, r_hi) in enumerate(SPECS):
        for rep in range(REPEATS):
            seed = 7000 * i + rep
            rng = np.random.default_rng(seed)
            g = gen.random_gnp(n, p, seed, ensure_connected=True)
            nodes = rng.permutation(n)
            in_rates = {
                int(v): Fraction(int(rng.integers(r_lo, r_hi)),
                                 int(rng.integers(1, 3)))
                for v in nodes[:n_src]
            }
            out_rates = {
                int(v): Fraction(int(rng.integers(r_lo + 1, r_hi + 2)))
                for v in nodes[n_src:n_src + n_snk]
            }
            out.append((g, in_rates, out_rates))
    return out


class TestRegionEnvelopeSpeedup:
    def test_envelope_beats_per_scale_classify_3x(self, timed_pass, perf_asserts):
        instances = _instances()

        # warm-up: let both paths touch their code once, off the clock
        g0, in0, out0 = instances[0]
        classify_region(build_extended_graph(g0, in0, out0))
        classify_network(build_extended_graph(g0, in0, out0))

        # -- old path: one warm classify per sampled scale
        point_rows = []
        t0 = time.perf_counter()
        for g, in_rates, out_rates in instances:
            row = []
            for s in SCALES:
                scaled = build_extended_graph(
                    g, {v: s * r for v, r in in_rates.items()}, out_rates)
                rep = classify_network(scaled)
                row.append((rep.network_class, rep.max_flow_value))
            point_rows.append(row)
        point_s = time.perf_counter() - t0

        # -- new path: one parametric solve per ray, lookups per scale
        reports = []

        def envelope_pass():
            reports.clear()
            for g, in_rates, out_rates in instances:
                report = classify_region(
                    build_extended_graph(g, in_rates, out_rates))
                env = report.envelope
                row = [(NetworkClass.UNSATURATED if s < env.lambda_star
                        else NetworkClass.SATURATED if s == env.lambda_star
                        else NetworkClass.INFEASIBLE,
                        env.value_at(s)) for s in SCALES]
                reports.append((report, row))
            return reports

        _, envelope_s = timed_pass(envelope_pass)
        speedup = point_s / envelope_s if envelope_s > 0 else float("inf")

        append_record(RESULTS, {
            "bench": "region_envelope",
            "instances": len(instances),
            "scales_per_ray": len(SCALES),
            "point_s": round(point_s, 4),
            "envelope_s": round(envelope_s, 4),
            "speedup": round(speedup, 2),
            "perf_asserts": perf_asserts,
        })
        print(f"\n[region] per-scale classify {point_s:.3f}s  "
              f"envelope {envelope_s:.3f}s  speedup {speedup:.2f}x over "
              f"{len(instances)} rays x {len(SCALES)} scales")

        # correctness is never timing-gated: every sampled verdict must
        # match, and the cold bisection bracket (off the clock) must
        # contain the exact margin
        for (report, row), old_row, (g, in_rates, out_rates) in zip(
                reports, point_rows, instances):
            assert row == old_row
            margin = max_unsaturation_margin_cold(
                build_extended_graph(g, in_rates, out_rates), tol=TOL)
            if margin >= 2**20:
                assert report.margin >= 2**20  # bisection bailed at its cap
            else:
                assert margin <= report.margin < margin + TOL

        if perf_asserts:
            assert speedup >= SPEEDUP_FLOOR, (
                f"envelope path only {speedup:.2f}x faster "
                f"(per-scale classify {point_s:.3f}s, envelope "
                f"{envelope_s:.3f}s); floor is {SPEEDUP_FLOOR}x"
            )
