"""E23 — Mobility region maps: radius, motion, and topology families.

The paper's stability region is posed on a fixed graph; with mobility the
"graph" is a trajectory of radio-link sets, and the natural region axes
are physical — communication radius, motion model, node count — plus the
topology family when the network *is* fixed.  Three claims, all exactly
checkable:

* **Radius monotonicity.**  For a fixed trajectory (the deterministic
  circular orbit), a larger communication radius induces a superset of
  every snapshot's link set, so per-snapshot feasibility — and hence the
  feasible fraction of the timeline — is monotone non-decreasing in the
  radius.  This is the mobility analogue of "the stability region grows
  with capacity".
* **Warm = cold.**  The incremental feasibility timeline — one cold
  solve, then one warm repair per snapshot — is *identical* to the
  cold-solve-per-snapshot oracle (exact arithmetic).
* **Determinism.**  Regenerating a trace from the same seed is
  bit-identical (equal digests) — the property the sweep layer and the
  CI smoke step rely on.

A fourth, informational table row per topology family shows the
Definitions 3–4 class of a random instance of that family — the
family axis the region sweeps (``repro-lgg sweep --axis family=...``)
iterate over.
"""

from __future__ import annotations

from repro.exp.common import ExperimentResult, main_for, register
from repro.flow import classify_region
from repro.mobility import (
    CircularOrbit,
    MobilityTrace,
    RandomWaypoint,
    feasibility_timeline,
    feasibility_timeline_cold,
)
from repro.sweep.points import FAMILIES, random_instance_spec


@register("e23", "Mobility region maps over radius, motion, and topology families")
def run(fast: bool = True, seed: int = 0) -> ExperimentResult:
    steps = 40 if fast else 160
    rows = []
    all_ok = True

    # -- radius monotonicity on the deterministic orbit ----------------
    radii = (0.25, 0.35, 0.45, 0.6)
    fractions = []
    for radius in radii:
        trace = MobilityTrace.generate(
            CircularOrbit(omega=0.21, ring=0.35), 6,
            radius=radius, steps=steps, seed=seed,
        )
        tl = feasibility_timeline(trace, {0: 1}, {5: 2})
        fractions.append(tl.feasible_fraction)
        rows.append({
            "probe": f"orbit radius {radius}",
            "feasible fraction": f"{tl.feasible_fraction:.3f}",
            "warm/cold": f"{tl.warm_solves}/{tl.cold_solves}",
            "ok": True,
        })
    monotone = all(a <= b for a, b in zip(fractions, fractions[1:]))
    grows = fractions[-1] > fractions[0]
    rows.append({
        "probe": "feasible fraction monotone in radius",
        "feasible fraction": "-",
        "warm/cold": "-",
        "ok": monotone and grows,
    })
    all_ok &= monotone and grows

    # -- warm timeline == cold oracle on a random-waypoint trace -------
    trace = MobilityTrace.generate(
        RandomWaypoint(speed=0.1), 8, radius=0.45, steps=steps, seed=seed + 1,
    )
    warm = feasibility_timeline(trace, {0: 1}, {7: 2})
    cold = feasibility_timeline_cold(trace, {0: 1}, {7: 2})
    differential = all(
        (a.t, a.feasible, a.max_flow_value) == (b.t, b.feasible, b.max_flow_value)
        for a, b in zip(warm.entries, cold.entries)
    ) and len(warm) == len(cold) and warm.warm_solves > 0
    rows.append({
        "probe": "incremental timeline == cold oracle",
        "feasible fraction": f"{warm.feasible_fraction:.3f}",
        "warm/cold": f"{warm.warm_solves}/{warm.cold_solves}",
        "ok": differential,
    })
    all_ok &= differential

    # -- bit-identical regeneration ------------------------------------
    twin = MobilityTrace.generate(
        RandomWaypoint(speed=0.1), 8, radius=0.45, steps=steps, seed=seed + 1,
    )
    deterministic = twin.digest() == trace.digest()
    rows.append({
        "probe": "trace digest deterministic given seed",
        "feasible fraction": "-",
        "warm/cold": "-",
        "ok": deterministic,
    })
    all_ok &= deterministic

    # -- the family axis (informational): one classified instance each --
    for family in FAMILIES:
        spec = random_instance_spec({"family": family, "n": 9}, seed + 2)
        report = classify_region(spec.extended())
        rows.append({
            "probe": f"family {family}: n={spec.n} m={spec.graph.m} "
                     f"-> {report.network_class.value} (λ*={report.lambda_star})",
            "feasible fraction": "-",
            "warm/cold": "-",
            "ok": True,
        })

    return ExperimentResult(
        exp_id="e23",
        title="Mobility stability regions",
        claim="feasible fraction of a mobility timeline grows monotonically "
        "with the communication radius; the incremental tracker matches the "
        "cold oracle exactly and traces are deterministic given a seed",
        rows=tuple(rows),
        conclusion="mobility region maps are exact, incremental, and reproducible"
        if all_ok else "mobility region invariants violated — see table",
        passed=all_ok,
    )


if __name__ == "__main__":
    main_for(run)
