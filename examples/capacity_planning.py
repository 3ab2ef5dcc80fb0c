#!/usr/bin/env python
"""Capacity planning with the feasibility machinery.

A practical use of the library's flow substrate that needs no simulation
at all: given a topology and a traffic matrix shape, find the largest
arrival rates the network can sustain (Definitions 3-4), then verify the
prediction by simulating LGG at, below, and above the edge.

Scenario: a 6x6 campus mesh, four access routers injecting, two gateways
extracting.  Questions a planner asks:

1. what's the max per-router rate the mesh can carry?           (f*)
2. how much headroom does the current rate leave?               (ε margin)
3. does the protocol actually deliver at the planned edge?      (simulate)

Run:  python examples/capacity_planning.py
"""


from repro import NetworkSpec, classify_network, generators, simulate_lgg
from repro.analysis.report import format_table
from repro.flow import classify_region

ROWS = COLS = 6
mesh = generators.grid(ROWS, COLS)
routers = [0, 5, 30, 35]          # the four corners
gateways = [14, 21]               # two interior gateways

print(f"mesh: {mesh.n} nodes / {mesh.m} links; routers {routers}, gateways {gateways}")
print()

# -- 1-2. sweep the per-router rate and classify -----------------------------
rows = []
max_ok = 0
for rate in (1, 2, 3):
    spec = NetworkSpec.classical(
        mesh, {r: rate for r in routers},
        {g: 4 for g in gateways},
    )
    rep = classify_network(spec.extended())
    margin = None
    if rep.feasible:
        margin = float(classify_region(spec.extended()).margin)
        max_ok = rate
    rows.append(
        {
            "per-router rate": rate,
            "total arrival": rep.arrival_rate,
            "max flow": rep.max_flow_value,
            "class": rep.network_class.value,
            "headroom eps": f"{margin:.3f}" if margin is not None else "-",
        }
    )
print(format_table(rows, title="capacity sweep (no simulation needed)"))
print()

# cross-check the sweep against the exact frontier along the unit-rate ray:
# the mesh carries lambda * (1, 1, 1, 1) exactly when lambda <= lambda*
spec = NetworkSpec.classical(mesh, {r: 1 for r in routers}, {g: 4 for g in gateways})
lam = classify_region(spec.extended()).lambda_star
print(f"exact frontier: max per-router rate lambda* = {lam} "
      f"(the sweep found {max_ok})")
print()

# -- 3. validate the plan by simulation ---------------------------------------
results = []
for rate, label in ((max_ok, "at the planned edge"), (max_ok + 1, "one step beyond")):
    spec = NetworkSpec.classical(
        mesh, {r: rate for r in routers}, {g: 4 for g in gateways}
    )
    res = simulate_lgg(spec, horizon=4000, seed=0)
    results.append(
        {
            "rate": rate,
            "scenario": label,
            "bounded": res.verdict.bounded,
            "tail queue": res.verdict.tail_mean_queued,
            "slope": res.verdict.slope,
        }
    )
print(format_table(results, title="validation by simulation"))
print()
print("the planner's rule: trust the flow classifier — LGG is stable exactly")
print("on the feasible region (Theorem 1), so capacity planning reduces to a")
print("max-flow computation.")
