"""Physically-driven dynamic topologies: positions, motion, radio links.

The mobility subsystem closes the gap between the paper's scripted edge
churn and physically-motivated dynamics: nodes carry positions on the
unit square, move under a pluggable :class:`~repro.mobility.models.\
MobilityModel`, and links are induced by a communication radius — the
same geometric rule as :func:`repro.graphs.generators.random_geometric`.

Layers (bottom up):

* :mod:`repro.mobility.models` — how positions evolve
  (:class:`RandomWaypoint`, :class:`VirtualForce`, :class:`CircularOrbit`);
* :mod:`repro.mobility.trace` — a precomputed, digest-able
  :class:`MobilityTrace` of snapshots, and :class:`MobilitySchedule`
  adapting it to the :class:`repro.dynamic.topology.TopologySchedule`
  protocol so the simulator and E10 consume mobility like scripted churn;
* :mod:`repro.mobility.feasibility` — :func:`feasibility_timeline`,
  tracking Definition-3 feasibility *through* the trace on one warm
  parametric max-flow chain (cold-solve-per-snapshot oracle kept as the
  differential twin).

Everything is deterministic given a seed: one generator per trace, fixed
draw order, no wall-clock.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    ".models": ("MobilityModel", "RandomWaypoint", "VirtualForce", "CircularOrbit",
                "model_by_name", "MODEL_NAMES"),
    ".trace": ("MobilitySnapshot", "MobilityTrace", "MobilitySchedule"),
    ".feasibility": ("TimelineEntry", "FeasibilityTimeline", "feasibility_timeline",
                     "feasibility_timeline_cold"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
