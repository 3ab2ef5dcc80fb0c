"""Max-flow / min-cut substrate.

The paper's stability results hinge on flows in the extended graph ``G*``
(Definitions 3–4) and on minimum cuts (Section V).  This subpackage
implements, from scratch:

* :mod:`~repro.flow.residual` — the directed flow-network representation
  (exact :class:`fractions.Fraction`, scaled-integer or float
  capacities),
* :mod:`~repro.flow.dinic` — Dinic's blocking-flow algorithm, the one
  max-flow engine (:func:`~repro.flow.maxflow.max_flow` is its cold
  solve; its phase loop also continues warm from any carried flow),
* :mod:`~repro.flow.distributed_pr` — a round-synchronous *distributed*
  Goldberg–Tarjan push-relabel (the paper's reference [6]), LGG's
  closest relative among flow algorithms,
* :mod:`~repro.flow.mincut` — cut extraction and the cut taxonomy of
  Section V (trivial source cut / sink cut / interior S-D-cut),
* :mod:`~repro.flow.warmstart` — the parametric warm-start engine: one
  cold solve, then capacity changes in either direction answered in
  place: lowered arcs have their flow repaired (rerouted, or cancelled
  back to the terminals), then Dinic re-augments the residual,
* :mod:`~repro.flow.parametric` — the one parametric ladder (scaled
  integers; one cold solve per ray, every other λ a warm fork) and the
  Gallo–Grigoriadis–Tarjan breakpoint envelope on it, with the exact λ*,
* :mod:`~repro.flow.feasibility` — Definitions 3–4 and ``f*`` as three
  rungs of that ladder; the exact ε margin, λ* and ``f*`` read off one
  envelope by ``classify_region``,
* :mod:`~repro.flow.decomposition` — flow → path decomposition, used by the
  maximum-flow routing baseline (the ``E_t^Φ`` of the proofs).
"""

from repro._exports import lazy_exports

_EXPORTS = {
    ".residual": ("FlowProblem", "FlowResult"),
    ".maxflow": ("max_flow",),
    ".mincut": ("min_cut", "CutKind", "MinCut", "classify_cut", "is_unique_min_cut",
                "is_sd_cut"),
    ".feasibility": ("FeasibilityReport", "NetworkClass", "RegionReport",
                     "classify_network", "classify_region", "feasible_flow"),
    ".parametric": ("BreakpointEnvelope", "EnvelopeSegment", "breakpoint_envelope"),
    ".warmstart": ("ParametricMaxFlow", "source_arc_updates"),
    ".decomposition": ("PathDecomposition", "decompose_paths", "edge_flow_from_result"),
    ".distributed_pr": ("DistributedRun", "distributed_push_relabel"),
    ".cut_enum": ("CutFamily", "count_min_cuts", "enumerate_min_cuts"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
