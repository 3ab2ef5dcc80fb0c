"""repro — reproduction of *Stability of a localized and greedy routing
algorithm* (Caillouet, Huc, Nisse, Pérennes, Rivano — IPPS 2010).

The package implements the paper's Local Greedy Gradient (LGG) protocol and
every substrate it depends on: the multigraph network model (S-D-networks
and R-generalized S-D-networks), max flow/min cut (one Dinic engine, and
the distributed Goldberg–Tarjan push-relabel the paper relates LGG to),
feasibility classification, baselines, and an empirical-validation
harness covering each theorem, property and conjecture of the paper.

Quickstart
----------
>>> from repro import generators, NetworkSpec, simulate_lgg
>>> g, sources, sinks = generators.paper_figure_graph()
>>> spec = NetworkSpec.classical(g, {s: 1 for s in sources}, {d: 1 for d in sinks})
>>> result = simulate_lgg(spec, horizon=500, seed=0)
>>> result.verdict.bounded
True
"""

from repro._exports import lazy_exports

_EXPORTS = {
    ".graphs": ("MultiGraph", "build_extended_graph", "generators"),
    ".network": ("NetworkSpec", "NodeRole", "RevelationPolicy"),
    ".flow": ("FeasibilityReport", "classify_network", "max_flow", "min_cut"),
    ".core": ("LGGPolicy", "SimulationResult", "Simulator", "simulate_lgg"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)

__version__ = "1.0.0"
__all__.append("__version__")
