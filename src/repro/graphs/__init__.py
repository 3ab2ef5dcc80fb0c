"""Multigraph substrate.

The paper models the network as a *multigraph* ``G = (V, E)`` — parallel
edges matter because each physical link carries at most one packet per step,
so two parallel links double the capacity between their endpoints.  This
subpackage provides:

* :class:`~repro.graphs.multigraph.MultiGraph` — the core container,
* :class:`~repro.graphs.csr.CSRTopology` — the flat struct-of-arrays
  snapshot every engine layer aliases (built once, cached on the graph),
* :mod:`~repro.graphs.generators` — topology generators used by the
  experiments (paths, grids, random graphs, bottleneck gadgets, ...),
* :mod:`~repro.graphs.extended` — the ``G*`` construction of Fig. 2 / Fig. 4
  (virtual source ``s*`` and sink ``d*``),
* :mod:`~repro.graphs.convert` — networkx interoperability.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    ".csr": ("CSRTopology",),
    ".multigraph": ("MultiGraph",),
    ".extended": ("ExtendedGraph", "build_extended_graph"),
    ".generators": None,
    ".convert": ("from_networkx", "to_networkx"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
