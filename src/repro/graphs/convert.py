"""networkx interoperability.

The library's own :class:`~repro.graphs.multigraph.MultiGraph` is the source
of truth everywhere; these converters exist for cross-checking our flow
solvers against networkx and for users who already hold networkx objects.
networkx is imported on first use: loading it adds about 18 MB of resident
memory and 0.2 s to a process, and importing :mod:`repro` should not pay
that for converters the flow, mobility and sweep paths never call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable

from repro.errors import GraphError
from repro.graphs.multigraph import MultiGraph

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["from_networkx", "to_networkx"]


def from_networkx(g: "nx.Graph | nx.MultiGraph") -> tuple[MultiGraph, dict[Hashable, int]]:
    """Convert a networkx (multi)graph.

    Returns ``(multigraph, label_map)`` where ``label_map`` maps original
    node labels to our dense integer ids (insertion order of ``g.nodes``).
    Directed graphs are rejected — the paper's links are undirected.
    """
    if g.is_directed():
        raise GraphError("directed networkx graphs are not supported (links are undirected)")
    label_map: dict[Hashable, int] = {node: i for i, node in enumerate(g.nodes)}
    mg = MultiGraph(len(label_map))
    if g.is_multigraph():
        edge_iter = ((u, v) for u, v, _k in g.edges(keys=True))
    else:
        edge_iter = iter(g.edges())
    for u, v in edge_iter:
        if u == v:
            continue  # self-loops carry no routing semantics; drop them
        mg.add_edge(label_map[u], label_map[v])
    return mg, label_map


def to_networkx(g: MultiGraph) -> nx.MultiGraph:
    """Convert to an ``nx.MultiGraph``; edge ids become the `eid` attribute."""
    import networkx as nx

    out = nx.MultiGraph()
    out.add_nodes_from(range(g.n))
    # read the flat edge arrays off the shared CSR snapshot rather than
    # re-walking the tombstoned edge store
    csr = g.to_csr()
    for eid, u, v in zip(csr.eids.tolist(), csr.us.tolist(), csr.vs.tolist()):
        out.add_edge(u, v, eid=eid)
    return out
