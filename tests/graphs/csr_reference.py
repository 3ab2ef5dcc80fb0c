"""Per-edge reference loops for the CSR snapshot and for connectivity.

:meth:`repro.graphs.csr.CSRTopology.from_multigraph` builds the half-edge
arrays with one stable sort, and :meth:`MultiGraph.components` runs a DFS
over adjacency lists read straight from the edge store.  These are the
forms they replaced: a cursor loop that places each live edge's two
half-edges in turn, and a DFS over the CSR adjacency.  Production must
match them array for array and list for list.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.multigraph import MultiGraph


def csr_arrays_reference(graph: MultiGraph) -> dict[str, np.ndarray]:
    """The seven CSR arrays of ``graph``, one live edge at a time."""
    n = graph.n
    live = list(graph.edges())
    counts = np.zeros(n + 1, dtype=np.int64)
    for _, u, v in live:
        counts[u + 1] += 1
        counts[v + 1] += 1
    indptr = np.cumsum(counts)
    size = int(indptr[-1])
    neighbors = np.zeros(size, dtype=np.int64)
    edge_ids = np.zeros(size, dtype=np.int64)
    senders = np.zeros(size, dtype=np.int64)
    cursor = indptr[:-1].copy()
    for e, u, v in live:
        cu, cv = cursor[u], cursor[v]
        neighbors[cu] = v
        edge_ids[cu] = e
        senders[cu] = u
        cursor[u] = cu + 1
        neighbors[cv] = u
        edge_ids[cv] = e
        senders[cv] = v
        cursor[v] = cv + 1
    return {
        "indptr": indptr,
        "neighbors": neighbors,
        "edge_ids": edge_ids,
        "senders": senders,
        "eids": np.array([e for e, _, _ in live], dtype=np.int64),
        "us": np.array([min(u, v) for _, u, v in live], dtype=np.int64),
        "vs": np.array([max(u, v) for _, u, v in live], dtype=np.int64),
    }


def components_reference(graph: MultiGraph) -> list[list[int]]:
    """Connected components by DFS over the reference CSR adjacency."""
    arrays = csr_arrays_reference(graph)
    indptr, neighbors = arrays["indptr"], arrays["neighbors"]
    seen = np.zeros(graph.n, dtype=bool)
    out: list[list[int]] = []
    for start in range(graph.n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in neighbors[indptr[v]:indptr[v + 1]]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(int(w))
        out.append(sorted(comp))
    return out
