"""Protocol-model (distance-2) interference.

Stricter than node-exclusive matching: two links conflict when *any*
endpoint of one is equal or adjacent to an endpoint of the other — the
classic 802.11-style protocol model, where a transmission silences the
whole one-hop neighbourhood of both its endpoints.  The feasible ``E_t``
are the distance-2 matchings of the topology.

This is the harsher instantiation of Conjecture 5's interference setting;
the greedy scheduler here is the distributed-plausible baseline (an exact
max-weight distance-2 matching is NP-hard, unlike the blossom-solvable
node-exclusive case).
"""

from __future__ import annotations

import numpy as np

from repro.graphs.multigraph import MultiGraph

__all__ = ["DistanceTwoInterference"]


class DistanceTwoInterference:
    """Greedy maximal distance-2 matching by descending queue differential.

    Built against a fixed topology (pass the spec's graph); if the
    simulation mutates the topology, construct a fresh model — the engine
    does not currently notify interference models of topology changes.
    """

    def __init__(self, graph: MultiGraph) -> None:
        self._closed: list[frozenset[int]] = []
        csr = graph.to_csr()
        for v in range(graph.n):
            self._closed.append(
                frozenset(int(w) for w in csr.neighbors_of(v)) | {v}
            )

    def filter(self, edge_ids, senders, receivers, queues, revealed, rng) -> np.ndarray:
        k = len(edge_ids)
        keep = np.zeros(k, dtype=bool)
        if k == 0:
            return keep
        weight = queues[senders] - revealed[receivers]
        order = np.lexsort((senders, edge_ids, -weight))
        silenced: set[int] = set()
        for i in order:
            u, v = int(senders[i]), int(receivers[i])
            if u in silenced or v in silenced:
                continue
            keep[i] = True
            # silence the closed neighbourhoods of both endpoints
            silenced |= self._closed[u]
            silenced |= self._closed[v]
        return keep
