"""Flat struct-of-arrays topology shared by every layer.

:class:`CSRTopology` is the one canonical flat representation of a
:class:`~repro.graphs.multigraph.MultiGraph`'s live structure.  It is built
once per topology epoch (cached on the graph, invalidated by mutation) and
read directly — never copied or wrapped — by every layer: the graph's own
degree and neighbour queries, the engine's selection kernel and policies,
the integer LGG kernel's neighbour lists, the extended-graph arc table and
the sweep cache's canonical hashes.  The selection kernel's per-tie-break
constants are memoised on the snapshot, so engines on one graph share them
and a mutation (which builds a new snapshot) drops them.

Layout
------
Half-edge CSR: node ``u``'s incident half-edges occupy slots
``indptr[u]:indptr[u+1]`` of ``neighbors`` / ``edge_ids`` / ``senders``
(``senders`` is constant-``u`` over the block — materialised because the
vectorized selector indexes it wholesale).  Edge list: ``eids[k]`` is the
id of the ``k``-th live edge with endpoints ``us[k] <= vs[k]`` normalised
for hashing (the multigraph is undirected, so orientation is cosmetic).

The canonical digest hashes only the flat arrays — node count plus the
sorted live-edge multiset — so it is invariant to edge-insertion order,
tombstoned ids, and node-preserving copies, exactly the contract the
feasibility cache keys rely on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

__all__ = ["CSRTopology"]


@dataclass(frozen=True)
class CSRTopology:
    """Immutable flat-array snapshot of a multigraph's live structure."""

    n: int
    num_edge_slots: int          # edge ids ever allocated (live + tombstoned)
    indptr: np.ndarray           # (n+1,) int64 half-edge offsets
    neighbors: np.ndarray        # (2m,) int64 opposite endpoint per half-edge
    edge_ids: np.ndarray         # (2m,) int64 connecting edge id per half-edge
    senders: np.ndarray          # (2m,) int64 owning endpoint per half-edge
    eids: np.ndarray             # (m,) int64 live edge ids, ascending
    us: np.ndarray               # (m,) int64 min endpoint per live edge
    vs: np.ndarray               # (m,) int64 max endpoint per live edge
    # the selection kernel's SortKeys per tie-break (filled on first use)
    sort_keys: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    @property
    def m(self) -> int:
        """Number of live edges."""
        return len(self.eids)

    @property
    def num_half_edges(self) -> int:
        return len(self.neighbors)

    # ------------------------------------------------------------------
    @classmethod
    def from_multigraph(cls, graph) -> "CSRTopology":
        """Build the flat arrays with one stable sort of the half-edges.

        Half-edge ``2k`` sits at the ``k``-th live edge's first endpoint
        and ``2k + 1`` at its second; sorting them stably by sender keeps
        each node's block in edge-id order.
        """
        n = graph.n
        eids, eu, ev = graph.edge_array()
        ends = np.column_stack((eu, ev)).ravel()
        order = np.argsort(ends, kind="stable")
        senders = ends[order]
        neighbors = ends[order ^ 1]  # the other half of the same edge
        edge_ids = eids[order >> 1]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(ends, minlength=n), out=indptr[1:])
        us = np.minimum(eu, ev)
        vs = np.maximum(eu, ev)
        for arr in (indptr, neighbors, edge_ids, senders, eids, us, vs):
            arr.setflags(write=False)  # aliased everywhere: freeze
        return cls(
            n=n,
            num_edge_slots=graph.num_edge_slots,
            indptr=indptr,
            neighbors=neighbors,
            edge_ids=edge_ids,
            senders=senders,
            eids=eids,
            us=us,
            vs=vs,
        )

    # ------------------------------------------------------------------
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors_of(self, v: int) -> np.ndarray:
        """``Γ(v)`` with multiplicity: one entry per incident half-edge."""
        return self.neighbors[self.indptr[v] : self.indptr[v + 1]]

    def edges_of(self, v: int) -> np.ndarray:
        """Ids of the edges incident to ``v``, aligned with :meth:`neighbors_of`."""
        return self.edge_ids[self.indptr[v] : self.indptr[v + 1]]

    def canonical_edges(self) -> list[tuple[int, int]]:
        """The live-edge multiset as a sorted list of ``(min, max)`` pairs."""
        return sorted(zip(self.us.tolist(), self.vs.tolist()))

    def canonical_digest(self, extra: dict | None = None) -> str:
        """sha256 over the flat structure (plus optional ``extra`` payload).

        Two graphs collide iff they share node count and live-edge multiset
        — the invariance contract of the feasibility cache keys.
        """
        payload: dict = {"n": self.n, "edges": self.canonical_edges()}
        if extra:
            payload.update(extra)
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
        ).hexdigest()
