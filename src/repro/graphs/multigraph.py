"""Undirected multigraph with integer nodes and stable edge ids.

Design notes
------------
* Nodes are dense integers ``0 .. n-1`` with ``n < 2**31``; experiments
  that need labels keep their own mapping (see
  :func:`repro.graphs.convert.from_networkx`).
* Edges get a stable id when added.  Removal leaves a *tombstone* so ids of
  surviving edges never shift — the dynamic-topology driver (Conjecture 4)
  relies on this to splice link schedules across epochs.
* The edge store is three flat arrays indexed by edge id: int32 endpoints
  ``_eu``/``_ev`` and a bool live mask ``_alive``, 9 bytes per edge.  The
  first :attr:`~MultiGraph.num_edge_slots` entries are in use;
  :meth:`~MultiGraph.from_edges` and :meth:`~MultiGraph.copy` allocate
  exactly, and an :meth:`~MultiGraph.add_edge` that finds the store full
  grows it by an eighth plus a few slots.  int32 endpoints are why ``n``
  stays below ``2**31``.  What the store hands out keeps its types:
  Python ints from ``edges()``, ``edge_endpoints()`` and
  ``components()``, int64 arrays from ``edge_array()``.
* Every reader of the structure — the graph's own degree and neighbour
  queries, the simulator's hot path, the flow and sweep layers — reads one
  cached :class:`~repro.graphs.csr.CSRTopology` snapshot
  (:meth:`MultiGraph.to_csr`).  Any mutation drops it, and the next read
  builds a new one.
* Self-loops are rejected: a node transmitting to itself has no meaning in
  the paper's model, and Algorithm 1's strict-inequality test could never
  select one anyway.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.errors import GraphError
from repro.graphs.csr import CSRTopology

__all__ = ["MultiGraph"]

#: int32 endpoints: the largest node count, so the largest node id is 2**31 - 2
_MAX_NODES = np.iinfo(np.int32).max


class MultiGraph:
    """An undirected multigraph on nodes ``0 .. n-1``.

    >>> g = MultiGraph(3)
    >>> g.add_edge(0, 1)
    0
    >>> g.add_edge(0, 1)   # parallel edge, its own id
    1
    >>> g.degree(0)
    2
    """

    __slots__ = ("_n", "_eu", "_ev", "_alive", "_slots", "_m_alive", "_csr_cache")

    def __init__(self, n: int = 0) -> None:
        if n < 0:
            raise GraphError(f"node count must be non-negative, got {n}")
        if n > _MAX_NODES:
            raise GraphError(f"node count must be below 2**31, got {n}")
        self._n = int(n)
        self._eu = np.zeros(0, dtype=np.int32)
        self._ev = np.zeros(0, dtype=np.int32)
        self._alive = np.zeros(0, dtype=bool)
        self._slots = 0
        self._m_alive = 0
        self._csr_cache: Optional[CSRTopology] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[tuple[int, int]] | np.ndarray
    ) -> "MultiGraph":
        """Build a graph on ``n`` nodes from ``(u, v)`` pairs: an iterable of
        pairs or an ``(m, 2)`` integer array.  Edge ids follow input order.

        Every edge is checked at once, on the values as given (Python ints
        of any size included), before the cast to int32; the first bad edge
        in input order raises the :class:`GraphError` :meth:`add_edge` would.
        The store keeps the cast arrays, with no spare slots.
        """
        g = cls(n)
        if isinstance(edges, np.ndarray):
            pairs = edges
        else:  # object dtype keeps each value exactly as given
            pairs = np.array(list(edges), dtype=object)
        if pairs.size == 0:
            return g
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise GraphError(f"edges must be (u, v) pairs, got shape {pairs.shape}")
        us, vs = pairs[:, 0], pairs[:, 1]
        bad = ~((us >= 0) & (us < g._n) & (vs >= 0) & (vs < g._n)) | (us == vs)
        if bad.any():
            k = int(np.argmax(bad))
            g._check_pair(us[k], vs[k])
        g._eu = us.astype(np.int32)
        g._ev = vs.astype(np.int32)
        g._alive = np.ones(len(g._eu), dtype=bool)
        g._slots = g._m_alive = len(g._eu)
        return g

    def copy(self) -> "MultiGraph":
        """Deep copy (edge ids, including tombstones, are preserved)."""
        g = MultiGraph(self._n)
        k = self._slots
        g._eu = self._eu[:k].copy()
        g._ev = self._ev[:k].copy()
        g._alive = self._alive[:k].copy()
        g._slots = k
        g._m_alive = self._m_alive
        return g

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_nodes(self, k: int = 1) -> range:
        """Append ``k`` fresh nodes; returns their id range."""
        if k < 0:
            raise GraphError(f"cannot add {k} nodes")
        if self._n + k > _MAX_NODES:
            raise GraphError(
                f"cannot add {k} nodes to {self._n}: node count must stay below 2**31"
            )
        first = self._n
        self._n += k
        self._csr_cache = None
        return range(first, self._n)

    def add_edge(self, u: int, v: int) -> int:
        """Add an undirected edge and return its id.

        Parallel edges are allowed and each gets a distinct id.
        """
        self._check_pair(u, v)
        eid = self._slots
        if eid == len(self._eu):  # full: grow by an eighth plus 8 slots
            extra = (eid >> 3) + 8
            self._eu = np.concatenate((self._eu, np.zeros(extra, dtype=np.int32)))
            self._ev = np.concatenate((self._ev, np.zeros(extra, dtype=np.int32)))
            self._alive = np.concatenate((self._alive, np.zeros(extra, dtype=bool)))
        self._eu[eid] = u
        self._ev[eid] = v
        self._alive[eid] = True
        self._slots = eid + 1
        self._m_alive += 1
        self._csr_cache = None
        return eid

    def add_edges(self, edges: Iterable[tuple[int, int]]) -> list[int]:
        return [self.add_edge(u, v) for u, v in edges]

    def remove_edge(self, eid: int) -> None:
        """Remove edge ``eid`` (ids of other edges are unaffected)."""
        self._check_edge(eid)
        self._alive[eid] = False
        self._m_alive -= 1
        self._csr_cache = None

    def restore_edge(self, eid: int) -> None:
        """Undo a prior :meth:`remove_edge` (used by topology schedules)."""
        if not (0 <= eid < self._slots):
            raise GraphError(f"unknown edge id {eid}")
        if not self._alive[eid]:
            self._alive[eid] = True
            self._m_alive += 1
            self._csr_cache = None

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def m(self) -> int:
        """Number of live edges."""
        return self._m_alive

    @property
    def num_edge_slots(self) -> int:
        """Number of edge ids ever allocated (live + tombstoned)."""
        return self._slots

    def has_edge_id(self, eid: int) -> bool:
        return 0 <= eid < self._slots and bool(self._alive[eid])

    def edge_endpoints(self, eid: int) -> tuple[int, int]:
        self._check_edge(eid)
        return int(self._eu[eid]), int(self._ev[eid])

    def other_end(self, eid: int, v: int) -> int:
        u, w = self.edge_endpoints(eid)
        if v == u:
            return w
        if v == w:
            return u
        raise GraphError(f"node {v} is not an endpoint of edge {eid}")

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """``(eid, u, v)`` of every live edge as Python ints, in id order."""
        eids, us, vs = self.edge_array()
        return zip(eids.tolist(), us.tolist(), vs.tolist())

    def edge_array(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Live edges as ``(eids, us, vs)`` int64 arrays (id order)."""
        eids = np.flatnonzero(self._alive[: self._slots]).astype(np.int64, copy=False)
        return eids, self._eu[eids].astype(np.int64), self._ev[eids].astype(np.int64)

    def degree(self, v: int) -> int:
        """``|Γ(v)|`` counting parallel edges with multiplicity."""
        self._check_node(v)
        indptr = self.to_csr().indptr
        return int(indptr[v + 1] - indptr[v])

    def degrees(self) -> np.ndarray:
        """Degree of every node as an int64 array."""
        return self.to_csr().degrees()

    def max_degree(self) -> int:
        """The paper's ``Δ`` (0 for an edgeless graph)."""
        if self._n == 0:
            return 0
        degs = self.degrees()
        return int(degs.max()) if len(degs) else 0

    def neighbors(self, v: int) -> list[int]:
        """Neighbors of ``v`` with multiplicity (one entry per parallel edge)."""
        self._check_node(v)
        return self.to_csr().neighbors_of(v).tolist()

    def distinct_neighbors(self, v: int) -> list[int]:
        return sorted(set(self.neighbors(v)))

    def incident_edges(self, v: int) -> list[int]:
        self._check_node(v)
        return self.to_csr().edges_of(v).tolist()

    def edge_multiplicity(self, u: int, v: int) -> int:
        """Number of parallel edges between ``u`` and ``v``."""
        self._check_node(u)
        self._check_node(v)
        return int(np.count_nonzero(self.to_csr().neighbors_of(u) == v))

    # ------------------------------------------------------------------
    # flat topology (cached, shared by all engines)
    # ------------------------------------------------------------------
    def to_csr(self) -> CSRTopology:
        """The flat struct-of-arrays topology over live edges.

        Built once and cached until the next mutation; every consumer (the
        queries above, the engine and its policies, canonical hashes, the
        integer LGG kernel) reads these arrays instead of re-deriving its
        own.  ``indptr[v]:indptr[v+1]`` spans node ``v``'s half-edges, one
        per parallel copy, so its length is the paper's ``|Γ(v)|``.
        """
        if self._csr_cache is None:
            self._csr_cache = CSRTopology.from_multigraph(self)
        return self._csr_cache

    # ------------------------------------------------------------------
    # connectivity / subgraphs
    # ------------------------------------------------------------------
    def components(self) -> list[list[int]]:
        """Connected components, each a sorted node list, ordered by their
        smallest node.

        Min-label hooking over the live edge arrays: while some edge joins
        two trees of the forest ``root``, hang each tree's root under the
        smallest root it has an edge to, then flatten the forest by pointer
        jumping.  Every two rounds at least halve the trees of a component,
        and its last root is its smallest node.  Neither builds nor caches a
        CSR snapshot.
        """
        _, us, vs = self.edge_array()
        root = np.arange(self._n, dtype=np.int64)
        while True:
            ru, rv = root[us], root[vs]
            if (ru == rv).all():
                break
            np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
            while not ((hop := root[root]) == root).all():
                root = hop
        nodes = np.argsort(root, kind="stable").tolist()
        sizes = np.bincount(root)
        ends = np.cumsum(sizes[sizes > 0]).tolist()
        return [nodes[a:b] for a, b in zip([0] + ends, ends)]

    def is_connected(self) -> bool:
        if self._n == 0:
            return True
        return len(self.components()) == 1

    def induced_subgraph(self, nodes: Sequence[int]) -> tuple["MultiGraph", dict[int, int]]:
        """Subgraph induced by ``nodes``.

        Returns the new graph (nodes renumbered ``0..k-1``) and the mapping
        ``old id -> new id``.
        """
        mapping = {}
        for new, old in enumerate(nodes):
            self._check_node(old)
            if old in mapping:
                raise GraphError(f"duplicate node {old} in subgraph request")
            mapping[old] = new
        index = np.full(self._n, -1, dtype=np.int64)
        index[list(mapping)] = np.arange(len(mapping))
        _, us, vs = self.edge_array()
        us, vs = index[us], index[vs]
        inside = (us >= 0) & (vs >= 0)
        edges = np.column_stack((us[inside], vs[inside]))
        return MultiGraph.from_edges(len(mapping), edges), mapping

    # ------------------------------------------------------------------
    # dunder / misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MultiGraph(n={self._n}, m={self._m_alive})"

    def __eq__(self, other: object) -> bool:
        """Structural equality over live edges (as an unordered multiset)."""
        if not isinstance(other, MultiGraph):
            return NotImplemented
        if self._n != other._n or self._m_alive != other._m_alive:
            return False
        return np.array_equal(self._edge_keys(), other._edge_keys())

    def _edge_keys(self) -> np.ndarray:
        """Live edges as sorted ``min * n + max`` keys (below ``2**62``)."""
        _, us, vs = self.edge_array()
        return np.sort(np.minimum(us, vs) * self._n + np.maximum(us, vs))

    def __hash__(self) -> int:  # MultiGraph is mutable
        raise TypeError("MultiGraph is unhashable (mutable)")

    def _check_node(self, v: int) -> None:
        if not (0 <= v < self._n):
            raise GraphError(f"unknown node {v} (graph has {self._n} nodes)")

    def _check_pair(self, u: int, v: int) -> None:
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise GraphError(f"self-loop at node {u} is not allowed")

    def _check_edge(self, eid: int) -> None:
        if not (0 <= eid < self._slots) or not self._alive[eid]:
            raise GraphError(f"unknown or removed edge id {eid}")
