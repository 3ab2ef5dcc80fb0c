"""The list-backed edge store that :class:`MultiGraph` replaced.

:class:`~repro.graphs.multigraph.MultiGraph` keeps its edges in int32
endpoint arrays and a bool live mask.  This is the store it replaced:
three Python lists indexed by edge id, appended to one edge at a time,
with connectivity by a DFS over adjacency lists and equality over sorted
edge tuples.  Production must match it on every query, after any
sequence of edits.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import GraphError
from repro.graphs.csr import CSRTopology


class ListMultiGraph:
    """The edge-store half of ``MultiGraph``, on plain lists."""

    def __init__(self, n: int = 0) -> None:
        if n < 0:
            raise GraphError(f"node count must be non-negative, got {n}")
        self._n = int(n)
        self._eu: list[int] = []
        self._ev: list[int] = []
        self._alive: list[bool] = []
        self._m_alive = 0

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "ListMultiGraph":
        g = cls(n)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    def copy(self) -> "ListMultiGraph":
        g = ListMultiGraph(self._n)
        g._eu = list(self._eu)
        g._ev = list(self._ev)
        g._alive = list(self._alive)
        g._m_alive = self._m_alive
        return g

    def add_nodes(self, k: int = 1) -> range:
        if k < 0:
            raise GraphError(f"cannot add {k} nodes")
        first = self._n
        self._n += k
        return range(first, self._n)

    def add_edge(self, u: int, v: int) -> int:
        self._check_pair(u, v)
        eid = len(self._eu)
        self._eu.append(int(u))
        self._ev.append(int(v))
        self._alive.append(True)
        self._m_alive += 1
        return eid

    def remove_edge(self, eid: int) -> None:
        self._check_edge(eid)
        self._alive[eid] = False
        self._m_alive -= 1

    def restore_edge(self, eid: int) -> None:
        if not (0 <= eid < len(self._eu)):
            raise GraphError(f"unknown edge id {eid}")
        if not self._alive[eid]:
            self._alive[eid] = True
            self._m_alive += 1

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return self._m_alive

    @property
    def num_edge_slots(self) -> int:
        return len(self._eu)

    def has_edge_id(self, eid: int) -> bool:
        return 0 <= eid < len(self._eu) and self._alive[eid]

    def edge_endpoints(self, eid: int) -> tuple[int, int]:
        self._check_edge(eid)
        return self._eu[eid], self._ev[eid]

    def edges(self) -> Iterator[tuple[int, int, int]]:
        for eid, (u, v, alive) in enumerate(zip(self._eu, self._ev, self._alive)):
            if alive:
                yield eid, u, v

    def edge_array(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        alive = np.array(self._alive, dtype=bool)
        eids = np.flatnonzero(alive).astype(np.int64, copy=False)
        us = np.array(self._eu, dtype=np.int64)[alive]
        vs = np.array(self._ev, dtype=np.int64)[alive]
        return eids, us, vs

    def to_csr(self) -> CSRTopology:
        return CSRTopology.from_multigraph(self)

    def components(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self._n)]
        for u, v, alive in zip(self._eu, self._ev, self._alive):
            if alive:
                adj[u].append(v)
                adj[v].append(u)
        seen = [False] * self._n
        out: list[list[int]] = []
        for start in range(self._n):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            comp = []
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            out.append(sorted(comp))
        return out

    def induced_subgraph(
        self, nodes: Sequence[int]
    ) -> tuple["ListMultiGraph", dict[int, int]]:
        mapping = {}
        for new, old in enumerate(nodes):
            self._check_node(old)
            if old in mapping:
                raise GraphError(f"duplicate node {old} in subgraph request")
            mapping[old] = new
        g = ListMultiGraph(len(mapping))
        for _, u, v in self.edges():
            if u in mapping and v in mapping:
                g.add_edge(mapping[u], mapping[v])
        return g, mapping

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ListMultiGraph):
            return NotImplemented
        if self._n != other._n or self._m_alive != other._m_alive:
            return False
        mine = sorted(tuple(sorted((u, v))) for _, u, v in self.edges())
        theirs = sorted(tuple(sorted((u, v))) for _, u, v in other.edges())
        return mine == theirs

    def _check_node(self, v: int) -> None:
        if not (0 <= v < self._n):
            raise GraphError(f"unknown node {v} (graph has {self._n} nodes)")

    def _check_pair(self, u: int, v: int) -> None:
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise GraphError(f"self-loop at node {u} is not allowed")

    def _check_edge(self, eid: int) -> None:
        if not (0 <= eid < len(self._eu)) or not self._alive[eid]:
            raise GraphError(f"unknown or removed edge id {eid}")
