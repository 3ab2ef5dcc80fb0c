"""Structural audits of graphs and network specs.

The library's containers already validate their inputs at construction;
these helpers answer the *semantic* questions an experimenter has before
trusting a workload:

* :func:`audit_graph` — internal-consistency audit of a
  :class:`~repro.graphs.multigraph.MultiGraph` (adjacency mirrors the edge
  list, degree accounting, tombstone hygiene) — the debugging tool for
  anyone extending the container;
* :func:`reachability_report` — which sources can reach which sinks, and
  which terminals are stranded: a stranded *source* makes every positive
  arrival rate infeasible, a stranded *sink* silently wastes extraction
  capacity, and both are almost always workload bugs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError
from repro.graphs.multigraph import MultiGraph
from repro.network.spec import NetworkSpec

__all__ = ["audit_graph", "ReachabilityReport", "reachability_report"]


def audit_graph(g: MultiGraph) -> None:
    """Raise :class:`GraphError` on any internal inconsistency.

    Checks: endpoints in range, adjacency mirrors the live edge list both
    ways, degree sum = 2m, tombstoned edges absent from the adjacency.
    """
    live = list(g.edges())
    if len(live) != g.m:
        raise GraphError(f"edge iterator yields {len(live)} edges but m = {g.m}")
    for eid, u, v in live:
        if not (0 <= u < g.n and 0 <= v < g.n):
            raise GraphError(f"edge {eid} endpoint out of range: ({u}, {v})")
        if u == v:
            raise GraphError(f"edge {eid} is a self-loop")
    csr = g.to_csr()
    if int(csr.degrees().sum()) != 2 * g.m:
        raise GraphError("degree sum != 2m")
    # every live edge appears exactly once from each endpoint
    seen: dict[int, list[int]] = {}
    for v in range(g.n):
        for eid in csr.edges_of(v):
            seen.setdefault(int(eid), []).append(v)
    for eid, u, v in live:
        ends = sorted(seen.get(eid, []))
        if ends != sorted((u, v)):
            raise GraphError(
                f"edge {eid}: adjacency lists endpoints {ends}, edge table says {(u, v)}"
            )
    for eid in seen:
        if not g.has_edge_id(eid):
            raise GraphError(f"tombstoned edge {eid} still present in adjacency")


@dataclass(frozen=True)
class ReachabilityReport:
    """Source-to-sink connectivity summary of a network spec."""

    reach: dict[int, frozenset[int]]   # source -> sinks it can reach
    stranded_sources: tuple[int, ...]  # sources reaching no sink
    stranded_sinks: tuple[int, ...]    # sinks reached by no source

    @property
    def fully_connected(self) -> bool:
        """Every source reaches every sink."""
        sinks = set()
        for s in self.reach.values():
            sinks |= s
        return all(self.reach.values()) and all(
            s == frozenset(sinks) for s in self.reach.values()
        ) if self.reach else True

    @property
    def workload_sound(self) -> bool:
        """No stranded terminal (necessary for feasibility of positive rates)."""
        return not self.stranded_sources and not self.stranded_sinks


def reachability_report(spec: NetworkSpec) -> ReachabilityReport:
    """BFS reachability from every source to the sink set."""
    g = spec.graph
    csr = g.to_csr()
    sinks = set(spec.destinations)
    reach: dict[int, frozenset[int]] = {}
    reached_sinks: set[int] = set()
    for s in spec.sources:
        seen = np.zeros(g.n, dtype=bool)
        seen[s] = True
        dq = deque([s])
        found: set[int] = set()
        while dq:
            v = dq.popleft()
            if v in sinks:
                found.add(v)
            for w in csr.neighbors_of(v):
                if not seen[w]:
                    seen[w] = True
                    dq.append(int(w))
        reach[s] = frozenset(found)
        reached_sinks |= found
    return ReachabilityReport(
        reach=reach,
        stranded_sources=tuple(s for s, f in reach.items() if not f),
        stranded_sinks=tuple(sorted(sinks - reached_sinks)),
    )
