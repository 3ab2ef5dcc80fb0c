"""Transmission policies: LGG plus the baselines the paper compares against.

A policy answers one question per synchronous step: *which links transmit,
and in which direction?*  The engine supplies a :class:`StepContext` with
the post-injection queues, the revealed queue lengths, and the topology
epoch's :class:`~repro.graphs.csr.CSRTopology`; the policy returns
``(edge_ids, senders, receivers)``.  Policies that precompute routes read
``spec.graph.to_csr()`` and rebuild them in ``on_topology_change``.

Implemented policies
--------------------
* :class:`LGGPolicy` — Algorithm 1 (the paper's protocol), vectorized.
* :class:`FlowRoutingPolicy` — the "optimal" comparison of Section III:
  push packets along the arcs of a fixed maximum flow ``Φ`` (the paper's
  ``E_t^Φ``).  Stable on every feasible network by construction.
* :class:`BackpressurePolicy` — Tassiulas–Ephremides max-weight scheduling
  (the paper's reference [3]) adapted to the undifferentiated-sink setting:
  transmit on every link whose queue differential is positive, largest
  differentials claiming contested links.
* :class:`RandomForwardingPolicy` — naive baseline: each nonempty node
  forwards one packet to a uniformly random neighbour (no gradient); known
  to be unstable on many feasible networks — a foil for E12.
* :class:`ShortestPathPolicy` — FIFO forwarding along hop-count-shortest
  paths to the nearest sink, ignoring congestion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.core.lgg_fast import lgg_select_fast_batched
from repro.core.tiebreak import TieBreak
from repro.graphs.csr import CSRTopology
from repro.network.spec import NetworkSpec

__all__ = [
    "StepContext",
    "TransmissionPolicy",
    "LGGPolicy",
    "FlowRoutingPolicy",
    "BackpressurePolicy",
    "RandomForwardingPolicy",
    "ShortestPathPolicy",
]

Selection = tuple[np.ndarray, np.ndarray, np.ndarray]
_EMPTY = np.empty(0, dtype=np.int64)


@dataclass
class StepContext:
    """Everything a policy may look at when choosing transmissions."""

    spec: NetworkSpec
    csr: CSRTopology
    queues: np.ndarray      # true queue lengths, post-injection
    revealed: np.ndarray    # declared queue lengths (== queues when truthful)
    t: int
    rng: np.random.Generator


class TransmissionPolicy(Protocol):
    """Protocol implemented by every transmission policy."""

    def select(self, ctx: StepContext) -> Selection:
        """Return ``(edge_ids, senders, receivers)`` for this step."""
        ...

    def on_topology_change(self, spec: NetworkSpec) -> None:
        """Called when the topology changed (``spec.graph`` was mutated)."""
        ...


class _PolicyBase:
    """Shared no-op hooks."""

    def on_topology_change(self, spec: NetworkSpec) -> None:  # noqa: B027
        pass


@dataclass
class LGGPolicy(_PolicyBase):
    """Algorithm 1 — the paper's Local Greedy Gradient protocol."""

    tiebreak: TieBreak = TieBreak.QUEUE_THEN_ID

    def select(self, ctx: StepContext) -> Selection:
        eids, snd, rcv, mask = lgg_select_fast_batched(
            ctx.csr, ctx.queues[None, :], ctx.revealed[None, :],
            tiebreak=self.tiebreak, rngs=[ctx.rng],
        )
        m = mask[0]
        return eids[0, m], snd[0, m], rcv[0, m]


class FlowRoutingPolicy(_PolicyBase):
    """Route along a fixed maximum flow ``Φ`` — the paper's optimal method.

    The policy is computed once from the spec: solve a max flow on ``G*``,
    cancel antiparallel circulation, and keep the directed per-edge plan
    ``u -> v``.  Each step, every planned edge whose tail holds a packet
    transmits one packet (unit capacities mean the plan never asks for
    more).  This is the method "pushing the packets along the paths
    allowing a maximum flow" that the stability proof compares LGG to.
    """

    def __init__(self, spec: NetworkSpec) -> None:
        self._plan_edges: np.ndarray = _EMPTY
        self._plan_senders: np.ndarray = _EMPTY
        self._plan_receivers: np.ndarray = _EMPTY
        self._rebuild(spec)

    def _rebuild(self, spec: NetworkSpec) -> None:
        from repro.flow import feasible_flow, edge_flow_from_result

        ext = spec.extended()
        result = feasible_flow(ext)
        plan = edge_flow_from_result(ext, result)
        rows = [(eid, u, v) for eid, (u, v, amt) in sorted(plan.items()) if amt > 0]
        if rows:
            arr = np.array(rows, dtype=np.int64)
            self._plan_edges, self._plan_senders, self._plan_receivers = (
                arr[:, 0], arr[:, 1], arr[:, 2],
            )
        else:
            self._plan_edges = self._plan_senders = self._plan_receivers = _EMPTY

    def on_topology_change(self, spec: NetworkSpec) -> None:
        self._rebuild(spec)

    def select(self, ctx: StepContext) -> Selection:
        if len(self._plan_edges) == 0:
            return _EMPTY, _EMPTY, _EMPTY
        # every planned edge sends iff its tail still has budget; allocate
        # each sender's queue to its planned out-edges in deterministic order
        senders = self._plan_senders
        order = np.argsort(senders, kind="stable")
        s_sorted = senders[order]
        # per-sender running index among planned out-edges
        first_idx = np.searchsorted(s_sorted, s_sorted)
        rank = np.arange(len(s_sorted)) - first_idx
        budget = ctx.queues[s_sorted]
        chosen = rank < budget
        sel = order[chosen]
        return self._plan_edges[sel], self._plan_senders[sel], self._plan_receivers[sel]


@dataclass
class BackpressurePolicy(_PolicyBase):
    """Max-weight (backpressure) link activation, Tassiulas–Ephremides style.

    Single commodity, no interference: every link may be active, so
    max-weight degenerates to "transmit over every link with positive queue
    differential, respecting the sender's packet budget, largest
    differential first".  Differs from LGG in the *order* packets are
    allocated: LGG prefers the emptiest receiver, backpressure the steepest
    gradient.
    """

    def select(self, ctx: StepContext) -> Selection:
        csr = ctx.csr
        if csr.num_half_edges == 0:
            return _EMPTY, _EMPTY, _EMPTY
        diff = ctx.queues[csr.senders] - ctx.revealed[csr.neighbors]
        # sort by sender, then steepest differential first
        order = np.lexsort((csr.edge_ids, -diff, csr.senders))
        s_sorted = csr.senders[order]
        rank = np.arange(csr.num_half_edges, dtype=np.int64) - csr.indptr[s_sorted]
        chosen = (diff[order] > 0) & (rank < ctx.queues[csr.senders][order])
        sel = order[chosen]
        return csr.edge_ids[sel], csr.senders[sel], csr.neighbors[sel]


@dataclass
class RandomForwardingPolicy(_PolicyBase):
    """Naive baseline: forward one packet to a uniformly random neighbour.

    Ignores gradients entirely (may send uphill); sinks do not forward.
    """

    def select(self, ctx: StepContext) -> Selection:
        csr = ctx.csr
        spec = ctx.spec
        sink_mask = np.zeros(spec.n, dtype=bool)
        for d in spec.destinations:
            sink_mask[d] = True
        eids, snds, rcvs = [], [], []
        for u in range(spec.n):
            if ctx.queues[u] <= 0 or sink_mask[u]:
                continue
            lo, hi = int(csr.indptr[u]), int(csr.indptr[u + 1])
            if lo == hi:
                continue
            pick = int(ctx.rng.integers(lo, hi))
            eids.append(int(csr.edge_ids[pick]))
            snds.append(u)
            rcvs.append(int(csr.neighbors[pick]))
        if not eids:
            return _EMPTY, _EMPTY, _EMPTY
        return (
            np.array(eids, dtype=np.int64),
            np.array(snds, dtype=np.int64),
            np.array(rcvs, dtype=np.int64),
        )


class ShortestPathPolicy(_PolicyBase):
    """Forward along hop-count-shortest paths to the nearest destination.

    Each node precomputes its BFS successor towards the closest sink and
    always sends one packet per step down that edge (congestion-oblivious
    FIFO routing).  A classic baseline that ignores capacity sharing: it is
    stable only when shortest-path trees happen not to overload any link.
    """

    def __init__(self, spec: NetworkSpec) -> None:
        self._next_edge: np.ndarray = _EMPTY
        self._next_node: np.ndarray = _EMPTY
        self._rebuild(spec)

    def _rebuild(self, spec: NetworkSpec) -> None:
        from collections import deque

        g = spec.graph
        csr = g.to_csr()
        dist = np.full(g.n, -1, dtype=np.int64)
        nxt_edge = np.full(g.n, -1, dtype=np.int64)
        nxt_node = np.full(g.n, -1, dtype=np.int64)
        dq = deque()
        for d in spec.destinations:
            dist[d] = 0
            dq.append(d)
        while dq:
            v = dq.popleft()
            lo, hi = int(csr.indptr[v]), int(csr.indptr[v + 1])
            for i in range(lo, hi):
                w = int(csr.neighbors[i])
                if dist[w] == -1:
                    dist[w] = dist[v] + 1
                    nxt_edge[w] = int(csr.edge_ids[i])
                    nxt_node[w] = v
                    dq.append(w)
        self._next_edge = nxt_edge
        self._next_node = nxt_node

    def on_topology_change(self, spec: NetworkSpec) -> None:
        self._rebuild(spec)

    def select(self, ctx: StepContext) -> Selection:
        nodes = np.nonzero((ctx.queues > 0) & (self._next_edge >= 0))[0]
        if len(nodes) == 0:
            return _EMPTY, _EMPTY, _EMPTY
        return (
            self._next_edge[nodes],
            nodes.astype(np.int64),
            self._next_node[nodes],
        )
