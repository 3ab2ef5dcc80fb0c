"""Vectorized Algorithm 1 — the engine hot path, for ``R`` replicas at once.

Per the hpc-parallel guidance (vectorize the bottleneck, keep a legible
reference): one stable composite-key argsort over the half-edge arrays of
an ``(R, n)`` queue matrix replaces per-node Python loops (the
line-by-line transcription of Algorithm 1 is the tests' oracle,
``tests/core/lgg_reference.py``).  A single run is the ``R = 1`` case.

Correctness argument: within one sender's block sorted by ascending
revealed queue, the *eligible* half-edges (receiver revealed queue strictly
below the sender's true queue ``q_u``) form a prefix.  Algorithm 1 sends on
the first ``min(q_u, #eligible)`` of them, i.e. exactly the half-edges that
are both eligible and have within-block rank ``< q_u``.  Both conditions
are elementwise once ranks are computed, so the whole step is one sort
plus a handful of vector ops — no per-neighbour Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.tiebreak import TieBreak, tie_keys
from repro.errors import SimulationError
from repro.graphs.multigraph import MultiGraph

__all__ = ["HalfEdges", "SortKeys", "lgg_select_fast_batched"]


@dataclass(frozen=True)
class HalfEdges:
    """Flattened directed half-edge arrays of a multigraph.

    ``senders[i] -> receivers[i]`` over edge ``edge_ids[i]``; every
    undirected edge contributes two half-edges.  Built once per topology
    epoch and reused every step.
    """

    senders: np.ndarray
    receivers: np.ndarray
    edge_ids: np.ndarray
    indptr: np.ndarray  # CSR offsets: half-edges of node u in [indptr[u], indptr[u+1])
    num_edge_slots: int
    _sort_keys: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_graph(cls, graph: MultiGraph) -> "HalfEdges":
        # Zero-copy view of the shared CSR topology: the arrays are frozen
        # on the CSRTopology side, so aliasing is safe.
        csr = graph.to_csr()
        return cls(
            senders=csr.senders,
            receivers=csr.neighbors,
            edge_ids=csr.edge_ids,
            indptr=csr.indptr,
            num_edge_slots=csr.num_edge_slots,
        )

    @property
    def size(self) -> int:
        return len(self.senders)

    def sort_keys(self, tiebreak: TieBreak) -> "SortKeys":
        """The selection kernel's constants for this topology, built once
        per tie-break."""
        keys = self._sort_keys.get(tiebreak)
        if keys is None:
            keys = self._sort_keys[tiebreak] = SortKeys.build(self, tiebreak)
        return keys


@dataclass(frozen=True)
class SortKeys:
    """The per-topology constants of :func:`lgg_select_fast_batched`.

    Built once per topology epoch and tie-break
    (:meth:`HalfEdges.sort_keys`).  Deterministic tie keys are ranked
    densely, so the composite key's tie base ``b_tie`` is at most ``H``
    (the number of half-edges) instead of about ``n·(m + 1)``; only their
    order within a sender block matters, and ranking keeps it.  For
    ``QUEUE_THEN_RANDOM`` the keys are drawn every step (``tie`` is
    ``None``) and ``b_tie`` is the edge-slot count the permutation spans.
    """

    tie: Optional[np.ndarray]   # (H,) dense tie ranks, or None (drawn per step)
    b_tie: int
    n_senders: int              # max sender id + 1
    position: np.ndarray        # arange(H): rank = position - block start

    @classmethod
    def build(cls, half: HalfEdges, tiebreak: TieBreak) -> "SortKeys":
        if tiebreak is TieBreak.QUEUE_THEN_RANDOM:
            tie, b_tie = None, half.num_edge_slots + 1
        else:
            raw = tie_keys(tiebreak, half.receivers, half.edge_ids, None,
                           num_edge_slots=half.num_edge_slots)
            uniq, tie = np.unique(raw, return_inverse=True)
            tie, b_tie = tie.astype(np.int64), max(len(uniq), 1)
        return cls(
            tie=tie,
            b_tie=b_tie,
            n_senders=int(half.senders.max(initial=0)) + 1,
            position=np.arange(half.size, dtype=np.int64),
        )


def lgg_select_fast_batched(
    half: HalfEdges,
    queues: np.ndarray,
    revealed: np.ndarray,
    *,
    tiebreak: TieBreak = TieBreak.QUEUE_THEN_ID,
    rngs: list[np.random.Generator] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Algorithm 1 for ``R`` replicas at once on an ``(R, n)`` queue matrix.

    One stable composite-key argsort sorts every row: the key packs
    (sender, revealed receiver queue, tie key) into a single int64, so row
    ``r`` comes out in (sender, revealed queue, tie key) order — the order
    the reference implementation produces.  ``QUEUE_THEN_RANDOM`` draws one
    permutation per replica from ``rngs[r]``, the reference's single draw
    per step.

    Returns ``(edge_ids, senders, receivers, mask)``, all ``(R, H)``: the
    half-edge arrays sorted per replica plus the boolean selection mask.
    Restricting row ``r`` to ``mask[r]`` yields replica ``r``'s selected
    transmissions in that order.
    """
    H = half.size
    R = queues.shape[0]
    if H == 0:
        empty = np.empty((R, 0), dtype=np.int64)
        return empty, empty.copy(), empty.copy(), np.empty((R, 0), dtype=bool)
    keys = half.sort_keys(tiebreak)
    q_recv = revealed[:, half.receivers]  # (R, H) revealed receiver queues
    if keys.tie is None:
        if rngs is None:
            raise ValueError("QUEUE_THEN_RANDOM tie-break needs per-replica rngs")
        tie = np.stack([
            tie_keys(tiebreak, half.receivers, half.edge_ids, g,
                     num_edge_slots=half.num_edge_slots)
            for g in rngs
        ])
    else:
        tie = keys.tie
    b_tie = keys.b_tie
    b_q = int(q_recv.max()) + 2
    if keys.n_senders * b_q * b_tie > 2**62:
        raise SimulationError("composite sort key would overflow int64")
    composite = half.senders * (b_q * b_tie) + q_recv * b_tie + tie
    order = np.argsort(composite, axis=1, kind="stable")

    s_sorted = half.senders[order]                       # (R, H)
    rank = keys.position - half.indptr[s_sorted]
    qs = np.take_along_axis(queues, s_sorted, axis=1)    # true sender queues
    qr = np.take_along_axis(q_recv, order, axis=1)
    mask = (qs > qr) & (rank < qs)
    return half.edge_ids[order], s_sorted, half.receivers[order], mask
