"""Vectorized Algorithm 1 — the engine hot path, for ``R`` replicas at once.

Per the hpc-parallel guidance (vectorize the bottleneck, keep a legible
reference): one stable composite-key argsort over the half-edges of the
topology epoch's :class:`~repro.graphs.csr.CSRTopology`, for an ``(R, n)``
queue matrix, replaces per-node Python loops (the line-by-line
transcription of Algorithm 1 is the tests' oracle,
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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.tiebreak import TieBreak, tie_keys
from repro.errors import SimulationError
from repro.graphs.csr import CSRTopology

__all__ = ["SortKeys", "lgg_select_fast_batched"]


@dataclass(frozen=True)
class SortKeys:
    """The per-topology constants of :func:`lgg_select_fast_batched`.

    Built once per topology epoch and tie-break, and memoised on the
    epoch's :class:`~repro.graphs.csr.CSRTopology` (:meth:`of`), so every
    engine on one graph shares them.  Deterministic tie keys are ranked
    densely, so the composite key's tie base ``b_tie`` is at most ``H``
    (the number of half-edges) instead of about ``n·(m + 1)``; only their
    order within a sender block matters, and ranking keeps it.  For
    ``QUEUE_THEN_RANDOM`` the keys are drawn every step (``tie`` is
    ``None``) and ``b_tie`` is the edge-slot count the permutation spans.
    """

    tie: Optional[np.ndarray]   # (H,) dense tie ranks, or None (drawn per step)
    b_tie: int
    n_senders: int              # max sender id + 1

    @classmethod
    def of(cls, csr: CSRTopology, tiebreak: TieBreak) -> "SortKeys":
        """The constants of ``csr`` under ``tiebreak``, built on first use."""
        keys = csr.sort_keys.get(tiebreak)
        if keys is None:
            keys = csr.sort_keys[tiebreak] = cls.build(csr, tiebreak)
        return keys

    @classmethod
    def build(cls, csr: CSRTopology, tiebreak: TieBreak) -> "SortKeys":
        if tiebreak is TieBreak.QUEUE_THEN_RANDOM:
            tie, b_tie = None, csr.num_edge_slots + 1
        else:
            raw = tie_keys(tiebreak, csr.neighbors, csr.edge_ids, None,
                           num_edge_slots=csr.num_edge_slots)
            uniq, tie = np.unique(raw, return_inverse=True)
            tie, b_tie = tie.astype(np.int64), max(len(uniq), 1)
        return cls(
            tie=tie,
            b_tie=b_tie,
            n_senders=int(csr.senders.max(initial=0)) + 1,
        )


#: ``arange`` shared by every snapshot and step; grown on demand, read-only
_POSITIONS = np.arange(0, dtype=np.int64)


def _positions(h: int) -> np.ndarray:
    """``arange(h)`` as a view of :data:`_POSITIONS` (grown when shorter)."""
    global _POSITIONS
    positions = _POSITIONS  # one read: a concurrent grow cannot shorten it
    if len(positions) < h:
        positions = np.arange(h, dtype=np.int64)
        positions.flags.writeable = False
        _POSITIONS = positions
    return positions[:h]


def lgg_select_fast_batched(
    csr: CSRTopology,
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
    H = csr.num_half_edges
    R = queues.shape[0]
    if H == 0:
        empty = np.empty((R, 0), dtype=np.int64)
        return empty, empty.copy(), empty.copy(), np.empty((R, 0), dtype=bool)
    keys = SortKeys.of(csr, tiebreak)
    q_recv = revealed[:, csr.neighbors]  # (R, H) revealed receiver queues
    if keys.tie is None:
        if rngs is None:
            raise ValueError("QUEUE_THEN_RANDOM tie-break needs per-replica rngs")
        tie = np.stack([
            tie_keys(tiebreak, csr.neighbors, csr.edge_ids, g,
                     num_edge_slots=csr.num_edge_slots)
            for g in rngs
        ])
    else:
        tie = keys.tie
    b_tie = keys.b_tie
    b_q = int(q_recv.max()) + 2
    if keys.n_senders * b_q * b_tie > 2**62:
        raise SimulationError("composite sort key would overflow int64")
    composite = csr.senders * (b_q * b_tie) + q_recv * b_tie + tie
    order = np.argsort(composite, axis=1, kind="stable")

    s_sorted = csr.senders[order]                        # (R, H)
    rank = _positions(H) - csr.indptr[s_sorted]  # position in sender block
    qs = np.take_along_axis(queues, s_sorted, axis=1)    # true sender queues
    qr = np.take_along_axis(q_recv, order, axis=1)
    mask = (qs > qr) & (rank < qs)
    return csr.edge_ids[order], s_sorted, csr.neighbors[order], mask
