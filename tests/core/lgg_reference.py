"""Reference implementation of Algorithm 1 (Local Greedy Gradient), a test oracle.

This is a direct, line-by-line transcription of the paper's pseudocode:

    Et(u) <- {}
    q <- qt(u)
    list(u) <- order Γ(u) by increasing qt
    for all v in list(u):
        if qt(u) > qt(v) and q > 0:
            Et(u) <- Et(u) ∪ {(u, v)}
            q <- q - 1

run independently at every node against the *revealed* queue lengths of the
neighbours (identical to the true lengths in a classical network).  The
vectorized implementation in :mod:`repro.core.lgg_fast` must agree with
this one transmission-for-transmission; the hypothesis differential test
enforces that.

The function is pure: it returns the selected transmissions and mutates
nothing.  :class:`ReferenceLGGPolicy` runs it inside the engine: the
engine takes the vectorized kernel only for the exact type
:class:`~repro.core.policies.LGGPolicy`, so a subclass is asked through
``select`` like any other policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.policies import LGGPolicy, StepContext
from repro.core.tiebreak import TieBreak, tie_keys
from repro.graphs.multigraph import MultiGraph

__all__ = ["ReferenceLGGPolicy", "lgg_select_reference"]


def lgg_select_reference(
    graph: MultiGraph,
    queues: np.ndarray,
    revealed: np.ndarray,
    *,
    tiebreak: TieBreak = TieBreak.QUEUE_THEN_ID,
    rng: np.random.Generator | None = None,
) -> list[tuple[int, int, int]]:
    """Run Algorithm 1 at every node; return ``[(eid, sender, receiver), ...]``.

    Parameters
    ----------
    graph:
        The network multigraph.
    queues:
        True queue lengths ``q_t`` (post-injection), indexed by node.  The
        sender's own decision uses its *true* length — a node cannot lie to
        itself.
    revealed:
        The queue lengths the nodes *declare* (Definition 7(ii)); equals
        ``queues`` in a classical network.
    tiebreak / rng:
        Neighbour ordering among equal revealed lengths; see
        :mod:`repro.core.tiebreak`.  For ``QUEUE_THEN_RANDOM`` the ``rng``
        must be supplied and is consumed exactly once (one permutation),
        keeping parity with the fast engine.

    Returns transmissions in deterministic (sender, tie-key) order.
    """
    csr = graph.to_csr()
    n = graph.n
    selected: list[tuple[int, int, int]] = []
    num_slots = graph.num_edge_slots

    # one tie-key array over all half-edges, shared across nodes — the
    # random strategy draws its single permutation here
    keys_all = tie_keys(
        tiebreak, csr.neighbors, csr.edge_ids, rng, num_edge_slots=num_slots
    )

    for u in range(n):
        budget = int(queues[u])
        if budget <= 0:
            continue
        lo, hi = int(csr.indptr[u]), int(csr.indptr[u + 1])
        if lo == hi:
            continue
        nbrs = csr.neighbors[lo:hi]
        eids = csr.edge_ids[lo:hi]
        keys = keys_all[lo:hi]
        order = sorted(
            range(hi - lo), key=lambda i: (int(revealed[nbrs[i]]), int(keys[i]))
        )
        qu = int(queues[u])
        for i in order:
            v = int(nbrs[i])
            if qu > int(revealed[v]) and budget > 0:
                selected.append((int(eids[i]), u, v))
                budget -= 1
    return selected


@dataclass
class ReferenceLGGPolicy(LGGPolicy):
    """:class:`LGGPolicy` selecting with :func:`lgg_select_reference`."""

    def select(self, ctx: StepContext):
        triples = lgg_select_reference(
            ctx.spec.graph, ctx.queues, ctx.revealed,
            tiebreak=self.tiebreak, rng=ctx.rng,
        )
        arr = np.array(triples, dtype=np.int64).reshape(-1, 3)
        return arr[:, 0], arr[:, 1], arr[:, 2]
