"""Horizon selection: how long must a run be before a verdict is fair?

E15 quantifies LGG's transient: the gradient needs queue height of order
the source-sink hop distance, filled at the injection rate, so the warmup
lasts on the order of ``d²`` steps (d = max source-sink distance).  A
verdict taken inside that transient misclassifies slow-converging feasible
networks as divergent (we hit exactly this on a 20×20 grid).

:func:`suggest_horizon` turns that law into a default: BFS the real
source-sink distances and return ``warmup_factor · d² + settle`` steps,
clamped to sane bounds.  E17-style randomized studies use it instead of a
fixed horizon.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.errors import SimulationError
from repro.network.spec import NetworkSpec

__all__ = ["hop_distances_to_sinks", "max_source_sink_distance", "suggest_horizon"]


def hop_distances_to_sinks(spec: NetworkSpec) -> np.ndarray:
    """Hop distance from every node to its nearest sink (one multi-source
    BFS from the sinks); ``-1`` where no sink is reachable."""
    dist = np.full(spec.n, -1, dtype=np.int64)
    dq = deque()
    for d in spec.destinations:
        dist[d] = 0
        dq.append(d)
    csr = spec.graph.to_csr()
    while dq:
        v = dq.popleft()
        for w in csr.neighbors_of(v):
            if dist[w] == -1:
                dist[w] = dist[v] + 1
                dq.append(int(w))
    return dist


def max_source_sink_distance(spec: NetworkSpec) -> int:
    """Largest hop distance from any source to its *nearest* sink.

    Returns 0 when there are no terminals; raises when some source cannot
    reach any sink (the horizon question is moot — the network is broken;
    use :func:`repro.graphs.validate.reachability_report` to diagnose).
    """
    if not spec.sources or not spec.destinations:
        return 0
    dist = hop_distances_to_sinks(spec)
    worst = 0
    for s in spec.sources:
        if dist[s] == -1:
            raise SimulationError(
                f"source {s} cannot reach any sink; no horizon makes this fair"
            )
        worst = max(worst, int(dist[s]))
    return worst


def suggest_horizon(
    spec: NetworkSpec,
    *,
    warmup_factor: float = 12.0,
    settle: int = 800,
    cap: int = 200_000,
) -> int:
    """A horizon long enough to outlast the gradient build-up transient.

    ``warmup_factor · d² + settle``, clamped to ``[settle, cap]``; the
    default factor has ~4x slack over the measured ``mass/L² ≈ 0.55`` law
    of E15 plus drain time.
    """
    if warmup_factor < 0 or settle < 1 or cap < settle:
        raise SimulationError("invalid horizon parameters")
    d = max_source_sink_distance(spec)
    return int(min(cap, max(settle, warmup_factor * d * d + settle)))
