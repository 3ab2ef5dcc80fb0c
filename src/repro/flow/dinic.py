"""Dinic's max flow — level graphs and blocking flows — the one flow engine.

O(V² · E) in general, O(E · sqrt(V)) on unit-capacity networks — which is
exactly what the extended graphs ``G*`` of this library look like away from
the virtual arcs.

The phase loop is factored out as :func:`augment_residual` so the
parametric warm-start engine (:mod:`repro.flow.warmstart`) can re-run it on
a residual network that already carries flow: Dinic never assumes the flow
starts at zero, so "continue augmenting from here" is the same code path as
"solve from scratch".
"""

from __future__ import annotations

from collections import deque

from repro.flow.residual import FlowProblem, FlowResult, Residual
from repro.obs.metrics import get_registry

__all__ = ["dinic", "augment_residual"]


def augment_residual(res: Residual, *, source=None, sink=None,
                     target_gain=None) -> tuple:
    """Run Dinic phases on ``res`` until no augmenting path remains.

    Returns ``(gained, phases, augmentations, arc_pushes)`` where ``gained``
    is the flow added on top of whatever ``res`` already carried and
    ``arc_pushes`` counts individual residual-arc pushes (the work metric
    mirrored into ``repro_flow_warm_augment_arcs_total`` by the warm-start
    engine).

    ``source`` / ``sink`` (default: the problem's) name the endpoints of
    the pushed paths; the warm-start engine reroutes and cancels flow
    between interior nodes with them.

    ``target_gain`` is a hard cap on ``gained``: the last path is trimmed
    to fit, and the phase loop stops there, skipping the final no-path
    BFS.  The feasibility probes pass the total source-arc capacity, an
    upper bound no flow can exceed, so for them the cap never trims and
    reaching it *certifies* maximality.
    """
    problem = res.problem
    n = problem.n
    s = problem.source if source is None else source
    t = problem.sink if sink is None else sink
    topo = res.topology
    indptr, arcs = topo.indptr, topo.arcs
    to, residual = res.to, res.residual
    level = [-1] * n
    # per-node current-arc cursor, as an *absolute* index into the flat
    # topology.arcs array; node u's arcs live in [indptr[u], indptr[u+1])
    it = list(indptr[:n])
    phases = 0
    augmentations = 0
    arc_pushes = 0

    def bfs() -> bool:
        for i in range(n):
            level[i] = -1
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for i in range(indptr[u], indptr[u + 1]):
                a = arcs[i]
                # truthiness == "> 0": residuals are never negative, and
                # Fraction.__bool__ (an int != 0) is far cheaper than the
                # Fraction.__gt__ rational comparison on this hot path
                if residual[a]:
                    v = to[a]
                    if level[v] == -1:
                        level[v] = level[u] + 1
                        if v == t:
                            # every node one level below t is labelled by
                            # now, and no other node at t's level can lie
                            # on a shortest path: unlabel them (the queued
                            # tail) so the blocking flow never enters them
                            for w in queue:
                                if level[w] == level[t]:
                                    level[w] = -1
                            return True
                        queue.append(v)
        return False

    def blocking_flow():
        """Saturate the current level graph; returns the amount pushed.

        Iterative path-growing DFS (no recursion — long path topologies
        would overflow Python's stack otherwise): grow a path of admissible
        arcs from the source; on reaching the sink, push the bottleneck and
        retreat to the saturated arc; on a dead end, prune the node from the
        level graph and retreat one step.
        """
        nonlocal augmentations, arc_pushes
        total = 0
        path: list[int] = []  # residual arc indices from s to the current node
        u = s
        while True:
            if u == t:
                bottleneck = min(residual[a] for a in path)
                capped = (target_gain is not None
                          and bottleneck >= target_gain - gained - total)
                if capped:
                    bottleneck = target_gain - gained - total
                for a in path:
                    res.push(a, bottleneck)
                total += bottleneck
                augmentations += 1
                arc_pushes += len(path)
                if capped:
                    return total
                # retreat to just before the first saturated arc
                for i, a in enumerate(path):
                    if not residual[a]:
                        del path[i:]
                        break
                u = to[path[-1]] if path else s
                continue
            end = indptr[u + 1]
            advanced = False
            while it[u] < end:
                a = arcs[it[u]]
                v = to[a]
                if residual[a] and level[v] == level[u] + 1:
                    path.append(a)
                    u = v
                    advanced = True
                    break
                it[u] += 1
            if advanced:
                continue
            # dead end: prune u and retreat
            if u == s:
                return total
            level[u] = -1
            a = path.pop()
            u = to[a ^ 1]
            it[u] += 1

    gained = 0
    while (target_gain is None or gained < target_gain) and bfs():
        phases += 1
        for i in range(n):
            it[i] = indptr[i]
        gained = gained + blocking_flow()
    return gained, phases, augmentations, arc_pushes


def dinic(problem: FlowProblem) -> FlowResult:
    """Compute a maximum ``source -> sink`` flow with Dinic's algorithm."""
    res = Residual(problem)
    value, phases, augmentations, _ = augment_residual(res)

    reg = get_registry()
    if reg.enabled:
        lbl = {"algorithm": "dinic"}
        reg.counter("repro_flow_solves_total",
                    "Max-flow solver invocations.",
                    ("algorithm",)).labels(**lbl).inc()
        reg.counter("repro_flow_phases_total",
                    "Dinic level-graph phases (BFS rounds).",
                    ("algorithm",)).labels(**lbl).inc(phases)
        reg.counter("repro_flow_augmentations_total",
                    "Augmenting paths pushed.",
                    ("algorithm",)).labels(**lbl).inc(augmentations)
    return FlowResult(problem=problem, value=value, flows=tuple(res.flows()), residual=res)
