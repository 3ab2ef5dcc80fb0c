"""Enumeration of *all* minimum cuts (Picard–Queyranne, 1980).

Section V's case analysis is a statement about the whole family of minimum
cuts of ``G*`` — "such a cut is unique", "one single other cut exists",
"it exists such a cut (A, B) in G".  The classical characterisation makes
the family computable: after any max flow, contract the strongly connected
components of the positive-residual graph; the source sides of minimum
cuts are exactly the successor-closed SCC sets containing the source's SCC
and avoiding the sink's.

The family can be exponential, so :func:`enumerate_min_cuts` takes a
``limit`` and reports truncation honestly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import FlowError
from repro.flow.maxflow import max_flow
from repro.flow.mincut import MinCut
from repro.flow.residual import FlowProblem, FlowResult

__all__ = ["CutFamily", "enumerate_min_cuts", "count_min_cuts"]


def _residual_sccs(result: FlowResult) -> tuple[np.ndarray, list[list[int]]]:
    """SCCs of the positive-residual graph (iterative Tarjan).

    Returns ``(component_id per node, adjacency among components)``.
    """
    res = result.residual
    n = result.problem.n

    # iterative Tarjan
    index = np.full(n, -1, dtype=np.int64)
    low = np.zeros(n, dtype=np.int64)
    on_stack = np.zeros(n, dtype=bool)
    comp = np.full(n, -1, dtype=np.int64)
    stack: list[int] = []
    counter = 0
    n_comp = 0

    def neighbors(u: int) -> list[int]:
        return [res.to[a] for a in res.topology.arcs_of(u) if res.residual[a] > 0]

    for root in range(n):
        if index[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        call_parent: dict[int, int] = {root: -1}
        while work:
            u, pi = work[-1]
            if pi == 0:
                index[u] = low[u] = counter
                counter += 1
                stack.append(u)
                on_stack[u] = True
            nbrs = neighbors(u)
            advanced = False
            while pi < len(nbrs):
                w = nbrs[pi]
                pi += 1
                if index[w] == -1:
                    work[-1] = (u, pi)
                    work.append((w, 0))
                    call_parent[w] = u
                    advanced = True
                    break
                if on_stack[w]:
                    low[u] = min(low[u], index[w])
            if advanced:
                continue
            work[-1] = (u, pi)
            if pi >= len(nbrs):
                work.pop()
                if low[u] == index[u]:
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp[w] = n_comp
                        if w == u:
                            break
                    n_comp += 1
                parent = call_parent.get(u, -1)
                if parent != -1:
                    low[parent] = min(low[parent], low[u])

    adj: list[set[int]] = [set() for _ in range(n_comp)]
    for u in range(n):
        for w in neighbors(u):
            if comp[u] != comp[w]:
                adj[comp[u]].add(int(comp[w]))
    return comp, [sorted(s) for s in adj]


@dataclass(frozen=True)
class CutFamily:
    """All (or the first ``limit``) minimum cuts of an instance."""

    cuts: tuple[MinCut, ...]
    complete: bool   # False if enumeration hit the limit

    def __len__(self) -> int:
        return len(self.cuts)


def enumerate_min_cuts(problem: FlowProblem, *, limit: int = 64) -> CutFamily:
    """Enumerate minimum cuts (up to ``limit``; set ``complete`` accordingly).

    Every returned :class:`MinCut` has the canonical capacity (asserted
    equal to the max-flow value).
    """
    if limit < 1:
        raise FlowError(f"limit must be >= 1, got {limit}")
    result = max_flow(problem)
    comp, cadj = _residual_sccs(result)
    n_comp = len(cadj)
    s_comp = int(comp[problem.source])
    t_comp = int(comp[problem.sink])

    # mandatory: successor-closure of the source's SCC
    mandatory = np.zeros(n_comp, dtype=bool)
    stack = [s_comp]
    mandatory[s_comp] = True
    while stack:
        x = stack.pop()
        for y in cadj[x]:
            if not mandatory[y]:
                mandatory[y] = True
                stack.append(y)
    if mandatory[t_comp]:  # pragma: no cover - impossible after a max flow
        raise FlowError("sink residually reachable from source: flow not maximum")

    # forbidden: SCCs that can reach the sink's SCC (their inclusion would
    # force the sink in, by successor-closure)
    radj: list[list[int]] = [[] for _ in range(n_comp)]
    for x in range(n_comp):
        for y in cadj[x]:
            radj[y].append(x)
    forbidden = np.zeros(n_comp, dtype=bool)
    stack = [t_comp]
    forbidden[t_comp] = True
    while stack:
        x = stack.pop()
        for y in radj[x]:
            if not forbidden[y]:
                forbidden[y] = True
                stack.append(y)

    free = [x for x in range(n_comp) if not mandatory[x] and not forbidden[x]]

    # enumerate successor-closed subsets of the free sub-DAG: every closed
    # set has a unique generator antichain, added in increasing index order,
    # so the DFS below visits each exactly once (bounded by the limit)
    sides: list[np.ndarray] = []

    def emit(chosen: frozenset[int]) -> bool:
        """Record one cut; True once we have one *more* than the limit
        (the extra one only proves incompleteness and is discarded)."""
        side = mandatory.copy()
        for x in chosen:
            side[x] = True
        node_mask = side[comp]
        sides.append(node_mask)
        return len(sides) > limit

    # closed subsets of a DAG == antichains' down-closures; enumerate by
    # iterating: start from empty, repeatedly try adding a free component
    # together with its successor-closure (within free; successors outside
    # free are mandatory-or-forbidden — forbidden successors disqualify).
    closure_cache: dict[int, Optional[frozenset[int]]] = {}

    def closure_of(x: int) -> Optional[frozenset[int]]:
        if x in closure_cache:
            return closure_cache[x]
        seen = {x}
        stack2 = [x]
        ok = True
        while stack2:
            u = stack2.pop()
            for y in cadj[u]:
                if forbidden[y]:
                    ok = False
                    break
                if mandatory[y] or y in seen:
                    continue
                seen.add(y)
                stack2.append(y)
            if not ok:
                break
        out = frozenset(seen) if ok else None
        closure_cache[x] = out
        return out

    seen_sets: set[frozenset[int]] = set()

    def recurse(current: frozenset[int], candidates: list[int]) -> bool:
        """Returns True when the limit was hit."""
        for i, x in enumerate(candidates):
            if x in current:
                continue
            cl = closure_of(x)
            if cl is None:
                continue
            nxt = current | cl
            if nxt in seen_sets:
                continue
            seen_sets.add(nxt)
            if emit(nxt):
                return True
            if recurse(nxt, candidates[i + 1 :]):
                return True
        return False

    seen_sets.add(frozenset())
    if not emit(frozenset()):
        recurse(frozenset(), free)
    complete = len(sides) <= limit
    sides = sides[:limit]

    cuts = []
    p = problem
    for side in sides:
        arcs = tuple(
            j
            for j, (u, v) in enumerate(zip(p.tails, p.heads))
            if side[u] and not side[v] and p.capacities[j] > 0
        )
        capacity = sum(p.capacities[j] for j in arcs)
        cuts.append(MinCut(side=side, arcs=arcs, capacity=capacity))
        if capacity != result.value:
            raise FlowError(
                f"enumerated cut has capacity {capacity} != {result.value}"
            )
    return CutFamily(cuts=tuple(cuts), complete=complete)


def count_min_cuts(problem: FlowProblem, *, limit: int = 64) -> int:
    """Number of distinct minimum cuts (capped at ``limit``)."""
    return len(enumerate_min_cuts(problem, limit=limit).cuts)
