"""Directed flow-network representation shared by every max-flow solver.

The representation is the classic *paired residual arc* layout: original
arc ``j`` owns residual slots ``2j`` (forward, capacity ``cap_j - flow_j``)
and ``2j + 1`` (backward, capacity ``flow_j``).  Solvers only manipulate the
``residual`` array; flows are recovered at the end.

Capacities may be ``int``, ``float`` or :class:`fractions.Fraction`.
Exact :class:`~fractions.Fraction` capacities are what the feasibility
classifier uses to certify the ε of Definition 4 without floating-point
doubt; the solvers are written generically so both modes share one code
path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from repro.errors import FlowError

__all__ = ["FlowProblem", "FlowResult", "FlowTopology", "Residual"]

Number = Union[int, float, Fraction]


@dataclass(frozen=True)
class FlowProblem:
    """A single-source single-sink max-flow instance on a directed multigraph.

    ``tails[j] -> heads[j]`` with capacity ``capacities[j]``; parallel arcs
    and antiparallel pairs are fine.  Nodes are ``0 .. n-1``.
    """

    n: int
    tails: Sequence[int]
    heads: Sequence[int]
    capacities: Sequence[Number]
    source: int
    sink: int

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise FlowError(f"need at least one node, got n={self.n}")
        if not (len(self.tails) == len(self.heads) == len(self.capacities)):
            raise FlowError("tails/heads/capacities length mismatch")
        if not (0 <= self.source < self.n) or not (0 <= self.sink < self.n):
            raise FlowError(f"source/sink out of range: {self.source}, {self.sink}")
        if self.source == self.sink:
            raise FlowError("source and sink must differ")
        for j, (u, v, c) in enumerate(zip(self.tails, self.heads, self.capacities)):
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise FlowError(f"arc {j} endpoint out of range: ({u}, {v})")
            if c < 0:
                raise FlowError(f"arc {j} has negative capacity {c}")

    @property
    def num_arcs(self) -> int:
        return len(self.tails)

    @classmethod
    def _trusted(cls, *, n, tails, heads, capacities, source, sink) -> "FlowProblem":
        """Construct without re-running ``__post_init__`` validation.

        Internal fast path for the parametric warm-start engine, which
        rebuilds the problem every step with capacities it has already
        checked (same topology, validated non-negative capacities).
        """
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "tails", tails)
        object.__setattr__(self, "heads", heads)
        object.__setattr__(self, "capacities", capacities)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "sink", sink)
        return self

    @classmethod
    def from_extended(cls, ext, *, source_cap_override: dict[int, Number] | None = None) -> "FlowProblem":
        """Build the ``s* -> d*`` instance from an
        :class:`~repro.graphs.extended.ExtendedGraph`.

        ``source_cap_override`` replaces the capacity of selected ``(s*, v)``
        arcs (keyed by base node ``v``) — used by ``f*`` (infinite source
        capacity) and by the ε-scaling feasibility probes.
        """
        from repro.graphs.extended import ArcKind  # local import avoids a cycle

        caps = list(ext.capacities)
        if source_cap_override:
            for i, (kind, ref) in enumerate(zip(ext.kinds, ext.refs)):
                if kind is ArcKind.SOURCE and int(ref) in source_cap_override:
                    caps[i] = source_cap_override[int(ref)]
        tails, heads = ext.arc_lists  # cached on G*, aliased (never mutated)
        return cls(
            n=ext.n,
            tails=tails,
            heads=heads,
            capacities=caps,
            source=ext.s_star,
            sink=ext.d_star,
        )


class FlowTopology:
    """Immutable flat CSR over the paired residual arcs of a problem.

    Node ``u``'s outgoing residual arcs occupy ``arcs[indptr[u]:indptr[u+1]]``
    in the same order the old per-node list-of-lists adjacency held them
    (ascending original-arc id), so solvers that walk the arcs in order make
    bit-identical decisions.  ``to[a]`` is the head of residual arc ``a``.
    Built once per :class:`FlowProblem` topology and shared by every fork —
    the parametric warm-start engine swaps ``problem`` (new capacities, same
    tails/heads) without touching it.
    """

    __slots__ = ("n", "to", "indptr", "arcs")

    def __init__(self, problem: FlowProblem) -> None:
        n = problem.n
        m = problem.num_arcs
        tails, heads = problem.tails, problem.heads
        to: list[int] = [0] * (2 * m)
        counts = [0] * (n + 1)
        for j in range(m):
            u, v = tails[j], heads[j]
            to[2 * j] = v
            to[2 * j + 1] = u
            counts[u + 1] += 1
            counts[v + 1] += 1
        indptr = counts
        for i in range(1, n + 1):
            indptr[i] += indptr[i - 1]
        arcs: list[int] = [0] * (2 * m)
        cursor = indptr[:n]
        # Arc order within each node region matches the old append order:
        # iterate original arcs in id order, forward slot before backward.
        for j in range(m):
            u, v = tails[j], heads[j]
            cu = cursor[u]
            arcs[cu] = 2 * j
            cursor[u] = cu + 1
            cv = cursor[v]
            arcs[cv] = 2 * j + 1
            cursor[v] = cv + 1
        self.n = n
        self.to = to
        self.indptr = indptr
        self.arcs = arcs

    def arcs_of(self, u: int) -> list[int]:
        """Outgoing residual arcs of ``u`` (a fresh slice; cheap, compat)."""
        return self.arcs[self.indptr[u] : self.indptr[u + 1]]


class Residual:
    """Mutable residual network for a :class:`FlowProblem`.

    Residual arc ``2j`` is the forward copy of original arc ``j``; ``2j ^ 1``
    is always its partner.  Adjacency lives in a shared flat
    :class:`FlowTopology`; solvers index ``topology.arcs`` through
    ``topology.indptr`` directly, keeping their per-node cursors as absolute
    positions in one flat list instead of chasing per-node sublists.
    """

    __slots__ = ("problem", "to", "residual", "topology")

    def __init__(self, problem: FlowProblem) -> None:
        self.problem = problem
        m = problem.num_arcs
        topo = FlowTopology(problem)
        self.topology = topo
        self.to = topo.to
        residual: list[Number] = [0] * (2 * m)
        caps = problem.capacities
        for j in range(m):
            residual[2 * j] = caps[j]
        self.residual = residual

    def push(self, arc: int, amount: Number) -> None:
        """Move ``amount`` units of residual capacity along ``arc``."""
        self.residual[arc] -= amount
        self.residual[arc ^ 1] += amount

    def fork(self) -> "Residual":
        """An independent copy sharing the immutable topology arrays.

        ``topology`` (and its ``to``/``indptr``/``arcs``) is never mutated
        after construction, so forks alias it; only the ``residual`` array
        (the flow state) is copied.  This makes checkpoint/rollback in the
        parametric warm-start engine an O(m) list copy instead of a full
        rebuild.
        """
        clone = Residual.__new__(Residual)
        clone.problem = self.problem
        clone.to = self.to
        clone.topology = self.topology
        clone.residual = list(self.residual)
        return clone

    def flows(self) -> list[Number]:
        """Per-original-arc flow values (the backward residual)."""
        return [self.residual[2 * j + 1] for j in range(self.problem.num_arcs)]

    def reachable_from(self, start: int) -> np.ndarray:
        """Boolean mask of nodes reachable from ``start`` via positive residual."""
        seen = np.zeros(self.problem.n, dtype=bool)
        seen[start] = True
        stack = [start]
        topo = self.topology
        indptr, arcs, to, residual = topo.indptr, topo.arcs, self.to, self.residual
        while stack:
            u = stack.pop()
            for i in range(indptr[u], indptr[u + 1]):
                a = arcs[i]
                if residual[a] > 0:
                    v = to[a]
                    if not seen[v]:
                        seen[v] = True
                        stack.append(v)
        return seen

    def co_reachable_to(self, target: int) -> np.ndarray:
        """Boolean mask of nodes that can reach ``target`` via positive residual."""
        seen = np.zeros(self.problem.n, dtype=bool)
        seen[target] = True
        stack = [target]
        topo = self.topology
        indptr, arcs, to, residual = topo.indptr, topo.arcs, self.to, self.residual
        while stack:
            v = stack.pop()
            for i in range(indptr[v], indptr[v + 1]):
                a = arcs[i]
                # arc a leaves v; its partner a^1 enters v from to[a].
                if residual[a ^ 1] > 0:
                    u = to[a]
                    if not seen[u]:
                        seen[u] = True
                        stack.append(u)
        return seen


@dataclass(frozen=True)
class FlowResult:
    """Outcome of a max-flow computation.

    ``flows[j]`` is the flow on original arc ``j``; ``value`` is the total
    ``source -> sink`` flow.  The residual network is retained so cut
    extraction does not recompute anything.
    """

    problem: FlowProblem
    value: Number
    flows: tuple[Number, ...]
    residual: Residual = field(repr=False, compare=False)

    def check(self) -> None:
        """Validate capacity and conservation constraints (testing aid)."""
        p = self.problem
        excess: list[Number] = [0] * p.n
        for j, f in enumerate(self.flows):
            if f < 0 or f > p.capacities[j]:
                raise FlowError(f"arc {j}: flow {f} violates capacity {p.capacities[j]}")
            excess[p.heads[j]] += f
            excess[p.tails[j]] -= f
        for v in range(p.n):
            if v in (p.source, p.sink):
                continue
            if excess[v] != 0:
                raise FlowError(f"conservation violated at node {v}: excess {excess[v]}")
        if excess[p.sink] != self.value or excess[p.source] != -self.value:
            raise FlowError(
                f"flow value {self.value} inconsistent with node excess "
                f"(source {excess[p.source]}, sink {excess[p.sink]})"
            )

    def source_side(self) -> np.ndarray:
        """Min-cut source side: nodes residually reachable from the source."""
        return self.residual.reachable_from(self.problem.source)

    def sink_side_complement(self) -> np.ndarray:
        """Largest min-cut source side: complement of nodes co-reachable to sink."""
        return ~self.residual.co_reachable_to(self.problem.sink)
