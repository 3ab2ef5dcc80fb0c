"""The extended graph ``G*`` of the paper (Fig. 2 and Fig. 4).

``G*`` augments the network multigraph ``G`` with a virtual source ``s*``
and a virtual sink ``d*``:

* an arc ``(s*, v)`` of capacity ``in(v)`` for every node with ``in(v) > 0``,
* an arc ``(v, d*)`` of capacity ``out(v)`` for every node with
  ``out(v) > 0``,
* every (undirected, unit-capacity) edge of ``G`` becomes a pair of opposite
  arcs of capacity 1 each — the standard undirected-to-directed reduction,
  which preserves the max-flow value.

For a classical S-D-network only sources have ``in`` and only sinks have
``out``; for an R-generalized network (Fig. 4) the same node may carry both,
and both arcs are present.

This module only *describes* the construction (node numbering + arc table);
solving flows on it is the job of :mod:`repro.flow`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Union

import numpy as np

from repro.errors import GraphError
from repro.graphs.multigraph import MultiGraph

__all__ = ["ArcKind", "ExtendedGraph", "build_extended_graph"]

Number = Union[int, float, Fraction]


class ArcKind(Enum):
    """Provenance of an arc of ``G*``."""

    EDGE_FWD = "edge_fwd"  # u -> v copy of an undirected edge (u, v)
    EDGE_BWD = "edge_bwd"  # v -> u copy of the same edge
    SOURCE = "source"      # s* -> v, capacity in(v)
    SINK = "sink"          # v -> d*, capacity out(v)


@dataclass(frozen=True)
class ExtendedGraph:
    """Immutable description of ``G*``.

    Nodes ``0 .. n-1`` are the nodes of the base graph; ``s_star == n`` and
    ``d_star == n + 1``.  Arcs are parallel arrays; ``ref[i]`` is the base
    edge id for ``EDGE_*`` arcs and the base node id for ``SOURCE`` /
    ``SINK`` arcs.
    """

    n_base: int
    s_star: int
    d_star: int
    tails: np.ndarray          # int64, arc tail node
    heads: np.ndarray          # int64, arc head node
    capacities: tuple[Number, ...]
    kinds: tuple[ArcKind, ...]
    refs: np.ndarray           # int64, provenance reference
    in_rates: Mapping[int, Number] = field(default_factory=dict)
    out_rates: Mapping[int, Number] = field(default_factory=dict)

    @property
    def n(self) -> int:
        """Total node count of ``G*`` (base nodes + the two virtual nodes)."""
        return self.n_base + 2

    @property
    def num_arcs(self) -> int:
        return len(self.tails)

    @cached_property
    def arc_lists(self) -> tuple[list[int], list[int]]:
        """Arc ``(tails, heads)`` as plain Python-int lists.

        Cached on the (frozen) instance so every
        :meth:`~repro.flow.residual.FlowProblem.from_extended` call over the
        same ``G*`` — the feasibility classifier builds several per verdict —
        shares one conversion instead of re-walking the numpy arrays.  The
        lists are aliased, never copied; callers must not mutate them.
        """
        return self.tails.tolist(), self.heads.tolist()

    def arcs_of_kind(self, kind: ArcKind) -> np.ndarray:
        """Indices of arcs with the given provenance."""
        return np.array([i for i, k in enumerate(self.kinds) if k is kind], dtype=np.int64)

    def source_arc_of(self, v: int) -> int:
        """Arc index of ``(s*, v)``; raises if ``v`` has no injection."""
        for i, (k, r) in enumerate(zip(self.kinds, self.refs)):
            if k is ArcKind.SOURCE and r == v:
                return i
        raise GraphError(f"node {v} has no (s*, v) arc")

    def sink_arc_of(self, v: int) -> int:
        """Arc index of ``(v, d*)``; raises if ``v`` has no extraction."""
        for i, (k, r) in enumerate(zip(self.kinds, self.refs)):
            if k is ArcKind.SINK and r == v:
                return i
        raise GraphError(f"node {v} has no (v, d*) arc")

    def total_injection(self) -> Number:
        """The arrival rate ``Σ in(v)`` — capacity out of ``s*``."""
        return sum(self.in_rates.values(), start=0)


def build_extended_graph(
    graph: MultiGraph,
    in_rates: Mapping[int, Number],
    out_rates: Mapping[int, Number],
    *,
    edge_capacity: Number = 1,
    source_scale: Number = 1,
) -> ExtendedGraph:
    """Construct ``G*`` from a base multigraph and injection/extraction rates.

    Parameters
    ----------
    graph:
        The network multigraph ``G``.
    in_rates / out_rates:
        ``node -> rate`` maps.  Zero-rate entries are dropped; negative rates
        are rejected.  A node may appear in both maps (R-generalized model).
    edge_capacity:
        Per-link capacity; the paper fixes this to 1, but the parameter keeps
        capacity-scaling experiments honest.
    source_scale:
        Multiplies every ``in(v)`` capacity — ``source_scale = 1 + eps`` is
        exactly the unsaturated test of Definition 4.
    """
    n = graph.n
    for label, rates in (("in", in_rates), ("out", out_rates)):
        for v, r in rates.items():
            if not (0 <= v < n):
                raise GraphError(f"{label}_rates references unknown node {v}")
            if r < 0:
                raise GraphError(f"{label}({v}) = {r} is negative")
    in_clean = {v: r for v, r in sorted(in_rates.items()) if r > 0}
    out_clean = {v: r for v, r in sorted(out_rates.items()) if r > 0}

    # both directions of every live edge in id order, then s* -> v, then v -> d*
    eids, us, vs = graph.edge_array()
    m = len(eids)
    s_star, d_star = n, n + 1
    in_nodes = np.array(list(in_clean), dtype=np.int64)
    out_nodes = np.array(list(out_clean), dtype=np.int64)
    tails = np.concatenate((np.column_stack((us, vs)).ravel(),
                            np.full(len(in_nodes), s_star, dtype=np.int64), out_nodes))
    heads = np.concatenate((np.column_stack((vs, us)).ravel(),
                            in_nodes, np.full(len(out_nodes), d_star, dtype=np.int64)))
    refs = np.concatenate((np.repeat(eids, 2), in_nodes, out_nodes))
    caps = ((edge_capacity,) * (2 * m)
            + tuple(r * source_scale for r in in_clean.values())
            + tuple(out_clean.values()))
    kinds = ((ArcKind.EDGE_FWD, ArcKind.EDGE_BWD) * m
             + (ArcKind.SOURCE,) * len(in_nodes) + (ArcKind.SINK,) * len(out_nodes))

    return ExtendedGraph(
        n_base=n,
        s_star=s_star,
        d_star=d_star,
        tails=tails,
        heads=heads,
        capacities=caps,
        kinds=kinds,
        refs=refs,
        in_rates=dict(in_clean),
        out_rates=dict(out_clean),
    )
