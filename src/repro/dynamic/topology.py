"""Topology schedules: links appearing and disappearing over time.

Conjecture 4: "If the number of injected packets ensures the existence of
a feasible S-D-flow, then LGG is stable on the network, at least in the
unsaturated case" — in a *dynamic* network whose topology changes over
time (paper reference [5]).

A schedule mutates the spec's multigraph in place (using the stable edge
ids and the remove/restore tombstone mechanism) at the start of selected
steps; the engine takes the graph's new CSR snapshot and notifies the
policy whenever a schedule reports a change.
"""

from __future__ import annotations

from typing import Mapping, Protocol, Sequence

from repro._rng import SeedLike, as_generator
from repro.errors import SpecError
from repro.graphs.multigraph import MultiGraph

__all__ = [
    "TopologySchedule",
    "ScheduledChanges",
    "PeriodicLinkSchedule",
    "EdgeChurnSchedule",
]


class TopologySchedule(Protocol):
    """``apply(graph, t) -> bool`` — mutate and report whether anything changed."""

    def apply(self, graph: MultiGraph, t: int) -> bool:
        ...


class ScheduledChanges:
    """Explicit script: ``{t: ([edges_to_remove], [edges_to_restore])}``."""

    def __init__(self, script: Mapping[int, tuple[Sequence[int], Sequence[int]]]) -> None:
        self._script = {int(t): (list(rm), list(add)) for t, (rm, add) in script.items()}

    def apply(self, graph: MultiGraph, t: int) -> bool:
        if t not in self._script:
            return False
        rm, add = self._script[t]
        for e in rm:
            if graph.has_edge_id(e):
                graph.remove_edge(e)
        for e in add:
            graph.restore_edge(e)
        return bool(rm or add)


class PeriodicLinkSchedule:
    """A set of links that blink: present for ``on`` steps, absent for
    ``off`` steps, in phase.

    If the blinking set avoids every min cut, a feasible flow exists at
    all times and Conjecture 4 predicts stability; schedule it *on* a
    bottleneck to build the divergent control.
    """

    def __init__(self, edges: Sequence[int], on: int, off: int) -> None:
        if on <= 0 or off <= 0:
            raise SpecError(f"need positive on/off durations, got ({on}, {off})")
        self._edges = list(dict.fromkeys(int(e) for e in edges))
        self._on = on
        self._off = off

    def apply(self, graph: MultiGraph, t: int) -> bool:
        phase = t % (self._on + self._off)
        want_present = phase < self._on
        changed = False
        for e in self._edges:
            present = graph.has_edge_id(e)
            if want_present and not present:
                graph.restore_edge(e)
                changed = True
            elif not want_present and present:
                graph.remove_edge(e)
                changed = True
        return changed


class EdgeChurnSchedule:
    """Random churn: every ``period`` steps, each *churnable* edge is
    independently present with probability ``p_up``.

    ``protected`` edges never churn — point this at a spanning structure
    (or a max-flow support) to keep the network feasible throughout, which
    is exactly Conjecture 4's hypothesis.
    """

    def __init__(
        self,
        churnable: Sequence[int],
        *,
        period: int = 10,
        p_up: float = 0.7,
        seed: SeedLike = None,
    ) -> None:
        if period <= 0:
            raise SpecError(f"period must be positive, got {period}")
        if not (0.0 <= p_up <= 1.0):
            raise SpecError(f"p_up must be in [0, 1], got {p_up}")
        self._edges = list(dict.fromkeys(int(e) for e in churnable))
        self._period = period
        self._p_up = p_up
        self._rng = as_generator(seed)

    def apply(self, graph: MultiGraph, t: int) -> bool:
        if t % self._period != 0:
            return False
        changed = False
        ups = self._rng.random(len(self._edges)) < self._p_up
        for e, up in zip(self._edges, ups):
            present = graph.has_edge_id(e)
            if up and not present:
                graph.restore_edge(e)
                changed = True
            elif not up and present:
                graph.remove_edge(e)
                changed = True
        return changed
