"""Mobility traces: positions over time and the radio links they induce.

A :class:`MobilityTrace` is the precomputed product of a mobility model
(:mod:`repro.mobility.models`) and the geometric link rule shared with
:func:`repro.graphs.generators.random_geometric`: every ``snapshot_every``
steps the node positions are sampled and pairs within the communication
``radius`` become links.  The trace is an immutable value object — the
same ``(model, n, radius, steps, seed)`` tuple always regenerates it
bit-for-bit (:meth:`MobilityTrace.digest` is the proof the CI smoke step
asserts).

Storage is flat: one read-only ``(S, n, 2)`` stack of positions, and the
links of every snapshot as one ascending run of integer pair keys
``u * n + v`` in a single array indexed by per-snapshot offsets — so a
trace costs 8 bytes per link, and the link rule runs once over the whole
stack.  A snapshot's ``links`` tuple is a view built on demand.

Two consumers:

* :class:`MobilitySchedule` adapts a trace to the
  :class:`repro.dynamic.topology.TopologySchedule` protocol, so the
  simulator, :mod:`repro.dynamic`, and E10 consume mobility exactly like
  scripted churn — mutating the spec's multigraph in place through the
  stable-edge-id tombstone mechanism.  Edges the schedule never created
  (a wired backbone) are left untouched, so mobile radio links and static
  infrastructure compose.
* :func:`repro.mobility.feasibility.feasibility_timeline` tracks the
  feasible-flow question *through* the trace on one warm flow chain.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from repro._rng import SeedLike, as_generator
from repro.errors import SpecError
from repro.graphs.generators import radius_keys
from repro.graphs.multigraph import MultiGraph
from repro.mobility.models import MobilityModel

__all__ = ["MobilitySnapshot", "MobilityTrace", "MobilitySchedule"]


def _pairs(keys: np.ndarray, n: int) -> tuple[tuple[int, int], ...]:
    """Pair keys ``u * n + v`` as ``(u, v)`` tuples, in key order."""
    u, v = np.divmod(keys, n)
    return tuple(zip(u.tolist(), v.tolist()))


@dataclass(frozen=True)
class MobilitySnapshot:
    """One sampled instant: step index, positions, induced link set.

    Both arrays are read-only views into the trace's flat storage.
    """

    t: int
    positions: np.ndarray   # (n, 2) float64
    keys: np.ndarray        # ascending pair keys u * n + v, u < v

    @property
    def links(self) -> tuple[tuple[int, int], ...]:
        """The link set as sorted ``(u, v)`` pairs, ``u < v`` (built on
        each access from :attr:`keys`)."""
        return _pairs(self.keys, len(self.positions))


class MobilityTrace:
    """An immutable sequence of :class:`MobilitySnapshot` over flat arrays.

    ``positions`` is one read-only ``(S, n, 2)`` stack, one point set per
    snapshot, sampled at steps ``times``.  The links of snapshot ``s`` are
    ``keys[offsets[s]:offsets[s + 1]]``: ascending pair keys ``u * n + v``
    (``u < v``), 8 bytes per link, computed by one pass of the link rule
    over the whole stack.  Build with :meth:`generate`; index / iterate
    like a sequence.
    """

    def __init__(self, radius: float, times: Sequence[int],
                 positions: np.ndarray) -> None:
        stack = np.array(positions, dtype=np.float64)
        if not len(stack):
            raise SpecError("a mobility trace needs at least one snapshot")
        if stack.ndim != 3 or stack.shape[2] != 2 or len(times) != len(stack):
            raise SpecError(
                f"positions of shape {stack.shape} do not fit {len(times)} "
                f"snapshot times (want ({len(times)}, n, 2))"
            )
        keys, offsets = radius_keys(stack, radius)
        for arr in (stack, keys, offsets):
            arr.setflags(write=False)
        self.n = stack.shape[1]
        self.radius = float(radius)
        self.times = tuple(int(t) for t in times)
        self.positions = stack
        self.keys = keys
        self.offsets = offsets

    @classmethod
    def generate(
        cls,
        model: MobilityModel,
        n: int,
        *,
        radius: float,
        steps: int,
        seed: SeedLike = None,
        snapshot_every: int = 1,
    ) -> "MobilityTrace":
        """Run ``model`` for ``steps`` steps, sampling every
        ``snapshot_every``-th position set (step 0 included).

        All randomness comes from ``seed`` through one generator handed to
        ``model.reset`` — regenerating with the same arguments is
        bit-identical.
        """
        if n < 2:
            raise SpecError(f"mobility needs >= 2 nodes, got {n}")
        if steps < 0:
            raise SpecError(f"steps must be >= 0, got {steps}")
        if snapshot_every < 1:
            raise SpecError(f"snapshot_every must be >= 1, got {snapshot_every}")
        if not (0 < radius):
            raise SpecError(f"radius must be positive, got {radius}")
        rng = as_generator(seed)
        pos = np.asarray(model.reset(n, rng), dtype=np.float64)
        if pos.shape != (n, 2):
            raise SpecError(
                f"model produced positions of shape {pos.shape}, want ({n}, 2)"
            )
        times = range(0, steps + 1, snapshot_every)
        stack = np.empty((len(times), n, 2))
        stack[0] = pos
        for t in range(1, steps + 1):
            pos = model.step()
            if t % snapshot_every == 0:
                stack[t // snapshot_every] = pos
        return cls(radius, times, stack)

    # -- sequence protocol ---------------------------------------------
    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, i: int) -> MobilitySnapshot:
        i = range(len(self))[i]
        return MobilitySnapshot(
            t=self.times[i], positions=self.positions[i],
            keys=self.keys[self.offsets[i]:self.offsets[i + 1]],
        )

    def __iter__(self) -> Iterator[MobilitySnapshot]:
        return (self[i] for i in range(len(self)))

    # -- derived views --------------------------------------------------
    @cached_property
    def universe_keys(self) -> np.ndarray:
        """Every pair key that is ever a link, ascending (read-only)."""
        universe = np.unique(self.keys)
        universe.setflags(write=False)
        return universe

    def link_universe(self) -> tuple[tuple[int, int], ...]:
        """Every pair that is ever a link, sorted — the arc universe the
        incremental feasibility tracker allocates once up front."""
        return _pairs(self.universe_keys, self.n)

    def build_graph(self) -> MultiGraph:
        """A fresh :class:`MultiGraph` holding the *initial* link set.

        Pair it with :meth:`as_schedule` (or a :class:`MobilitySchedule`)
        to drive a simulation whose topology follows the trace.
        """
        return MultiGraph.from_edges(self.n, self[0].links)

    def as_schedule(self) -> "tuple[MultiGraph, MobilitySchedule]":
        """Convenience: ``(build_graph(), MobilitySchedule(self))``."""
        return self.build_graph(), MobilitySchedule(self)

    def digest(self) -> str:
        """SHA-256 over the full trace (shape, link sets, raw positions).

        Bit-identical regeneration is the determinism contract; the CI
        mobility smoke step generates a trace twice and asserts equal
        digests.
        """
        h = hashlib.sha256()
        h.update(f"n={self.n};r={self.radius!r};k={len(self)}".encode())
        for snap in self:
            h.update(f"t={snap.t};links={snap.links!r}".encode())
            h.update(snap.positions.tobytes())
        return h.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"MobilityTrace(n={self.n}, radius={self.radius}, "
                f"snapshots={len(self)})")


class MobilitySchedule:
    """Adapt a :class:`MobilityTrace` to the ``TopologySchedule`` protocol.

    ``apply(graph, t)`` synchronises the graph's *radio* edges with the
    latest snapshot at or before ``t`` (the trace holds its last snapshot
    beyond its horizon).  Radio pairs map to stable edge ids on first
    contact — a pair reappearing after an outage *restores* its original
    id rather than allocating a new one, which is what lets the engine's
    tombstone mechanism, trace replay, and Conjecture 4 analysis treat
    mobility exactly like scripted churn.  Edges already in the graph at
    first application are adopted as that pair's radio edge; edges of
    pairs the trace never produces are never touched.
    """

    def __init__(self, trace: MobilityTrace) -> None:
        self._trace = trace
        self._by_time = {t: i for i, t in enumerate(trace.times)}
        self._eids: dict[int, int] | None = None  # radio pair key -> edge id
        self._applied = -1  # index of the snapshot currently materialised

    def _bind(self, graph: MultiGraph) -> dict[int, int]:
        n = self._trace.n
        if graph.n < n:
            raise SpecError(
                f"graph has {graph.n} nodes but the trace moves {n}"
            )
        universe = set(self._trace.universe_keys.tolist())
        eids: dict[int, int] = {}
        for eid, u, v in graph.edges():
            u, v = min(u, v), max(u, v)
            # non-radio (backbone) edges stay unmanaged
            if v < n and u * n + v in universe:
                eids.setdefault(u * n + v, eid)
        return eids

    def apply(self, graph: MultiGraph, t: int) -> bool:
        idx = self._by_time.get(t)
        if idx is None:
            return False
        if self._eids is None:
            self._eids = self._bind(graph)
        if idx == self._applied:
            return False
        n = self._trace.n
        keys = self._trace[idx].keys.tolist()
        want = set(keys)
        changed = False
        # drop radio links that moved out of range
        for key, eid in self._eids.items():
            if key not in want and graph.has_edge_id(eid):
                graph.remove_edge(eid)
                changed = True
        # (re-)establish links now in range: restore a known id, else mint one
        for key in keys:
            eid = self._eids.get(key)
            if eid is None:
                self._eids[key] = graph.add_edge(*divmod(key, n))
                changed = True
            elif not graph.has_edge_id(eid):
                graph.restore_edge(eid)
                changed = True
        self._applied = idx
        return changed
