"""Mobility traces: positions over time and the radio links they induce.

A :class:`MobilityTrace` is the precomputed product of a mobility model
(:mod:`repro.mobility.models`) and the geometric link rule shared with
:func:`repro.graphs.generators.random_geometric`: every ``snapshot_every``
steps the node positions are sampled and pairs within the communication
``radius`` become links.  The trace is an immutable value object — the
same ``(model, n, radius, steps, seed)`` tuple always regenerates it
bit-for-bit (:meth:`MobilityTrace.digest` is the proof the CI smoke step
asserts).

Storage is flat: one read-only ``(S, n, 2)`` stack of positions, the
trace's link universe (every pair that is ever a link, as ascending
integer pair keys ``u * n + v``), and one row of packed bits per
snapshot over that universe — so a trace costs 8 bytes per universe pair
plus one bit per pair per snapshot, and the link rule runs once over the
whole stack.  A snapshot's ``keys`` and ``links`` are built from its row
on demand.

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
from typing import Iterator, Sequence

import numpy as np

from repro._rng import SeedLike, as_generator
from repro.errors import SpecError
from repro.graphs.generators import radius_hits
from repro.graphs.multigraph import MultiGraph
from repro.mobility.models import MobilityModel

__all__ = ["MobilitySnapshot", "MobilityTrace", "MobilitySchedule"]


def _pairs(keys: np.ndarray, n: int) -> tuple[tuple[int, int], ...]:
    """Pair keys ``u * n + v`` as ``(u, v)`` tuples, in key order."""
    u, v = np.divmod(keys, n)
    return tuple(zip(u.tolist(), v.tolist()))


def _link_rows(stack: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """The link rule on an ``(S, n, 2)`` stack as ``(universe_keys, rows)``
    (see :class:`MobilityTrace`).

    Each block of :func:`radius_hits` adds the pairs that link in any
    snapshot, in key order past every earlier block's, and packs their
    columns of hits onto the rows; nothing is sorted.  Columns short of a
    whole byte carry over to the next block, so no temporary outgrows a
    block or the packed rows.
    """
    n, sets = stack.shape[1], len(stack)
    pairs = [np.empty(0, dtype=np.int64)]
    packed = [np.empty((sets, 0), dtype=np.uint8)]
    carry = np.empty((sets, 0), dtype=bool)
    for i0, hit in radius_hits(stack, radius):
        ever = hit.any(axis=0)
        a, c = np.nonzero(ever)
        pairs.append((i0 + a) * n + (i0 + 1 + c))
        columns = np.concatenate((carry, hit[:, ever]), axis=1)
        whole = columns.shape[1] & ~7
        packed.append(np.packbits(columns[:, :whole], axis=1))
        carry = columns[:, whole:]
    packed.append(np.packbits(carry, axis=1))
    return np.concatenate(pairs), np.concatenate(packed, axis=1)


@dataclass(frozen=True)
class MobilitySnapshot:
    """One sampled instant: step index, positions, induced link set.

    ``positions`` is a read-only view into the trace's stack; ``keys`` is
    built from the trace's row on access, ascending and read-only.
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
    snapshot, sampled at steps ``times``.  The links are bits over the
    trace's link universe: ``universe_keys`` holds the ``U`` pairs that are
    ever a link, as ascending pair keys ``u * n + v`` (``u < v``), and
    bit ``k`` of row ``s`` of the read-only ``(S, ⌈U/8⌉)`` uint8 matrix
    ``rows`` (``np.packbits`` order) says whether universe pair ``k`` links
    in snapshot ``s``.  One pass of the link rule over the whole stack
    computes both.  Build with :meth:`generate`; index / iterate like a
    sequence.

    Storage is 8 bytes per universe pair plus one bit per pair per
    snapshot, where one pair key per link would cost 8 bytes per link per
    snapshot.  A row costs less than its snapshot's keys while at least
    one universe pair in 64 links.  Uniform points in the unit square link
    a fraction ``πr² − 8r³/3 + r⁴/2`` of all pairs at radius ``r``, so even
    a universe of every pair costs about a tenth of the keys at radius
    0.25 and a fiftieth at 0.75, the ends of the range this repository's
    experiments and workloads use.  Below a radius of about 0.07, a long
    trace whose universe nears all pairs can cost more than keys would.
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
        universe, rows = _link_rows(stack, radius)
        for arr in (stack, universe, rows):
            arr.setflags(write=False)
        self.n = stack.shape[1]
        self.radius = float(radius)
        self.times = tuple(int(t) for t in times)
        self.positions = stack
        self.universe_keys = universe
        self.rows = rows

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
        keys = self.universe_keys[self.linked(i)]
        keys.setflags(write=False)
        return MobilitySnapshot(t=self.times[i], positions=self.positions[i],
                                keys=keys)

    def __iter__(self) -> Iterator[MobilitySnapshot]:
        return (self[i] for i in range(len(self)))

    # -- derived views --------------------------------------------------
    def linked(self, i: int) -> np.ndarray:
        """Row ``i`` unpacked: one bool per universe pair, ``True`` where
        the pair links in snapshot ``i``."""
        return np.unpackbits(self.rows[i], count=len(self.universe_keys)).view(bool)

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
        self._eids: dict[int, int] | None = None  # universe slot -> edge id
        self._applied = -1  # index of the snapshot currently materialised

    def _bind(self, graph: MultiGraph) -> dict[int, int]:
        n = self._trace.n
        if graph.n < n:
            raise SpecError(
                f"graph has {graph.n} nodes but the trace moves {n}"
            )
        slots = {key: k for k, key in enumerate(self._trace.universe_keys.tolist())}
        eids: dict[int, int] = {}
        for eid, u, v in graph.edges():
            u, v = min(u, v), max(u, v)
            # non-radio (backbone) edges stay unmanaged
            k = slots.get(u * n + v) if v < n else None
            if k is not None:
                eids.setdefault(k, eid)
        return eids

    def apply(self, graph: MultiGraph, t: int) -> bool:
        idx = self._by_time.get(t)
        if idx is None:
            return False
        if self._eids is None:
            self._eids = self._bind(graph)
        if idx == self._applied:
            return False
        n, universe = self._trace.n, self._trace.universe_keys
        linked = self._trace.linked(idx)
        want = linked.tolist()
        changed = False
        # drop radio links that moved out of range
        for k, eid in self._eids.items():
            if not want[k] and graph.has_edge_id(eid):
                graph.remove_edge(eid)
                changed = True
        # (re-)establish links now in range: restore a known id, else mint one
        for k in np.flatnonzero(linked).tolist():
            eid = self._eids.get(k)
            if eid is None:
                self._eids[k] = graph.add_edge(*divmod(int(universe[k]), n))
                changed = True
            elif not graph.has_edge_id(eid):
                graph.restore_edge(eid)
                changed = True
        self._applied = idx
        return changed
