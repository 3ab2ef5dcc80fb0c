"""Packet-level simulation: per-packet identities, latency and hop counts.

The paper's analysis never needs packet identities (its potential only
counts queue *lengths*), but a downstream user evaluating LGG does:
end-to-end latency and path stretch are the observable costs of the
gradient build-up.  :class:`PacketSimulator` extends the ``R = 1`` engine
with per-node FIFO queues of packet records: after each engine step it
replays the step's :class:`~repro.core.pipeline.StepState` on the FIFOs
in stage order (injections, then the selected transmissions in selection
order with their loss mask, then extractions), mirroring every
queue-length mutation one-for-one — the queue-length trajectory is
therefore *identical by construction* to :class:`Simulator`'s (and a
differential test asserts it).  The integer kernel never carries a
subclass run, so every step is replayed.

FIFO discipline is a modelling choice the paper leaves open (packets are
indistinguishable there); it yields the standard latency semantics.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.engine import SimulationConfig, Simulator
from repro.core.pipeline import StepState
from repro.core.policies import TransmissionPolicy
from repro.errors import SimulationError
from repro.network.spec import NetworkSpec

__all__ = ["PacketRecord", "PacketStats", "PacketSimulator"]


@dataclass
class PacketRecord:
    """One tracked packet."""

    pid: int
    source: int
    born: int
    hops: int = 0
    delivered_at: Optional[int] = None
    delivered_to: Optional[int] = None
    lost_at: Optional[int] = None

    @property
    def latency(self) -> Optional[int]:
        if self.delivered_at is None:
            return None
        return self.delivered_at - self.born


@dataclass(frozen=True)
class PacketStats:
    """Aggregate per-packet outcomes of a run."""

    delivered: int
    lost: int
    in_flight: int
    mean_latency: float
    p50_latency: float
    p95_latency: float
    max_latency: int
    mean_hops: float
    per_source_delivered: dict[int, int]


class PacketSimulator(Simulator):
    """Array engine + per-packet FIFO bookkeeping.

    Usage matches :class:`Simulator`; afterwards, :meth:`packet_stats`
    summarises latencies and :attr:`packets` holds every record.
    """

    def __init__(
        self,
        spec: NetworkSpec,
        policy: Optional[TransmissionPolicy] = None,
        config: Optional[SimulationConfig] = None,
        *,
        initial_queues: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__(spec, policy, config, initial_queues=initial_queues)
        self.packets: list[PacketRecord] = []
        self._fifo: list[deque[int]] = [deque() for _ in range(spec.n)]
        # pre-existing packets (initial queues) are born at t = 0 with a
        # synthetic source = their starting node
        for v in range(spec.n):
            for _ in range(int(self.queues[v])):
                self._new_packet(v, born=0, node=v)

    # -- replay ----------------------------------------------------------
    def _new_packet(self, source: int, born: int, node: int) -> int:
        pid = len(self.packets)
        self.packets.append(PacketRecord(pid=pid, source=source, born=born))
        self._fifo[node].append(pid)
        return pid

    def _step(self) -> StepState:
        st = super()._step()
        t = st.t
        injections = st.injections[0]
        for v in np.nonzero(injections)[0]:
            for _ in range(int(injections[v])):
                self._new_packet(int(v), born=t, node=int(v))
        # pop all outgoing packets first (simultaneous transmission), then
        # deliver survivors — a packet cannot be forwarded twice per step
        m = st.sel_mask[0]
        moved: list[tuple[int, int, bool]] = []
        for u, v, lost in zip(st.snd[0, m], st.rcv[0, m], st.lost_mask[0, m]):
            if not self._fifo[int(u)]:
                raise SimulationError(
                    f"packet bookkeeping desync: node {int(u)} has no packets"
                )
            pid = self._fifo[int(u)].popleft()
            moved.append((pid, int(v), bool(lost)))
        for pid, v, lost in moved:
            rec = self.packets[pid]
            if lost:
                rec.lost_at = t
            else:
                rec.hops += 1
                self._fifo[v].append(pid)
        extractions = st.extractions[0]
        for d in np.nonzero(extractions)[0]:
            for _ in range(int(extractions[d])):
                pid = self._fifo[int(d)].popleft()
                rec = self.packets[pid]
                rec.delivered_at = t
                rec.delivered_to = int(d)
        return st

    # -- analysis --------------------------------------------------------
    def check_sync(self) -> None:
        """Assert FIFO lengths mirror the array queues (testing aid)."""
        lengths = np.array([len(q) for q in self._fifo], dtype=np.int64)
        if not np.array_equal(lengths, self.queues):
            raise SimulationError(
                f"packet bookkeeping desync: fifo lengths {lengths.tolist()} "
                f"!= queues {self.queues.tolist()}"
            )

    def packet_stats(self) -> PacketStats:
        delivered = [p for p in self.packets if p.delivered_at is not None]
        lost = sum(1 for p in self.packets if p.lost_at is not None)
        latencies = np.array([p.latency for p in delivered], dtype=np.float64)
        hops = np.array([p.hops for p in delivered], dtype=np.float64)
        per_source: dict[int, int] = {}
        for p in delivered:
            per_source[p.source] = per_source.get(p.source, 0) + 1
        if len(latencies):
            mean_lat = float(latencies.mean())
            p50 = float(np.percentile(latencies, 50))
            p95 = float(np.percentile(latencies, 95))
            max_lat = int(latencies.max())
            mean_hops = float(hops.mean())
        else:
            mean_lat = p50 = p95 = mean_hops = 0.0
            max_lat = 0
        return PacketStats(
            delivered=len(delivered),
            lost=lost,
            in_flight=len(self.packets) - len(delivered) - lost,
            mean_latency=mean_lat,
            p50_latency=p50,
            p95_latency=p95,
            max_latency=max_lat,
            mean_hops=mean_hops,
            per_source_delivered=per_source,
        )
