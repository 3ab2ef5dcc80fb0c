"""Network-state tracking: the potential ``P_t`` and run trajectories.

Definition 1 of the paper: ``P_t = Σ_{v ∈ V} q_t(v)²``.  The protocol is
stable iff the sequence ``(P_t)`` is bounded (Definition 2).  Trajectories
record ``P_t`` plus the per-step accounting the analysis needs (packets
injected / delivered / lost / transmitted), with an optional full queue
history for small runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import SimulationError

__all__ = [
    "BIGINT_THRESHOLD",
    "network_state",
    "network_state_rows",
    "StepStats",
    "Trajectory",
    "History",
]

#: Queue magnitude from which ``P_t`` is summed in Python ints: squares of
#: larger queues would overflow int64 (divergence experiments get there).
BIGINT_THRESHOLD = 3_000_000_000


def network_state(queues: np.ndarray) -> int:
    """The paper's ``P_t = Σ q_t(v)²`` for a queue vector.

    Computed in Python ints via ``object`` dtype only when queues are huge;
    the fast path uses int64 and checks for overflow (queues beyond ~3e9
    would square past int64 — divergence experiments can get there).
    """
    q = np.asarray(queues)
    if q.size == 0:
        return 0
    mx = int(np.abs(q).max())
    if mx < BIGINT_THRESHOLD:
        return int(np.dot(q.astype(np.int64), q.astype(np.int64)))
    return sum(int(x) * int(x) for x in q)


def network_state_rows(Q: np.ndarray) -> np.ndarray:
    """Row-wise ``P_t`` for an ``(R, n)`` queue matrix.

    Values match :func:`network_state` of each row exactly; the big-int
    fallback kicks in at the same queue-magnitude threshold.
    """
    Q = np.asarray(Q)
    if Q.size == 0:
        return np.zeros(Q.shape[0], dtype=np.int64)
    mx = int(np.abs(Q).max())
    if mx < BIGINT_THRESHOLD:
        q64 = Q.astype(np.int64)
        return np.einsum("rn,rn->r", q64, q64)
    return np.array([network_state(row) for row in Q], dtype=object)


@dataclass(frozen=True)
class StepStats:
    """Per-step accounting emitted by the engine."""

    t: int
    injected: int          # packets entering source queues this step
    transmitted: int       # packets leaving a queue over a link (|E_t|)
    lost: int              # transmitted but dropped in transit
    delivered: int         # packets extracted by sinks this step
    potential: int         # P_{t+1}: network state after the step
    total_queued: int      # Σ q_{t+1}(v)
    max_queue: int


@dataclass
class Trajectory:
    """Recorded run: ``P_t`` series plus cumulative packet accounting.

    ``potentials[0]`` is the state *before* the first step (``P_0``);
    ``potentials[t]`` after step ``t-1``.  The conservation invariant

        initial + injected == queued + delivered + lost

    must hold at every step; :meth:`check_conservation` asserts it.
    """

    n: int
    initial_queued: int = 0
    potentials: list[int] = field(default_factory=list)
    total_queued: list[int] = field(default_factory=list)
    max_queues: list[int] = field(default_factory=list)
    injected: list[int] = field(default_factory=list)
    transmitted: list[int] = field(default_factory=list)
    lost: list[int] = field(default_factory=list)
    delivered: list[int] = field(default_factory=list)
    queue_history: Optional[list[np.ndarray]] = None  # per-step snapshots, opt-in

    @classmethod
    def begin(cls, queues: np.ndarray, *, record_queues: bool = False) -> "Trajectory":
        traj = cls(n=len(queues), initial_queued=int(queues.sum()))
        traj.potentials.append(network_state(queues))
        traj.total_queued.append(int(queues.sum()))
        traj.max_queues.append(int(queues.max()) if len(queues) else 0)
        if record_queues:
            traj.queue_history = [queues.copy()]
        return traj

    def record(self, stats: StepStats, queues: Optional[np.ndarray] = None) -> None:
        self.potentials.append(stats.potential)
        self.total_queued.append(stats.total_queued)
        self.max_queues.append(stats.max_queue)
        self.injected.append(stats.injected)
        self.transmitted.append(stats.transmitted)
        self.lost.append(stats.lost)
        self.delivered.append(stats.delivered)
        if self.queue_history is not None:
            if queues is None:
                raise SimulationError("queue recording enabled but no queues passed")
            self.queue_history.append(queues.copy())

    @classmethod
    def from_series(
        cls,
        n: int,
        *,
        potentials,
        total_queued,
        max_queues,
        injected,
        transmitted,
        lost,
        delivered,
        queue_history=None,
    ) -> "Trajectory":
        """Build a trajectory from pre-recorded per-step series.

        Materialises one replica's column of a run's :class:`History` (or a
        replayed trace) as a first-class trajectory (the boundary series
        have length ``T+1``, the per-step ones ``T``).
        """
        traj = cls(n=n, initial_queued=int(total_queued[0]))
        traj.potentials = _int_list(potentials)
        traj.total_queued = _int_list(total_queued)
        traj.max_queues = _int_list(max_queues)
        traj.injected = _int_list(injected)
        traj.transmitted = _int_list(transmitted)
        traj.lost = _int_list(lost)
        traj.delivered = _int_list(delivered)
        if queue_history is not None:
            traj.queue_history = [np.asarray(q).copy() for q in queue_history]
        return traj

    # ------------------------------------------------------------------
    @property
    def steps(self) -> int:
        return len(self.injected)

    @property
    def final_potential(self) -> int:
        return self.potentials[-1]

    @property
    def peak_potential(self) -> int:
        return max(self.potentials)

    def potential_deltas(self) -> np.ndarray:
        """``P_{t+1} - P_t`` series (length = steps)."""
        p = self.potentials
        return np.array([p[i + 1] - p[i] for i in range(len(p) - 1)], dtype=np.int64)

    def cumulative(self, name: str) -> int:
        series = getattr(self, name)
        return int(sum(series))

    def check_conservation(self) -> None:
        """Assert injected = queued + delivered + lost at the end of the run."""
        got = self.total_queued[-1] + self.cumulative("delivered") + self.cumulative("lost")
        want = self.initial_queued + self.cumulative("injected")
        if got != want:
            raise SimulationError(
                f"packet conservation violated: initial({self.initial_queued}) + "
                f"injected({self.cumulative('injected')}) = {want}, but queued + "
                f"delivered + lost = {got}"
            )

    def tail_mean_potential(self, fraction: float = 0.25) -> float:
        """Mean of the last ``fraction`` of the ``P_t`` series (steady state)."""
        if not (0 < fraction <= 1):
            raise SimulationError(f"fraction must be in (0, 1], got {fraction}")
        k = max(1, int(len(self.potentials) * fraction))
        return float(np.mean(self.potentials[-k:]))


def _int_list(values) -> list[int]:
    if isinstance(values, np.ndarray):
        return values.tolist()  # int64 and object (big-int) columns alike
    return [int(x) for x in values]


class History:
    """The per-step series of an ``(R, n)`` run, in growable arrays.

    Row ``0`` holds the boundary state before the first step; row ``t + 1``
    the boundary after step ``t`` plus that step's counters.  Every series
    is an int64 ``(capacity, R)`` array (56 bytes per step and replica for
    the seven series) except that ``potentials`` switches to Python ints
    once a step needs them, exactly like :func:`network_state_rows`.  The
    optional queue snapshots are one ``(capacity, R, n)`` array.
    """

    BOUNDARY = ("potentials", "total_queued", "max_queues")
    PER_STEP = ("injected", "transmitted", "lost", "delivered")

    def __init__(self, Q: np.ndarray, *, record_queues: bool = False) -> None:
        R, self.n = Q.shape
        self.steps = 0
        cap = 64
        self._cols = {name: np.zeros((cap, R), dtype=np.int64)
                      for name in self.BOUNDARY + self.PER_STEP}
        self._queues = (np.zeros((cap, R, self.n), dtype=np.int64)
                        if record_queues else None)
        self._put(0, network_state_rows(Q), Q.sum(axis=1), _row_max(Q))
        if self._queues is not None:
            self._queues[0] = Q

    @property
    def records_queues(self) -> bool:
        return self._queues is not None

    def _reserve(self, rows: int) -> None:
        cap = len(self._cols["potentials"])
        if rows <= cap:
            return
        cap = max(rows, 2 * cap)
        k = self.steps + 1
        for name, col in self._cols.items():
            grown = np.zeros((cap,) + col.shape[1:], dtype=col.dtype)
            grown[:k] = col[:k]
            self._cols[name] = grown
        if self._queues is not None:
            grown = np.zeros((cap,) + self._queues.shape[1:], dtype=np.int64)
            grown[:k] = self._queues[:k]
            self._queues = grown

    def _put(self, rows, potentials, total, maxes) -> None:
        cols = self._cols
        if potentials.dtype == object and cols["potentials"].dtype != object:
            cols["potentials"] = cols["potentials"].astype(object)
        cols["potentials"][rows] = potentials
        cols["total_queued"][rows] = total
        cols["max_queues"][rows] = maxes

    def append(self, Q: np.ndarray, injected, transmitted, lost, delivered) -> None:
        """Book one step: the boundary ``Q`` after it and its counters."""
        k = self.steps + 1
        self._reserve(k + 1)
        self._put(k, network_state_rows(Q), Q.sum(axis=1), _row_max(Q))
        cols = self._cols
        cols["injected"][k] = injected
        cols["transmitted"][k] = transmitted
        cols["lost"][k] = lost
        cols["delivered"][k] = delivered
        if self._queues is not None:
            self._queues[k] = Q
        self.steps = k

    def extend(self, series: dict, queues=None) -> None:
        """Book a whole block of steps shared by every replica.

        ``series`` maps each of the seven names to a length-``k`` sequence;
        ``potentials`` must already carry the dtype the block needs.
        ``queues`` is the ``(k, n)`` block of snapshots when recording.
        """
        k = len(series["injected"])
        lo, hi = self.steps + 1, self.steps + 1 + k
        self._reserve(hi)
        rows = slice(lo, hi)
        self._put(rows, *(np.asarray(series[name])[:, None] for name in self.BOUNDARY))
        for name in self.PER_STEP:
            self._cols[name][rows] = np.asarray(series[name], dtype=np.int64)[:, None]
        if self._queues is not None:
            self._queues[rows] = np.asarray(queues, dtype=np.int64)[:, None, :]
        self.steps = hi - 1

    def boundary(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(potentials, total_queued, max_queues)`` of the latest boundary."""
        k = self.steps
        return tuple(self._cols[name][k] for name in self.BOUNDARY)

    def series(self, name: str) -> np.ndarray:
        """One series as an owned array: ``(T+1, R)`` for the boundary
        series, ``(T, R)`` for the per-step counters."""
        lo = 1 if name in self.PER_STEP else 0
        return self._cols[name][lo:self.steps + 1].copy()

    def queue_history(self) -> Optional[np.ndarray]:
        """The ``(T+1, R, n)`` queue snapshots, or ``None`` when off."""
        if self._queues is None:
            return None
        return self._queues[:self.steps + 1].copy()

    def trajectory(self, r: int) -> Trajectory:
        """Replica ``r``'s column as a first-class trajectory."""
        k = self.steps + 1
        cols = {name: col[:k, r] for name, col in self._cols.items()}
        return Trajectory.from_series(
            self.n,
            **{name: cols[name] for name in self.BOUNDARY},
            **{name: cols[name][1:] for name in self.PER_STEP},
            queue_history=(None if self._queues is None
                           else self._queues[:k, r]),
        )


def _row_max(Q: np.ndarray) -> np.ndarray:
    if Q.shape[1] == 0:
        return np.zeros(Q.shape[0], dtype=np.int64)
    return Q.max(axis=1)
