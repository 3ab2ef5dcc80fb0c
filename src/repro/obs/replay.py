"""Replay a trace into trajectories and stability verdicts.

The acceptance contract of the trace layer: a traced run's events hold
*everything* the stability analysis needs, so replaying them
reconstructs the exact ``P_t`` series and the exact verdict of the live
run — without re-simulating.  ``replay_trace`` does that for scalar and
batched traces, re-validating packet conservation along the way (a
corrupted or hand-edited trace fails loudly instead of yielding a
quietly wrong verdict).

A run is the ``run_start`` and ``step`` events of one ``sim.run`` span:
they share its ``(trace_id, span_id)``, so a file or ring holding
several runs replays the first of them, untouched by the others.

Imports from :mod:`repro.core` happen inside the functions: the engine
imports :mod:`repro.obs` at module load, and this is the one obs module
that needs the arrow to point back.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Union

from repro.errors import ObservabilityError
from repro.obs.trace import read_trace

__all__ = ["ReplayResult", "replay_trace"]


@dataclass(frozen=True)
class ReplayResult:
    """Trajectories and verdicts reconstructed from a trace.

    Scalar traces yield one entry; batched traces one per replica.  The
    singular ``trajectory`` / ``verdict`` properties are the scalar
    conveniences.
    """

    backend: str
    trajectories: tuple
    verdicts: tuple

    @property
    def replicas(self) -> int:
        return len(self.trajectories)

    @property
    def trajectory(self):
        return self.trajectories[0]

    @property
    def verdict(self):
        return self.verdicts[0]

    @property
    def potentials(self) -> list:
        """The replayed ``P_t`` series (first/only replica)."""
        return list(self.trajectory.potentials)


def _events(records: list[dict], name: str) -> list[dict]:
    return [r for r in records
            if r.get("type") == "event" and r.get("name") == name]


def _columns(steps: list[dict], field: str, replicas: int) -> list[list[int]]:
    cols: list[list[int]] = [[] for _ in range(replicas)]
    for rec in steps:
        row = rec[field]
        if len(row) != replicas:
            raise ObservabilityError(
                f"step t={rec['t']} has {len(row)} replicas in {field!r}, "
                f"expected {replicas}"
            )
        for r in range(replicas):
            cols[r].append(row[r])
    return cols


def replay_trace(source: Union[str, Path, Iterable[dict]]) -> ReplayResult:
    """Reconstruct trajectories + verdicts from a trace (path or records).

    Replays the run of the first ``run_start`` event: its initial
    boundary state, then the ``step`` events of the same span; re-runs
    the engine's conservation check and
    :func:`repro.core.stability.assess_stability` on the result.
    """
    from repro.core.stability import assess_stability
    from repro.network.state import Trajectory

    records = read_trace(source)
    starts = _events(records, "run_start")
    if not starts:
        raise ObservabilityError("trace has no run_start event — nothing to replay")
    run = (starts[0].get("trace_id"), starts[0].get("span_id"))
    steps = [r["attrs"] for r in _events(records, "step")
             if (r.get("trace_id"), r.get("span_id")) == run]
    if not steps:
        raise ObservabilityError("trace has no step events — nothing to replay")
    steps.sort(key=lambda r: r["t"])
    start = starts[0]["attrs"]

    n = int(start["n"])
    backend = start.get("backend", "scalar")
    batched = isinstance(steps[0]["injected"], list)

    if not batched:
        traj = Trajectory.from_series(
            n,
            potentials=[start["potential0"]] + [r["potential"] for r in steps],
            total_queued=[start["total_queued0"]] + [r["total_queued"] for r in steps],
            max_queues=[start["max_queue0"]] + [r["max_queue"] for r in steps],
            injected=[r["injected"] for r in steps],
            transmitted=[r["transmitted"] for r in steps],
            lost=[r["lost"] for r in steps],
            delivered=[r["delivered"] for r in steps],
        )
        traj.check_conservation()
        return ReplayResult(
            backend=backend,
            trajectories=(traj,),
            verdicts=(assess_stability(traj),),
        )

    replicas = len(steps[0]["injected"])
    per_field = {
        field: _columns(steps, field, replicas)
        for field in ("potential", "total_queued", "max_queue",
                      "injected", "transmitted", "lost", "delivered")
    }
    trajectories, verdicts = [], []
    for r in range(replicas):
        traj = Trajectory.from_series(
            n,
            potentials=[start["potential0"][r]] + per_field["potential"][r],
            total_queued=[start["total_queued0"][r]] + per_field["total_queued"][r],
            max_queues=[start["max_queue0"][r]] + per_field["max_queue"][r],
            injected=per_field["injected"][r],
            transmitted=per_field["transmitted"][r],
            lost=per_field["lost"][r],
            delivered=per_field["delivered"][r],
        )
        traj.check_conservation()
        trajectories.append(traj)
        verdicts.append(assess_stability(traj))
    return ReplayResult(
        backend=backend,
        trajectories=tuple(trajectories),
        verdicts=tuple(verdicts),
    )
