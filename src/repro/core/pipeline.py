"""The composable step pipeline: Section II's synchronous step, once.

Each phase of a step (inject → reveal → transmit → lose → extract) is a
small :class:`Stage` object with one entry point, ``run(host, st)``, over
the host engine's ``(R, n)`` queue matrix of ``R`` independent replicas.
:class:`~repro.core.ensemble.EnsembleSimulator` runs it for ``R``
replicas; :class:`~repro.core.engine.Simulator` (and its packet-level
subclass) is the ``R = 1`` case.

The stage order is fixed by :data:`DEFAULT_PIPELINE`::

    topology → injection → revelation → selection → activation →
    budget → link-capacity → interference → loss → application →
    extraction → recording

Draw order
----------
Every replica owns one generator, and each stochastic stage draws from
replica ``r``'s generator with the same numpy calls, in the same order,
behind the same guards ("only draw when there is something to
randomise") whatever ``R`` is.  A run of ``R`` replicas seeded
``seeds=[s_0, …, s_{R-1}]`` is therefore *bit-identical*, per replica, to
``R`` single runs seeded ``s_r`` — for every extraction mode, revelation
policy, loss model, tie-break strategy and ``activation_prob``.  The
differential matrix in ``tests/core/test_pipeline.py`` checks both
against a per-node reference stepper (``tests/core/reference_step.py``).

Per-stage instrumentation
-------------------------
``StagePipeline.run`` accepts an optional timing sink: a dict mapping
stage name → :class:`StageTiming` accumulated across steps.  Enable it
with ``SimulationConfig(profile_stages=True)``; the host then exposes the
sink as ``.stage_timings``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from time import perf_counter
from typing import Optional

import numpy as np

from repro.core.lgg_fast import HalfEdges, lgg_select_fast_batched
from repro.core.policies import StepContext
from repro.errors import SimulationError, SpecError
from repro.network.spec import RevelationPolicy

__all__ = [
    "ExtractionMode",
    "LinkCapacityMode",
    "StepEvents",
    "StepState",
    "StageTiming",
    "Stage",
    "StagePipeline",
    "DEFAULT_PIPELINE",
    "STAGE_NAMES",
    "link_capacity_keep",
]


class ExtractionMode(Enum):
    """How much an R-generalized destination extracts (within Def. 7's band).

    * ``GREEDY`` — extract ``min(out, q)``: the classical sink behaviour,
      and the most helpful compliant choice.
    * ``MANDATORY_MINIMUM`` — extract only ``min(out, max(q - R, 0))``: the
      least helpful compliant choice; stability must survive it.
    * ``RANDOM`` — uniform between the two bounds each step.

    For ``R = 0`` all three coincide with the classical ``min(out, q)``.
    """

    GREEDY = "greedy"
    MANDATORY_MINIMUM = "mandatory_minimum"
    RANDOM = "random"


class LinkCapacityMode(Enum):
    """Per-step capacity of an undirected link.

    The paper says "each link can transmit at most 1 packet"; with truthful
    revelation LGG can never select both directions (the gradient test is
    strict), but lying terminals can.  ``PER_LINK`` (default, the paper's
    model) keeps only the stronger-gradient direction; ``PER_DIRECTION``
    allows one packet each way (a common relaxation, exposed for ablation).
    """

    PER_LINK = "per_link"
    PER_DIRECTION = "per_direction"


@dataclass(frozen=True)
class StepEvents:
    """Full per-step event record (opt-in via ``record_events``).

    ``q_start`` is the boundary snapshot *before* injection; the Lyapunov
    decomposition of Eq. (3) is recomputable from these fields alone.
    """

    t: int
    q_start: np.ndarray
    injections: np.ndarray
    edge_ids: np.ndarray
    senders: np.ndarray
    receivers: np.ndarray
    lost_mask: np.ndarray
    extractions: np.ndarray


_EMPTY = np.empty((1, 0), dtype=np.int64)
_EMPTY_BOOL = np.empty((1, 0), dtype=bool)


@dataclass
class StepState:
    """Per-step working state passed through the pipeline.

    The *contract* between stages: each stage reads the fields earlier
    stages filled and writes its own.  ``R`` replicas, ``n`` nodes and
    ``K`` candidate transmissions per replica:

    ===================  ===================================================
    ``q_start``          ``(n,)`` replica 0 before injection (event records)
    ``injections``       ``(R, n)``, or the ``(1, n)`` broadcast row
    ``revealed``         ``(R, n)`` declared queue lengths
    ``eids/snd/rcv``     ``(R, K)`` candidates; restricted to ``sel_mask``,
                         row ``r`` lists replica ``r``'s transmissions in
                         selection order (sender, revealed queue, tie key)
    ``sel_mask``         ``(R, K)`` bool, narrowed by the filtering stages
    ``lost_mask``        ``(R, K)`` bool (⊆ ``sel_mask``)
    ``extractions``      ``(R, n)``
    counters             ``(R,)`` int64
    ===================  ===================================================

    Stochastic stages walk row ``r`` in that order, which is what keeps a
    replica's draws independent of ``R``.
    """

    t: int
    q_start: Optional[np.ndarray] = None
    injections: np.ndarray = field(default_factory=lambda: _EMPTY)
    revealed: np.ndarray = field(default_factory=lambda: _EMPTY)
    eids: np.ndarray = field(default_factory=lambda: _EMPTY)
    snd: np.ndarray = field(default_factory=lambda: _EMPTY)
    rcv: np.ndarray = field(default_factory=lambda: _EMPTY)
    sel_mask: np.ndarray = field(default_factory=lambda: _EMPTY_BOOL)
    lost_mask: np.ndarray = field(default_factory=lambda: _EMPTY_BOOL)
    extractions: np.ndarray = field(default_factory=lambda: _EMPTY)
    injected: Optional[np.ndarray] = None
    transmitted: Optional[np.ndarray] = None
    lost: Optional[np.ndarray] = None
    delivered: Optional[np.ndarray] = None


@dataclass
class StageTiming:
    """Accumulated wall-clock cost of one stage across steps."""

    calls: int = 0
    seconds: float = 0.0

    @property
    def mean_us(self) -> float:
        return 1e6 * self.seconds / self.calls if self.calls else 0.0


def link_capacity_keep(
    eids: np.ndarray,
    snd: np.ndarray,
    rcv: np.ndarray,
    q: np.ndarray,
    mode: LinkCapacityMode,
) -> np.ndarray:
    """Keep-mask enforcing per-link (or per-direction) unit capacity.

    Conflict resolution: keep the transmission with the larger sender
    queue (stronger gradient), tie-broken by lower sender id.  Purely
    deterministic — safe to skip when a conflict is provably impossible.
    """
    keep = np.ones(len(eids), dtype=bool)
    if len(eids) == 0:
        return keep
    if mode is LinkCapacityMode.PER_DIRECTION:
        key = eids * 2 + (snd < rcv)
    else:
        key = eids
    uniq, counts = np.unique(key, return_counts=True)
    if (counts == 1).all():
        return keep
    order = np.lexsort((snd, -q[snd], key))
    keep_sorted = np.ones(len(order), dtype=bool)
    key_sorted = key[order]
    keep_sorted[1:] = key_sorted[1:] != key_sorted[:-1]
    keep = np.zeros(len(order), dtype=bool)
    keep[order[keep_sorted]] = True
    return keep


# ----------------------------------------------------------------------
# stages
# ----------------------------------------------------------------------
class Stage:
    """One phase of a synchronous step over the host's ``(R, n)`` state.

    ``host`` is the owning engine (:class:`~repro.core.engine.Simulator`
    or :class:`~repro.core.ensemble.EnsembleSimulator`).  Stages are
    stateless; all per-step state lives in the :class:`StepState`, all
    run-long state on the host.
    """

    name: str = "stage"

    def run(self, host, st: StepState) -> None:
        raise NotImplementedError(self.name)


class TopologyStage(Stage):
    """Apply the dynamic-topology schedule, if any."""

    name = "topology"

    def run(self, host, st: StepState) -> None:
        if host.topology is not None and host.topology.apply(host.spec.graph, st.t):
            # new half-edges come with their own selection-kernel constants
            host._half = HalfEdges.from_graph(host.spec.graph)
            host.policy.on_topology_change(host.spec, host._half)


class InjectionStage(Stage):
    """Sources add packets: exactly ``in(s)`` classically, anything in
    ``[0, in(s)]`` for pseudo-sources (decided by the arrival process)."""

    name = "injection"

    def run(self, host, st: StepState) -> None:
        arr = host.arrivals
        if arr is None:
            # classical exact injection: a broadcast, no validation needed
            host.Q += host._in_vec
            st.injections = host._in_vec[None, :]
            st.injected = np.full(host.R, host._in_vec.sum(), dtype=np.int64)
        else:
            n = host.spec.n
            if not isinstance(arr, list) and hasattr(arr, "sample_batch"):
                inj = np.asarray(arr.sample_batch(st.t, host.rngs), dtype=np.int64)
                self._check_shape(inj.shape, (host.R, n))
            else:
                procs = arr if isinstance(arr, list) else [arr] * host.R
                rows = [np.asarray(a.sample(st.t, g), dtype=np.int64)
                        for a, g in zip(procs, host.rngs)]
                for row in rows:
                    self._check_shape(row.shape, (n,))
                inj = np.stack(rows)
            self._validate(host.spec, inj, host._in_vec)
            host.Q += inj
            st.injections = inj
            st.injected = inj.sum(axis=1)
        if host._hooked:
            host._on_inject(st.injections[0])

    @staticmethod
    def _check_shape(got, want) -> None:
        if got != want:
            raise SimulationError(f"arrival process returned shape {got}")

    @staticmethod
    def _validate(spec, inj, in_vec) -> None:
        if (inj < 0).any():
            raise SimulationError("arrival process injected negative packets")
        if (inj > in_vec).any():
            raise SimulationError("arrival process exceeded in(v) for some node")
        if spec.exact_injection and not (inj == in_vec).all():
            raise SimulationError(
                "classical S-D-network requires exact injection in(s) per step; "
                "use NetworkSpec.generalized for pseudo-sources"
            )


class RevelationStage(Stage):
    """R-generalized terminals declare queue lengths per Definition 7(ii)."""

    name = "revelation"

    def run(self, host, st: StepState) -> None:
        spec, Q = host.spec, host.Q
        pol, ret = spec.revelation, spec.retention
        if pol is RevelationPolicy.TRUTHFUL or ret == 0:
            st.revealed = Q
            return
        revealed = Q.copy()
        liars = host._terminal_mask[None, :] & (Q <= ret)
        if pol is RevelationPolicy.ALWAYS_R:
            revealed[liars] = ret
        elif pol is RevelationPolicy.ZERO:
            revealed[liars] = 0
        elif pol is RevelationPolicy.RANDOM:
            for r in range(host.R):
                idx = np.nonzero(liars[r])[0]
                if len(idx):  # no liars, no draw
                    revealed[r, idx] = host.rngs[r].integers(0, ret + 1, size=len(idx))
        else:  # pragma: no cover - enum is closed
            raise SpecError(f"unknown revelation policy {pol!r}")
        st.revealed = revealed


class SelectionStage(Stage):
    """The transmission policy picks ``E_t`` (Algorithm 1 by default).

    The built-in LGG policy runs as one vectorized kernel over all rows;
    any other policy is asked row by row and its answers are padded into
    ``(R, K)`` arrays with a mask.
    """

    name = "selection"

    def run(self, host, st: StepState) -> None:
        if host._lgg:
            st.eids, st.snd, st.rcv, st.sel_mask = lgg_select_fast_batched(
                host._half, host.Q, st.revealed,
                tiebreak=host.policy.tiebreak, rngs=host.rngs,
            )
            return
        picks = []
        for r in range(host.R):
            ctx = StepContext(
                spec=host.spec, half=host._half, queues=host.Q[r],
                revealed=st.revealed[r], t=st.t, rng=host.rngs[r],
            )
            picks.append([np.asarray(a, dtype=np.int64) for a in host.policy.select(ctx)])
        K = max(len(eids) for eids, _, _ in picks)
        arrays = np.zeros((3, host.R, K), dtype=np.int64)
        st.sel_mask = np.zeros((host.R, K), dtype=bool)
        for r, pick in enumerate(picks):
            k = len(pick[0])
            for a, values in zip(arrays, pick):
                a[r, :k] = values
            st.sel_mask[r, :k] = True
        st.eids, st.snd, st.rcv = arrays


class ActivationStage(Stage):
    """Asynchronous operation: only awake nodes transmit this step."""

    name = "activation"

    def run(self, host, st: StepState) -> None:
        p_act = host.config.activation_prob
        if p_act >= 1.0:
            return
        n = host.spec.n
        for r in range(host.R):
            if not st.sel_mask[r].any():
                continue  # draw only when the row selected something
            awake = host.rngs[r].random(n) < p_act
            st.sel_mask[r] &= awake[st.snd[r]]


class BudgetStage(Stage):
    """Validate sender budgets — a policy may never send packets it lacks.

    The LGG kernel cannot overdraw (it sends on block ranks ``< q_u``), so
    only other policies are checked.
    """

    name = "budget"

    def run(self, host, st: StepState) -> None:
        if host._lgg or not st.sel_mask.any():
            return
        R, n = host.R, host.spec.n
        flat = (host._row * n + st.snd)[st.sel_mask]
        counts = np.bincount(flat, minlength=R * n).reshape(R, n)
        over = counts > host.Q
        if over.any():
            r, bad = (int(x[0]) for x in np.nonzero(over))
            raise SimulationError(
                f"policy overdrew node {bad}: {counts[r, bad]} sends > "
                f"queue {host.Q[r, bad]}"
            )


class LinkCapacityStage(Stage):
    """Enforce "each link can transmit at most 1 packet" (Section II)."""

    name = "link_capacity"

    def run(self, host, st: StepState) -> None:
        # LGG cannot contest a link under truthful revelation (the gradient
        # test is strict: q_u > q_v and q_v > q_u cannot both hold) nor
        # under PER_DIRECTION capacity (each directed half-edge is selected
        # at most once).  Only lying terminals with PER_LINK capacity, or
        # other policies, can.
        mode = host.config.link_capacity
        if host._lgg and (
            host.spec.revelation is RevelationPolicy.TRUTHFUL
            or mode is LinkCapacityMode.PER_DIRECTION
        ):
            return
        for r in range(host.R):
            idx = np.nonzero(st.sel_mask[r])[0]
            if len(idx) < 2:
                continue
            keep = link_capacity_keep(
                st.eids[r, idx], st.snd[r, idx], st.rcv[r, idx], host.Q[r], mode,
            )
            if not keep.all():
                st.sel_mask[r, idx[~keep]] = False


class InterferenceStage(Stage):
    """Apply the interference model (Conjecture 5), if any."""

    name = "interference"

    def run(self, host, st: StepState) -> None:
        if host.interference is None:
            return
        for r in range(host.R):
            idx = np.nonzero(st.sel_mask[r])[0]
            if len(idx):
                keep = host.interference.filter(
                    st.eids[r, idx], st.snd[r, idx], st.rcv[r, idx],
                    host.Q[r], st.revealed[r], host.rngs[r],
                )
                st.sel_mask[r, idx[~keep]] = False


class LossStage(Stage):
    """Sample in-transit losses ("this packet can be lost without any
    notification") over the surviving transmissions."""

    name = "loss"

    def run(self, host, st: StepState) -> None:
        mask = st.sel_mask
        st.transmitted = mask.sum(axis=1)
        models = host.losses
        if models is None or mask.shape[1] == 0:
            st.lost_mask = np.zeros_like(mask)
            st.lost = np.zeros(host.R, dtype=np.int64)
            return
        if not isinstance(models, list) and hasattr(models, "sample_batch"):
            lost = np.asarray(
                models.sample_batch(st.eids, st.snd, st.rcv, mask, st.t, host.rngs),
                dtype=bool,
            )
            if lost.shape != mask.shape:
                raise SimulationError("loss model returned a mask of wrong shape")
            lost &= mask
        else:
            lost = np.zeros_like(mask)
            for r in range(host.R):
                model = models[r] if isinstance(models, list) else models
                idx = np.nonzero(mask[r])[0]
                if len(idx) == 0:
                    continue  # nothing transmitted, no draw
                row = np.asarray(
                    model.sample(
                        st.eids[r, idx], st.snd[r, idx], st.rcv[r, idx],
                        st.t, host.rngs[r],
                    ),
                    dtype=bool,
                )
                if row.shape != (len(idx),):
                    raise SimulationError("loss model returned a mask of wrong shape")
                lost[r, idx[row]] = True
        st.lost_mask = lost
        st.lost = lost.sum(axis=1)


class ApplicationStage(Stage):
    """Apply transmissions: every sender pays; only survivors arrive."""

    name = "application"

    def run(self, host, st: StepState) -> None:
        mask = st.sel_mask
        if not mask.any():
            return
        R, n = host.R, host.spec.n
        idx_snd = (host._row * n + st.snd)[mask]
        host.Q -= np.bincount(idx_snd, minlength=R * n).reshape(R, n)
        arrived = mask & ~st.lost_mask
        if arrived.any():
            idx_rcv = (host._row * n + st.rcv)[arrived]
            host.Q += np.bincount(idx_rcv, minlength=R * n).reshape(R, n)
        if host._hooked and mask[0].any():
            m = mask[0]
            host._on_transmit(st.snd[0, m], st.rcv[0, m], st.lost_mask[0, m])


class ExtractionStage(Stage):
    """Sinks remove packets: ``min(out, q)`` classically; within Definition
    7's ``[min(out, q-R), out]`` band when R-generalized."""

    name = "extraction"

    def run(self, host, st: StepState) -> None:
        Q, out = host.Q, host._out_vec
        ret = host.spec.retention
        mode = host.config.extraction
        greedy = np.minimum(out, np.maximum(Q, 0))
        if mode is ExtractionMode.GREEDY or ret == 0:
            ext = greedy
        else:
            mandated = np.minimum(out, np.maximum(Q - ret, 0))
            if mode is ExtractionMode.MANDATORY_MINIMUM:
                ext = mandated
            elif mode is ExtractionMode.RANDOM:
                span = greedy - mandated
                ext = np.empty_like(mandated)
                for r in range(host.R):
                    # one unconditional draw per replica and step
                    extra = (
                        host.rngs[r].random(Q.shape[1]) * (span[r] + 1)
                    ).astype(np.int64)
                    ext[r] = mandated[r] + np.minimum(extra, span[r])
            else:  # pragma: no cover - enum is closed
                raise SpecError(f"unknown extraction mode {mode!r}")
        Q -= ext
        st.extractions = ext
        st.delivered = ext.sum(axis=1)
        if host._hooked:
            host._on_extract(ext[0])


class RecordingStage(Stage):
    """Book the step: invariants, event records, history rows, and the
    ``step`` event of a traced run."""

    name = "recording"

    def run(self, host, st: StepState) -> None:
        Q = host.Q
        if host.config.validate_every_step and (Q < 0).any():
            raise SimulationError("negative queue after step — engine invariant broken")
        if host.config.record_events:
            m = st.sel_mask[0]
            host.events.append(
                StepEvents(
                    t=st.t,
                    q_start=st.q_start,
                    injections=st.injections[0].copy(),
                    edge_ids=st.eids[0, m],
                    senders=st.snd[0, m],
                    receivers=st.rcv[0, m],
                    lost_mask=st.lost_mask[0, m],
                    extractions=st.extractions[0].copy(),
                )
            )
        host.t += 1
        host.history.append(Q, st.injected, st.transmitted, st.lost, st.delivered)
        sp = host._event_span
        if sp is not None:
            pot, total, mx = host.history.boundary()
            out = host._out
            sp.event(
                "step",
                t=st.t,
                injected=out(st.injected),
                transmitted=out(st.transmitted),
                lost=out(st.lost),
                delivered=out(st.delivered),
                potential=out(pot),
                total_queued=out(total),
                max_queue=out(mx),
                active_edges=out(self._distinct_edges(host, st)),
            )

    @staticmethod
    def _distinct_edges(host, st: StepState) -> np.ndarray:
        """Per replica, the number of distinct links that carried a packet."""
        slots = host._half.num_edge_slots
        carried = np.unique((host._row * slots + st.eids)[st.sel_mask])
        return np.bincount(carried // max(slots, 1), minlength=host.R)


# ----------------------------------------------------------------------
# the pipeline
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StagePipeline:
    """An ordered composition of stages; the whole step semantics."""

    stages: tuple[Stage, ...]

    def run(self, host, st: StepState, timings: Optional[dict] = None) -> StepState:
        """Execute every stage on ``st`` in order.

        ``timings`` (name → :class:`StageTiming`) opts into per-stage
        wall-clock accounting.
        """
        if timings is None:
            for stage in self.stages:
                stage.run(host, st)
            return st
        for stage in self.stages:
            tick = perf_counter()
            try:
                stage.run(host, st)
            finally:
                # book the (possibly partial) stage time even when the
                # stage raises: profiles from failed runs stay truthful
                timing = timings.setdefault(stage.name, StageTiming())
                timing.calls += 1
                timing.seconds += perf_counter() - tick
        return st

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.stages)


DEFAULT_PIPELINE = StagePipeline((
    TopologyStage(),
    InjectionStage(),
    RevelationStage(),
    SelectionStage(),
    ActivationStage(),
    BudgetStage(),
    LinkCapacityStage(),
    InterferenceStage(),
    LossStage(),
    ApplicationStage(),
    ExtractionStage(),
    RecordingStage(),
))

STAGE_NAMES = DEFAULT_PIPELINE.names
