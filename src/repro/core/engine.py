"""The synchronous simulation engine (Section II's network semantics).

One step of the S-D-network, in the paper's order:

1. *(dynamic topology hook)* apply the topology schedule, if any;
2. **injection** — each source adds its packets (exactly ``in(s)`` in the
   classical model; anything in ``[0, in(s)]`` for pseudo-sources, decided
   by the arrival process);
3. **revelation** — R-generalized terminals declare queue lengths per
   Definition 7(ii);
4. **transmission** — the policy (LGG by default) selects ``E_t``; the
   engine validates sender budgets, enforces link capacity, applies the
   interference model (Conjecture 5) and the loss model ("this packet can
   be lost without any notification"): every selected packet leaves its
   sender, only surviving ones reach their receiver;
5. **extraction** — sinks remove packets (``min(out(d), q)`` classically;
   at least ``min(out, q - R)`` and at most ``out`` when R-generalized).

These semantics live once, as the stage objects of
:mod:`repro.core.pipeline`, run over an ``(R, n)`` queue matrix by
:class:`Engine`.  :class:`Simulator` is that engine at ``R = 1`` with the
single-run views its callers use (``queues``, ``rng``, ``trajectory``,
``step() -> StepStats``); :class:`~repro.core.ensemble.EnsembleSimulator`
is the same engine for ``R`` replicas.  Classical runs that qualify are
carried by the integer kernel of :mod:`repro.core.fastpath` instead.

Queue snapshots are taken at step *boundaries* (after extraction, before
the next injection); ``P_t`` and all Lyapunov certificates use those
boundary snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro._rng import SeedLike, as_generator
from repro.core import fastpath
from repro.core.lgg_fast import HalfEdges
from repro.core.pipeline import (
    DEFAULT_PIPELINE,
    ExtractionMode,
    LinkCapacityMode,
    StagePipeline,
    StageTiming,
    StepEvents,
    StepState,
)
from repro.core.policies import LGGPolicy, TransmissionPolicy
from repro.core.stability import StabilityVerdict, assess_stability
from repro.core.tiebreak import TieBreak
from repro.errors import ObservabilityError, SimulationError
from repro.obs.spans import span
from repro.obs.trace import _fingerprint_value, config_fingerprint, resolve_sink
from repro.network.spec import NetworkSpec
from repro.network.state import History, StepStats, Trajectory

__all__ = [
    "ExtractionMode",
    "LinkCapacityMode",
    "SimulationConfig",
    "StepEvents",
    "SimulationResult",
    "Simulator",
    "simulate_lgg",
]


@dataclass
class SimulationConfig:
    """Knobs of a simulation run.  ``None`` components mean their identity
    behaviour (full deterministic injection, no losses, no interference,
    static topology)."""

    horizon: int = 1000
    seed: SeedLike = None
    tiebreak: TieBreak = TieBreak.QUEUE_THEN_ID
    extraction: ExtractionMode = ExtractionMode.GREEDY
    link_capacity: LinkCapacityMode = LinkCapacityMode.PER_LINK
    record_queues: bool = False
    arrivals: Optional[object] = None       # ArrivalProcess
    losses: Optional[object] = None         # LossModel
    interference: Optional[object] = None   # InterferenceModel
    topology: Optional[object] = None       # TopologySchedule
    validate_every_step: bool = False       # re-check invariants per step (tests)
    record_events: bool = False             # keep per-step StepEvents (Lyapunov analysis)
    activation_prob: float = 1.0            # P(node participates as sender per step);
                                            # < 1 models asynchronous / duty-cycled nodes
    profile_stages: bool = False            # accumulate per-stage wall-clock timings
    trace: Optional[object] = None          # TraceSink for this run's sim.run span
                                            # and its run_start/step/run_end events
                                            # (None → the inherited span sink, no
                                            # events)
    numeric_fastpath: Optional[bool] = None  # integer LGG kernel: None = auto
                                             # (use when eligible), False = always
                                             # run the stage pipeline, True =
                                             # require the kernel (raise if the
                                             # run is not eligible)


@dataclass
class SimulationResult:
    """Outcome of a run: the trajectory plus the stability verdict."""

    spec: NetworkSpec
    config: SimulationConfig
    trajectory: Trajectory
    final_queues: np.ndarray
    verdict: StabilityVerdict

    @property
    def delivered(self) -> int:
        return self.trajectory.cumulative("delivered")

    @property
    def lost(self) -> int:
        return self.trajectory.cumulative("lost")


class Engine:
    """The step engine: ``R`` independent runs of one network in lockstep.

    Holds the ``(R, n)`` queue matrix ``Q``, one generator per replica
    (``rngs``), the policy, the :class:`~repro.network.state.History` and
    the stage pipeline.  Subclasses choose ``R`` and the result type:
    :class:`Simulator` (``R = 1``, backend ``"scalar"``) and
    :class:`~repro.core.ensemble.EnsembleSimulator` (backend
    ``"batched"``).
    """

    pipeline: StagePipeline = DEFAULT_PIPELINE
    backend = "batched"
    _hooked = False  # True when a subclass overrides the packet hooks

    def __init__(
        self,
        spec: NetworkSpec,
        config: SimulationConfig,
        Q: np.ndarray,
        rngs: list,
        *,
        policy: Optional[TransmissionPolicy] = None,
        arrivals=None,
        losses=None,
    ) -> None:
        if not (0.0 <= config.activation_prob <= 1.0):
            raise SimulationError(
                f"activation_prob must be in [0, 1], got {config.activation_prob}"
            )
        if (Q < 0).any():
            raise SimulationError("initial queue lengths must be non-negative")
        self.spec = spec
        self.config = config
        self.Q = Q
        self.R = Q.shape[0]
        self.rngs = rngs
        self.t = 0
        self.policy: TransmissionPolicy = (
            policy if policy is not None else LGGPolicy(tiebreak=config.tiebreak)
        )
        self.arrivals = arrivals
        self.losses = losses
        self.interference = config.interference
        self.topology = config.topology
        # the built-in LGG policy runs as the vectorized kernel; any other
        # policy is asked through policy.select
        self._lgg = type(self.policy) is LGGPolicy and not self.policy.use_reference

        self._in_vec = spec.in_vector()
        self._out_vec = spec.out_vector()
        self._terminal_mask = np.zeros(spec.n, dtype=bool)
        for v in spec.terminals:
            self._terminal_mask[v] = True
        self._row = np.arange(self.R)[:, None]
        self._half = HalfEdges.from_graph(spec.graph)
        self.history = History(Q, record_queues=config.record_queues)
        self.events: list[StepEvents] = []
        self.stage_timings: dict[str, StageTiming] = {}
        # the run's own trace sink, or None: sim.run then opens on the
        # inherited span sink and no events are written
        self.trace = resolve_sink(config.trace, "SimulationConfig.trace",
                                  paths=False)
        # the sim.run span while a traced run() is stepping; the recording
        # stage emits each step's event on it
        self._event_span = None

    def _out(self, values):
        """A per-replica array as an event reports it: a single run's
        value, or the per-replica list of an ensemble."""
        values = values.tolist()
        return values[0] if self.backend == "scalar" else values

    # ------------------------------------------------------------------
    def _step(self) -> StepState:
        st = StepState(t=self.t)
        if self.config.record_events:
            st.q_start = self.Q[0].copy()
        return self.pipeline.run(
            self, st,
            timings=self.stage_timings if self.config.profile_stages else None,
        )

    def run(self, horizon: Optional[int] = None):
        """Advance ``horizon`` steps (default from config) and assess.

        With ``config.trace`` enabled the ``sim.run`` span carries a
        ``run_start`` event (config fingerprint, seed, boundary state at
        t = 0), one ``step`` event per step and a ``run_end`` event
        (outcome).
        """
        steps = self.config.horizon if horizon is None else horizon
        single = self.backend == "scalar"
        attrs = {"backend": self.backend, "steps": steps, "n": self.spec.n}
        if not single:
            attrs["replicas"] = self.R
        traced = self.trace is not None and self.trace.enabled
        with span("sim.run", sink=self.trace, **attrs) as sp:
            if traced:
                fingerprint = config_fingerprint(self.config)
                pot, total, mx = self.history.boundary()
                sp.event(
                    "run_start",
                    backend=self.backend,
                    fingerprint=fingerprint,
                    # a batched run's identity lives in its per-replica seeds
                    seed=_fingerprint_value(self.config.seed) if single else None,
                    n=self.spec.n,
                    replicas=self.R,
                    potential0=self._out(pot),
                    total_queued0=self._out(total),
                    max_queue0=self._out(mx),
                )
                self._event_span = sp
            try:
                if not fastpath.maybe_run(self, steps):
                    for _ in range(steps):
                        self._step()
            finally:
                self._event_span = None
            result = self.result()
            if traced:
                verdicts = [result.verdict] if single else result.verdicts
                bounded = np.array([v.bounded for v in verdicts], dtype=bool)
                sp.event(
                    "run_end",
                    fingerprint=fingerprint,
                    steps=steps,
                    bounded=self._out(bounded),
                    outcome=self._out(np.where(bounded, "bounded", "divergent")),
                )
        return result

    def profile_report(self) -> str:
        """Per-stage timing table (needs ``profile_stages=True``)."""
        from repro.obs.profile import profile_report

        if not self.stage_timings:
            raise ObservabilityError(
                "no stage timings recorded — run with "
                "SimulationConfig(profile_stages=True)"
            )
        return profile_report(self.stage_timings, stage_order=self.pipeline.names)


class Simulator(Engine):
    """Reusable stepping simulator for one network spec: the ``R = 1`` engine.

    Each :meth:`step` runs the stage pipeline
    (:data:`repro.core.pipeline.DEFAULT_PIPELINE`) over a ``(1, n)`` queue
    matrix; :attr:`queues` is its row and :attr:`rng` its generator.

    >>> from repro.graphs import generators
    >>> from repro.network import NetworkSpec
    >>> g, s, d = generators.bottleneck_gadget(2, 2, 2)
    >>> spec = NetworkSpec.classical(g, {v: 1 for v in s}, {v: 1 for v in d})
    >>> sim = Simulator(spec)
    >>> result = sim.run(200)
    >>> result.verdict.bounded
    True
    """

    backend = "scalar"

    def __init__(
        self,
        spec: NetworkSpec,
        policy: Optional[TransmissionPolicy] = None,
        config: Optional[SimulationConfig] = None,
        *,
        initial_queues: Optional[np.ndarray] = None,
    ) -> None:
        config = config or SimulationConfig()
        Q = np.zeros((1, spec.n), dtype=np.int64)
        if initial_queues is not None:
            q = np.asarray(initial_queues, dtype=np.int64)
            if q.shape != (spec.n,):
                raise SimulationError(
                    f"initial_queues shape {q.shape} != ({spec.n},)"
                )
            Q[0] = q
        super().__init__(
            spec, config, Q, [as_generator(config.seed)],
            policy=policy, arrivals=config.arrivals, losses=config.losses,
        )
        cls = type(self)
        self._hooked = any(
            getattr(cls, hook) is not getattr(Simulator, hook)
            for hook in ("_on_inject", "_on_transmit", "_on_extract")
        )

    @property
    def queues(self) -> np.ndarray:
        """The ``(n,)`` queue vector (a view of row 0)."""
        return self.Q[0]

    @property
    def rng(self) -> np.random.Generator:
        return self.rngs[0]

    @property
    def trajectory(self) -> Trajectory:
        """The run so far, materialised from the history."""
        return self.history.trajectory(0)

    def step(self) -> StepStats:
        """Execute one synchronous network step; returns its statistics."""
        st = self._step()
        pot, total, mx = self.history.boundary()
        return StepStats(
            t=self.t,
            injected=int(st.injected[0]),
            transmitted=int(st.transmitted[0]),
            lost=int(st.lost[0]),
            delivered=int(st.delivered[0]),
            potential=int(pot[0]),
            total_queued=int(total[0]),
            max_queue=int(mx[0]),
        )

    def result(self) -> SimulationResult:
        trajectory = self.trajectory
        trajectory.check_conservation()
        return SimulationResult(
            spec=self.spec,
            config=self.config,
            trajectory=trajectory,
            final_queues=self.queues.copy(),
            verdict=assess_stability(trajectory),
        )

    # ------------------------------------------------------------------
    # hooks for packet-level subclasses: each receives replica 0's arrays
    # (the queues are already updated when it fires; overrides mirror the
    # change on richer state)
    # ------------------------------------------------------------------
    def _on_inject(self, injections: np.ndarray) -> None:  # noqa: B027
        pass

    def _on_transmit(self, senders: np.ndarray, receivers: np.ndarray,
                     lost_mask: np.ndarray) -> None:  # noqa: B027
        pass

    def _on_extract(self, extractions: np.ndarray) -> None:  # noqa: B027
        pass


def simulate_lgg(
    spec: NetworkSpec,
    horizon: int = 1000,
    seed: SeedLike = None,
    *,
    tiebreak: TieBreak = TieBreak.QUEUE_THEN_ID,
    initial_queues: Optional[np.ndarray] = None,
    **config_kwargs,
) -> SimulationResult:
    """One-call convenience: run LGG on ``spec`` and return the result."""
    cfg = SimulationConfig(horizon=horizon, seed=seed, tiebreak=tiebreak, **config_kwargs)
    sim = Simulator(spec, config=cfg, initial_queues=initial_queues)
    return sim.run()
