"""Vectorized ensemble simulation: many independent replicas in one array.

Monte-Carlo experiments (Conjecture 3's "with high probability", the E17
confusion matrix, seed-sensitivity sweeps) re-run the same network dozens
of times.  :class:`EnsembleSimulator` is the step engine of
:mod:`repro.core.engine` for ``R`` replicas: it steps them as a single
``(R, n)`` queue matrix — one composite-key argsort per step for all
replicas' Algorithm 1 decisions — through the one stage pipeline
(:mod:`repro.core.pipeline`) that :class:`~repro.core.engine.Simulator`
runs at ``R = 1``.

It supports every :class:`~repro.core.pipeline.ExtractionMode`, lying
:class:`~repro.network.spec.RevelationPolicy` terminals,
``activation_prob < 1``, every tie-break strategy, arbitrary arrival
processes and loss models (via per-replica instances or the
``sample_batch`` protocol), and per-link capacity contention.  With more
than one replica it rejects interference models, dynamic topology and
per-step event records at construction, and it always runs LGG: those
are single-run features (:class:`~repro.core.engine.Simulator`).

Randomness is **per replica**: each replica owns an independent generator
(``seeds=[s_0, …]`` or spawned from ``seed``), and every stochastic stage
draws from it exactly as a single run would.  An ensemble run with
``seeds=[s_0, …, s_{R-1}]`` is bit-identical, per replica, to ``R``
:class:`~repro.core.engine.Simulator` runs seeded ``s_r`` — the
differential matrix in ``tests/core/test_pipeline.py`` checks both
against a per-node reference stepper across the whole knob product.

Stateful components (e.g. :class:`~repro.loss.models.GilbertElliottLoss`)
must not be shared across replicas: pass a *factory* (``lambda: model()``
/ ``lambda spec: process(spec)``) or a list of ``R`` instances.  A single
shared instance is fine for stateless models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro._rng import SeedLike, as_generator, spawn
from repro.core.engine import Engine, SimulationConfig, SimulationResult
from repro.core.stability import StabilityVerdict, assess_stability
from repro.errors import SimulationError
from repro.network.spec import NetworkSpec
from repro.network.state import Trajectory

__all__ = ["EnsembleResult", "EnsembleSimulator"]


@dataclass(frozen=True)
class EnsembleResult:
    """Outcome of an ensemble run.

    Per-step accounting lives in the ``*_series`` matrices (step × replica);
    the cumulative ``delivered`` / ``lost`` / ``injected`` / ``transmitted``
    properties mirror :class:`~repro.core.engine.SimulationResult`'s
    counters, one entry per replica, so analysis code can treat both result
    types uniformly — or call :meth:`replica` to get a replica's slice *as*
    a :class:`~repro.core.engine.SimulationResult`.
    """

    spec: NetworkSpec
    config: SimulationConfig
    total_queued: np.ndarray        # (T+1, R)
    potentials: np.ndarray          # (T+1, R) int64
    max_queues: np.ndarray          # (T+1, R)
    injected_series: np.ndarray     # (T, R)
    transmitted_series: np.ndarray  # (T, R)
    lost_series: np.ndarray         # (T, R)
    delivered_series: np.ndarray    # (T, R)
    final_queues: np.ndarray        # (R, n)
    verdicts: tuple[StabilityVerdict, ...]
    queue_history: Optional[np.ndarray] = field(default=None, repr=False)  # (T+1, R, n)

    @property
    def replicas(self) -> int:
        return self.total_queued.shape[1]

    @property
    def bounded_fraction(self) -> float:
        return sum(v.bounded for v in self.verdicts) / len(self.verdicts)

    # -- SimulationResult-style cumulative reporting, one entry per replica
    @property
    def delivered(self) -> np.ndarray:
        """Cumulative packets delivered per replica, ``(R,)`` int64."""
        return self.delivered_series.sum(axis=0).astype(np.int64)

    @property
    def lost(self) -> np.ndarray:
        """Cumulative packets lost in transit per replica, ``(R,)`` int64."""
        return self.lost_series.sum(axis=0).astype(np.int64)

    @property
    def injected(self) -> np.ndarray:
        """Cumulative packets injected per replica, ``(R,)`` int64."""
        return self.injected_series.sum(axis=0).astype(np.int64)

    @property
    def transmitted(self) -> np.ndarray:
        """Cumulative link transmissions per replica, ``(R,)`` int64."""
        return self.transmitted_series.sum(axis=0).astype(np.int64)

    # -- per-replica views ------------------------------------------------
    def trajectory(self, r: int) -> Trajectory:
        """Replica ``r``'s column materialised as a full trajectory."""
        return Trajectory.from_series(
            self.spec.n,
            potentials=self.potentials[:, r],
            total_queued=self.total_queued[:, r],
            max_queues=self.max_queues[:, r],
            injected=self.injected_series[:, r],
            transmitted=self.transmitted_series[:, r],
            lost=self.lost_series[:, r],
            delivered=self.delivered_series[:, r],
            queue_history=(
                None if self.queue_history is None else self.queue_history[:, r]
            ),
        )

    def replica(self, r: int) -> SimulationResult:
        """Replica ``r`` as a single-run result (for ``summarize`` etc.)."""
        return SimulationResult(
            spec=self.spec,
            config=self.config,
            trajectory=self.trajectory(r),
            final_queues=self.final_queues[r].copy(),
            verdict=self.verdicts[r],
        )


ProcessLike = Union[None, object, Sequence[object], Callable]


def _resolve_processes(given, spec: NetworkSpec, replicas: int, kind: str):
    """Normalise a process spec to ``None`` / single instance / list."""
    if given is None:
        return None
    if callable(given) and not hasattr(given, "sample"):
        try:
            return [given(spec) for _ in range(replicas)]
        except TypeError:
            return [given() for _ in range(replicas)]
    if isinstance(given, (list, tuple)):
        items = list(given)
        if len(items) != replicas:
            raise SimulationError(
                f"{kind} process list has {len(items)} entries for "
                f"{replicas} replicas"
            )
        return items
    return given


class EnsembleSimulator(Engine):
    """Run ``replicas`` independent copies of one LGG network in lockstep.

    Parameters
    ----------
    spec, replicas:
        The network and the ensemble width ``R``.
    seed / seeds:
        Either one master ``seed`` (per-replica generators are spawned
        from it) or an explicit ``seeds`` list of length ``R``.  With
        ``seeds=[s_0, …]`` replica ``r`` reproduces the
        ``Simulator`` run seeded ``s_r`` bit-for-bit.
    config:
        A full :class:`~repro.core.engine.SimulationConfig`; all knobs are
        honoured except ``seed`` (superseded by ``seed``/``seeds`` above)
        and, for more than one replica, interference / topology /
        record_events (rejected here).
    arrivals, losses:
        Override ``config``'s processes: a single (stateless) instance
        shared by all replicas, a list of ``R`` instances, or a factory
        (``callable`` taking the spec — or nothing — and returning a fresh
        instance per replica).
    loss_p, uniform_arrivals:
        Back-compat conveniences: i.i.d. Bernoulli losses and uniform
        ``[0, in(v)]`` injections.  Each conflicts with an explicit loss
        model / arrival process (argument or config) and raises.
    """

    def __init__(
        self,
        spec: NetworkSpec,
        replicas: int,
        *,
        seed: SeedLike = None,
        seeds: Optional[Sequence[SeedLike]] = None,
        config: Optional[SimulationConfig] = None,
        arrivals: ProcessLike = None,
        losses: ProcessLike = None,
        loss_p: float = 0.0,
        uniform_arrivals: bool = False,
        initial_queues: Optional[np.ndarray] = None,
    ) -> None:
        if replicas < 1:
            raise SimulationError(f"need >= 1 replica, got {replicas}")
        if not (0.0 <= loss_p <= 1.0):
            raise SimulationError(f"loss_p must be in [0, 1], got {loss_p}")
        if uniform_arrivals and spec.exact_injection:
            raise SimulationError(
                "uniform arrivals require a generalized spec (pseudo-sources)"
            )
        config = config or SimulationConfig()
        if replicas > 1:
            for name in ("interference", "topology"):
                if getattr(config, name) is not None:
                    raise SimulationError(
                        f"the batched backend does not support {name} models; "
                        "use the scalar Simulator"
                    )
            if config.record_events:
                raise SimulationError(
                    "per-step event records are scalar-only; use the Simulator"
                )
        arrivals = _pick("uniform_arrivals=True", uniform_arrivals, "arrivals",
                         arrivals, config.arrivals)
        losses = _pick(f"loss_p={loss_p}", loss_p > 0.0, "losses",
                       losses, config.losses)
        if uniform_arrivals:
            from repro.arrivals.stochastic import UniformArrivals

            arrivals = UniformArrivals(spec)  # stateless: safe to share
        if loss_p > 0.0:
            from repro.loss.models import BernoulliLoss

            losses = BernoulliLoss(loss_p)    # stateless: safe to share

        if seeds is not None:
            if len(seeds) != replicas:
                raise SimulationError(
                    f"seeds has {len(seeds)} entries for {replicas} replicas"
                )
            rngs = [as_generator(s) for s in seeds]
        else:
            rngs = spawn(seed, replicas)

        n = spec.n
        if initial_queues is not None:
            q0 = np.asarray(initial_queues, dtype=np.int64)
            if q0.shape == (n,):
                Q = np.tile(q0, (replicas, 1))
            elif q0.shape == (replicas, n):
                Q = q0.copy()
            else:
                raise SimulationError(
                    f"initial_queues shape {q0.shape} != ({n},) or ({replicas}, {n})"
                )
        else:
            Q = np.zeros((replicas, n), dtype=np.int64)

        super().__init__(
            spec, config, Q, rngs,
            arrivals=_resolve_processes(arrivals, spec, replicas, "arrival"),
            losses=_resolve_processes(losses, spec, replicas, "loss"),
        )

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance every replica by one synchronous network step."""
        self._step()

    def result(self) -> EnsembleResult:
        h = self.history
        verdicts = []
        for r in range(self.R):
            traj = h.trajectory(r)
            traj.check_conservation()
            verdicts.append(assess_stability(traj))
        return EnsembleResult(
            spec=self.spec,
            config=self.config,
            total_queued=h.series("total_queued"),
            potentials=h.series("potentials"),
            max_queues=h.series("max_queues"),
            injected_series=h.series("injected"),
            transmitted_series=h.series("transmitted"),
            lost_series=h.series("lost"),
            delivered_series=h.series("delivered"),
            final_queues=self.Q.copy(),
            verdicts=tuple(verdicts),
            queue_history=h.queue_history(),
        )


def _pick(flag_name: str, flag: bool, name: str, given, configured):
    """The explicit ``name`` process (argument, else config); raises when a
    back-compat ``flag`` would silently override it."""
    chosen = given if given is not None else configured
    if flag and chosen is not None:
        source = name if given is not None else f"config.{name}"
        raise SimulationError(f"pass either {flag_name} or {source}, not both")
    return chosen
