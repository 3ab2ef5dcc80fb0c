"""Micro-batching coalescer: fold concurrent identical simulations into one
vectorized :class:`~repro.core.ensemble.EnsembleSimulator` batch.

The server's hot path.  ``/v1/simulate`` requests are keyed by a *config
fingerprint* — a digest of the raw network (node count, edge arrays in id
order, rate maps) plus every simulation knob **except the seed**.
Requests sharing a fingerprint that arrive within
``window`` seconds of the first one are held and then executed as a single
ensemble run whose per-replica seeds are the requests' seeds; replica
``r``'s slice is returned to request ``r``.

Correctness rests on the engine's replica guarantee (asserted in
``tests/core/test_pipeline.py``): an ensemble run with ``seeds=[s_0, …]``
is bit-identical, per replica, to single ``Simulator`` runs seeded
``s_r`` — both are one stage pipeline, at ``R`` replicas and at
``R = 1``.  So batching changes *when* work happens, never *what* any
caller gets back — :func:`direct_simulate`, one unbatched run, is what the
server's responses must (and do) match exactly.

The batch executes off the event loop as one ``simulate_batch`` task of
the server's compute tier — a :class:`~repro.serve.workers.WorkerPool`
process, or a :class:`~repro.serve.workers.ThreadTier` thread when the
server runs no worker processes; both run the same handler — and a batch
that fails delivers the same exception to every member rather than
hanging any of them.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from repro.core.engine import SimulationConfig, Simulator
from repro.errors import ServeError
from repro.network.spec import NetworkSpec
from repro.obs.metrics import get_registry
from repro.obs.spans import span
from repro.serve.codec import simulation_response

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.workers import ThreadTier, WorkerPool

__all__ = ["MicroBatcher", "direct_simulate"]

#: Batch-size histogram buckets: powers of two up to the default cap.
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)


def _simulation_config(horizon: int, loss_p: float, seed=None) -> SimulationConfig:
    losses = None
    if loss_p > 0.0:
        from repro.loss.models import BernoulliLoss

        losses = BernoulliLoss(loss_p)
    return SimulationConfig(horizon=horizon, seed=seed, losses=losses)


def direct_simulate(spec: NetworkSpec, horizon: int, seed: int,
                    loss_p: float = 0.0) -> dict:
    """One unbatched :class:`Simulator` run, rendered as the
    ``/v1/simulate`` response body (sans batch metadata)."""
    sim = Simulator(spec, config=_simulation_config(horizon, loss_p, seed=seed))
    return simulation_response(sim.run(horizon))


def _run_batch(spec: NetworkSpec, horizon: int, loss_p: float,
               seeds: list[int]) -> list[dict]:
    """The ``simulate_batch`` task: one ensemble run, one response dict
    per seed."""
    from repro.core.ensemble import EnsembleSimulator

    ens = EnsembleSimulator(
        spec, len(seeds), seeds=seeds,
        config=_simulation_config(horizon, loss_p),
    )
    result = ens.run(horizon)
    return [simulation_response(result.replica(r)) for r in range(len(seeds))]


class _Batch:
    """One pending coalescing window for a single fingerprint."""

    __slots__ = ("spec", "horizon", "loss_p", "seeds", "futures", "timer",
                 "seq", "traces")

    def __init__(self, spec: NetworkSpec, horizon: int, loss_p: float, seq: int):
        self.spec = spec
        self.horizon = horizon
        self.loss_p = loss_p
        self.seeds: list[int] = []
        self.futures: list[asyncio.Future] = []
        self.timer: Optional[asyncio.TimerHandle] = None
        self.seq = seq
        self.traces: list[Optional[tuple]] = []


class MicroBatcher:
    """Coalesce concurrent same-fingerprint simulations (asyncio side).

    Parameters
    ----------
    tier:
        Where batches run: the server's compute tier, a started
        :class:`~repro.serve.workers.WorkerPool` or a
        :class:`~repro.serve.workers.ThreadTier`.  Batches are submitted
        with their fingerprint as the shard key, so on a pool a hot
        config keeps hitting the same worker.
    window:
        Seconds the first request of a fingerprint waits for company.
        ``0`` disables coalescing (every request is a batch of one).
    max_batch:
        A full batch flushes immediately instead of waiting out the window.
    """

    def __init__(self, tier: Union["WorkerPool", "ThreadTier"], *,
                 window: float = 0.01, max_batch: int = 64) -> None:
        if window < 0:
            raise ServeError(f"window must be >= 0, got {window}",
                             status=500, error="bad-config")
        if max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {max_batch}",
                             status=500, error="bad-config")
        self.tier = tier
        self.window = window
        self.max_batch = max_batch
        self._pending: dict[str, _Batch] = {}
        self._seq = itertools.count(1)

    # ------------------------------------------------------------------
    @staticmethod
    def fingerprint(spec: NetworkSpec, horizon: int, loss_p: float) -> str:
        """Batch key: everything the ensemble shares — not the seed.

        The executed batch reuses member 0's spec for every replica, and
        LGG tie-breaking is defined over edge ids/slots, so the key hashes
        the node count, the raw edge arrays in id order and the rate maps
        — not the canonical key of :mod:`repro.sweep.cache`, which
        normalises insertion order and orientation away (right for
        classification) and costs far more on a large graph.  Requests
        share an ensemble only when their specs are structurally
        identical, so every member stays bit-identical to its own scalar
        oracle under any tie-break or per-edge loss model.
        """
        digest = hashlib.sha256(np.stack(spec.graph.edge_array()).tobytes())
        digest.update(repr((spec.n, sorted(spec.in_rates.items()),
                            sorted(spec.out_rates.items()))).encode())
        return (f"{digest.hexdigest()}:h={horizon}:loss={loss_p!r}"
                f":R={spec.retention}:rev={spec.revelation.value}"
                f":exact={spec.exact_injection}")

    async def simulate(self, spec: NetworkSpec, horizon: int, seed: int,
                       loss_p: float = 0.0,
                       trace: Optional[tuple] = None) -> dict:
        """Queue one request; resolves to its response dict after the batch
        it lands in executes.  ``trace`` is the requester's
        ``(trace_id, span_id)`` context: the executed batch's spans attach
        to the first traced member (a batch is one unit of work; its
        spans belong to one tree, not a copy per member)."""
        loop = asyncio.get_running_loop()
        key = self.fingerprint(spec, horizon, loss_p)
        batch = self._pending.get(key)
        if batch is None:
            batch = _Batch(spec, horizon, loss_p, next(self._seq))
            self._pending[key] = batch
            if self.window > 0:
                batch.timer = loop.call_later(
                    self.window, self._flush_soon, loop, key
                )
        future: asyncio.Future = loop.create_future()
        batch.seeds.append(seed)
        batch.futures.append(future)
        batch.traces.append(trace)
        if len(batch.seeds) >= self.max_batch or self.window <= 0:
            self._start_flush(loop, key)
        return await future

    # ------------------------------------------------------------------
    def _flush_soon(self, loop: asyncio.AbstractEventLoop, key: str) -> None:
        # timer callback: hop back into a task so the flush can await
        self._start_flush(loop, key)

    def _start_flush(self, loop: asyncio.AbstractEventLoop, key: str) -> None:
        batch = self._pending.pop(key, None)
        if batch is None:
            return  # already flushed (window raced a max_batch fill)
        if batch.timer is not None:
            batch.timer.cancel()
        loop.create_task(self._execute(key, batch))

    async def _execute(self, key: str, batch: _Batch) -> None:
        size = len(batch.seeds)
        reg = get_registry()
        if reg.enabled:
            reg.counter("repro_serve_batches_total",
                        "Ensemble batches executed by the micro-batcher.").inc()
            reg.counter("repro_serve_batched_requests_total",
                        "Simulate requests served through ensemble batches.",
                        ).inc(size)
            reg.histogram("repro_serve_batch_size",
                          "Coalesced requests per ensemble batch.",
                          buckets=BATCH_SIZE_BUCKETS).observe(size)
        trace_ctx = next((t for t in batch.traces if t is not None), None)
        try:
            with span("batch.exec", parent=trace_ctx, size=size,
                      seq=batch.seq) as sp:
                ctx = sp.context() if sp.span_id is not None else None
                responses = await asyncio.wrap_future(self.tier.submit(
                    "simulate_batch",
                    (batch.spec, batch.horizon, batch.loss_p, list(batch.seeds)),
                    shard_key=key, trace=ctx,
                ))
        except Exception as exc:  # deliver the failure to every member
            for fut in batch.futures:
                if not fut.done():
                    fut.set_exception(exc)
            return
        for index, (fut, response) in enumerate(zip(batch.futures, responses)):
            if not fut.done():
                response["batch"] = {"seq": batch.seq, "size": size, "index": index}
                fut.set_result(response)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Cancel pending windows; fail their members (server shutdown)."""
        for key in list(self._pending):
            batch = self._pending.pop(key)
            if batch.timer is not None:
                batch.timer.cancel()
            for fut in batch.futures:
                if not fut.done():
                    fut.set_exception(ServeError(
                        "server shutting down", status=503, error="shutdown",
                    ))
