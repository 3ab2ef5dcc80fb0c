"""Sharded sweep execution: chunked process pools with a serial twin.

``run_sweep(grid, point_fn, workers=N)`` evaluates ``point_fn(params,
seed)`` at every :class:`~repro.sweep.grid.GridPoint` and returns the
records in grid order.  ``workers=0`` is the inline serial path — same
evaluation code, no processes, the mode to debug and to difference
against; ``workers >= 1`` shards the pending points into chunks over a
:class:`~concurrent.futures.ProcessPoolExecutor` and streams completed
chunks back as they finish.

Determinism contract: a point's record depends only on ``(params, seed)``
— seeds come from the grid, never from worker identity or scheduling — so
the result list is bit-identical across worker counts and completion
orders.  Records are canonicalized through a JSON round-trip at the point
of production, which makes in-memory results indistinguishable from
checkpoint-resumed ones (tuples become lists *before* anyone compares).

Crash safety: pass ``checkpoint=`` to append each completed point to a
JSONL log the moment it arrives; ``resume=True`` then skips the completed
prefix of a killed run (see :mod:`repro.sweep.checkpoint`).

``point_fn`` must be picklable for ``workers >= 1`` — a module-level
function, not a lambda or closure (:mod:`repro.sweep.points` hosts the
stock ones).
"""

from __future__ import annotations

import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional

from repro.errors import SweepError
from repro.obs.metrics import get_registry
from repro.obs.spans import span
from repro.obs.trace import resolve_sink
from repro.sweep.checkpoint import PathLike, SweepCheckpoint
from repro.sweep.checkpoint import resume as load_resume
from repro.sweep.grid import GridPoint, GridSpec

__all__ = ["PointRecord", "SweepRun", "run_sweep"]

PointFn = Callable[[dict, int], Mapping[str, Any]]


@dataclass(frozen=True)
class PointRecord:
    """One evaluated grid point: identity plus its (canonical-JSON) record."""

    index: int
    params: dict
    seed: int
    record: dict

    def row(self) -> dict:
        """Params and record merged into one flat dict (report tables)."""
        return {**self.params, **self.record}


@dataclass
class SweepRun:
    """Outcome of :func:`run_sweep`: all records, in grid order."""

    grid: GridSpec
    records: list[PointRecord]
    workers: int
    resumed: int          # points served from the checkpoint, not executed
    elapsed: float        # wall-clock seconds spent in run_sweep

    def rows(self) -> list[dict]:
        return [rec.row() for rec in self.records]


def _canonical(obj: Any) -> Any:
    """JSON round-trip so records equal their checkpoint-reloaded selves."""
    import json

    try:
        return json.loads(json.dumps(obj, sort_keys=True))
    except (TypeError, ValueError) as exc:
        raise SweepError(
            f"sweep records must be JSON-serializable: {exc}"
        ) from exc


def _evaluate(point_fn: PointFn, point: GridPoint) -> PointRecord:
    result = point_fn(dict(point.params), point.seed)
    return PointRecord(
        index=point.index,
        params=_canonical(dict(point.params)),
        seed=int(point.seed),
        record=_canonical(dict(result)),
    )


def _run_chunk(point_fn: PointFn, chunk: list[GridPoint]) -> list[PointRecord]:
    """Worker entry point: evaluate one shard of grid points."""
    return [_evaluate(point_fn, pt) for pt in chunk]


def _record_from_line(line: dict) -> PointRecord:
    return PointRecord(
        index=int(line["index"]),
        params=dict(line["params"]),
        seed=int(line["seed"]),
        record=dict(line["record"]),
    )


def _chunked(items: list, size: int) -> list[list]:
    return [items[i : i + size] for i in range(0, len(items), size)]


class _Telemetry:
    """Sweep-side observability: registry instruments + the progress line.

    The ``repro_sweep_*`` instruments live in the process-global
    :mod:`repro.obs` registry, which every sweep in the process feeds.
    Each sweep adds its pending points to the pending gauge at start and
    takes back what is left of them in :meth:`close`, so the gauge is the
    sum over running sweeps.  The progress line counts this sweep's own
    points, so two sweeps running at once never count each other's.
    """

    def __init__(self, grid: GridSpec, total: int, resumed: int,
                 progress: bool) -> None:
        self.reg = get_registry()
        self.total = total
        self.resumed = resumed
        self.progress = progress
        self.t0 = time.perf_counter()
        self._last_print = 0.0
        self._done = 0
        # held for the sweep's life, so what it adds it also takes back
        self._pending = self.reg.gauge(
            "repro_sweep_points_pending",
            "Grid points not yet completed in running sweeps.",
        )
        self._pending.inc(total - resumed)

    def chunk_done(self, points: int, seconds: float) -> None:
        self._done += points
        self._pending.dec(points)
        if self.reg.enabled:
            self.reg.counter(
                "repro_sweep_points_completed_total",
                "Sweep grid points evaluated (excludes checkpoint-resumed).",
            ).inc(points)
            self.reg.histogram(
                "repro_sweep_chunk_seconds",
                "Wall-clock latency of one sweep chunk (submit to commit).",
            ).observe(seconds)
        self.maybe_print()

    def close(self) -> None:
        """Take this sweep's points that never completed off the gauge."""
        self._pending.dec(self.total - self.resumed - self._done)

    def chunk_failed(self) -> None:
        if self.reg.enabled:
            self.reg.counter(
                "repro_sweep_chunk_failures_total",
                "Sweep chunks that raised before completing.",
            ).inc()

    def maybe_print(self, final: bool = False) -> None:
        if not self.progress:
            return
        now = time.perf_counter()
        if not final and now - self._last_print < 0.2:
            return
        self._last_print = now
        done = self._done
        elapsed = max(now - self.t0, 1e-9)
        rate = done / elapsed
        left = self.total - self.resumed - done
        eta = left / rate if rate > 0 else float("inf")
        line = (f"\rsweep: {done + self.resumed}/{self.total} points  "
                f"{rate:.1f}/s  eta {eta:.0f}s")
        from repro.sweep.cache import shared_cache

        cache = shared_cache()
        if cache.hits or cache.misses:
            line += f"  cache hit {cache.hit_rate:.0%}"
        sys.stderr.write(line + ("\n" if final else ""))
        sys.stderr.flush()


def run_sweep(
    grid: GridSpec,
    point_fn: PointFn,
    *,
    workers: int = 0,
    chunk_size: Optional[int] = None,
    checkpoint: Optional[PathLike] = None,
    resume: bool = False,
    trace: Optional[object] = None,
    progress: bool = False,
) -> SweepRun:
    """Evaluate ``point_fn`` over every point of ``grid``.

    Parameters
    ----------
    workers:
        ``0`` — inline serial execution (no processes, debugger-friendly).
        ``k >= 1`` — a pool of ``k`` worker processes.
    chunk_size:
        Points per pool task.  Defaults to roughly four chunks per worker,
        capped at 32 — small enough to stream and checkpoint frequently,
        large enough to amortize pickling.
    checkpoint:
        JSONL path; every completed point is appended and flushed
        immediately, making the sweep resumable after a crash or kill.
    resume:
        Load already-completed points from ``checkpoint`` and execute only
        the rest.  Without ``resume=True`` an existing non-empty
        checkpoint is an error (never silently mix two runs).
    trace:
        ``None`` — the ``sweep`` span (and one ``sweep.point`` child per
        serial point) goes to the inherited span sink, and no events are
        written; a path — trace this sweep to that JSONL file; a
        ``TraceSink`` — use it.  A traced sweep's spans, with everything
        nested in them, go to that sink, and the ``sweep`` span carries
        ``sweep_start`` / ``point_done`` / ``chunk_failed`` events (a
        failing chunk is announced *before* the exception unwinds the
        pool, so a dead sweep's trace names the culprit chunk; the
        ``sweep`` span record closes the stream, stamped ``error=`` on
        failure).
    progress:
        Print a live ``points done/total, rate, ETA, cache hit-rate``
        telemetry line to stderr, counting this sweep's own points.
    """
    if workers < 0:
        raise SweepError(f"workers must be >= 0, got {workers}")
    if chunk_size is not None and chunk_size < 1:
        raise SweepError(f"chunk_size must be >= 1, got {chunk_size}")

    t0 = time.perf_counter()
    done: dict[int, PointRecord] = {}
    if checkpoint is not None:
        import pathlib

        exists = pathlib.Path(checkpoint).exists() and (
            pathlib.Path(checkpoint).stat().st_size > 0
        )
        if exists and not resume:
            raise SweepError(
                f"checkpoint {checkpoint} already exists; pass resume=True "
                f"to continue it or remove the file to start over"
            )
        if exists:
            done = {
                idx: _record_from_line(line)
                for idx, line in load_resume(checkpoint, grid).items()
            }
    elif resume:
        raise SweepError("resume=True requires a checkpoint path")

    pending = [pt for pt in grid.points() if pt.index not in done]
    resumed = len(done)
    fingerprint = grid.fingerprint()
    sink = resolve_sink(trace, "trace")
    telemetry = _Telemetry(grid, len(grid), resumed, progress)
    writer = None
    traced_span = None  # the sweep span, when this sweep writes events

    def _commit(records: list[PointRecord]) -> None:
        for rec in records:
            done[rec.index] = rec
            if writer is not None:
                writer.append(rec.index, rec.params, rec.seed, rec.record)
            if traced_span is not None:
                traced_span.event("point_done", fingerprint=fingerprint,
                                  index=rec.index, seed=rec.seed)

    def _chunk_failed(chunk_index: int, exc: BaseException) -> None:
        # Announce the culprit before the exception unwinds the sweep:
        # a crashed run's trace ends with the chunk that killed it.
        telemetry.chunk_failed()
        if traced_span is not None:
            traced_span.event("chunk_failed", fingerprint=fingerprint,
                              chunk=chunk_index, error=repr(exc))

    try:
        if checkpoint is not None:
            writer = SweepCheckpoint(checkpoint, grid).open()
        with span("sweep", sink=sink, workers=workers, points=len(grid),
                  pending=len(pending), resumed=resumed) as sp:
            if sink is not None and sink.enabled:
                traced_span = sp
                sp.event("sweep_start", fingerprint=fingerprint,
                         points=len(grid), pending=len(pending),
                         resumed=resumed, workers=workers)
            if workers == 0 or not pending:
                for k, pt in enumerate(pending):
                    tick = time.perf_counter()
                    try:
                        with span("sweep.point", index=pt.index, seed=pt.seed):
                            records = [_evaluate(point_fn, pt)]
                    except BaseException as exc:
                        _chunk_failed(k, exc)
                        raise
                    _commit(records)
                    telemetry.chunk_done(1, time.perf_counter() - tick)
            else:
                if chunk_size is None:
                    per_worker = max(1, len(pending) // (workers * 4))
                    chunk_size = min(32, per_worker)
                chunks = _chunked(pending, chunk_size)
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    submit = time.perf_counter()
                    meta = {}  # future -> (chunk index, submit time)
                    for k, chunk in enumerate(chunks):
                        meta[pool.submit(_run_chunk, point_fn, chunk)] = (k, submit)
                    futures = set(meta)
                    try:
                        while futures:
                            finished, futures = wait(futures, return_when=FIRST_COMPLETED)
                            for fut in finished:
                                k, started = meta.pop(fut)
                                try:
                                    records = fut.result()
                                except BaseException as exc:
                                    _chunk_failed(k, exc)
                                    raise
                                _commit(records)
                                telemetry.chunk_done(
                                    len(records), time.perf_counter() - started
                                )
                    except BaseException:
                        for fut in futures:
                            fut.cancel()
                        raise
        telemetry.maybe_print(final=True)
    finally:
        telemetry.close()
        if writer is not None:
            writer.close()
        if sink is not None and sink is not trace:
            sink.close()  # a JsonlSink opened here for a path

    missing = len(grid) - len(done)
    if missing:
        raise SweepError(f"sweep incomplete: {missing} points missing")
    records = [done[i] for i in range(len(grid))]
    return SweepRun(
        grid=grid,
        records=records,
        workers=workers,
        resumed=resumed,
        elapsed=time.perf_counter() - t0,
    )
