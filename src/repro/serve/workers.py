"""The multi-process worker tier behind the asyncio frontend.

:class:`WorkerPool` owns ``N`` worker *processes* (spawn context — clean
interpreters, no inherited locks from the threaded server) and gives the
event loop real parallelism: micro-batches and classify requests are
pickled over a pipe, computed under a worker's own GIL, and fanned back
as plain dicts through :class:`concurrent.futures.Future`.

Design
------
* **One task in flight per worker.**  Each worker is driven by a parent-
  side manager thread running a synchronous send → recv loop.  Tasks are
  coarse (a whole ensemble batch, a whole classify), so per-worker
  pipelining would buy little and would complicate the exactly-once
  story; with a synchronous loop, a task is either answered or provably
  unanswered, never ambiguously both.
* **Fingerprint-range sharding.**  The :class:`~repro.sweep.cache.
  FeasibilityCache` is not shared memory; instead every worker owns a
  shard of the key space (:func:`repro.sweep.cache.shard_index`) and
  keeps a private cache for it.  Tasks submitted with a ``shard_key``
  are pinned to the owning worker, so repeated classifies of the same
  network always land where its entry lives — cache semantics match the
  single-process server exactly, without a manager process on the hot
  path.  A respawned worker restarts with a cold shard; that costs
  re-computation, never wrong answers.
* **Warm imports.**  A spawned interpreter imports nothing by default;
  workers import the simulation/flow/analysis stack *before* reporting
  ready, so the first request pays compute, not import latency.
* **Crash recovery.**  A worker death (SIGKILL, OOM, segfault) surfaces
  to its manager thread as EOF/broken pipe.  The in-flight task — if its
  result had not already been received — is requeued at the *front* of
  the worker's queue, the process is respawned, and
  ``repro_serve_worker_restarts_total`` is incremented.  Futures resolve
  exactly once; :attr:`WorkerPool.duplicate_results` counts (and tests
  assert zero) double deliveries.
* **Telemetry rides the reply.**  Each worker owns a private
  :mod:`repro.obs` registry; every task reply piggybacks a registry
  snapshot, and :meth:`WorkerPool.metrics_snapshots` answers a scrape by
  queueing a ``metrics_snapshot`` task at the *front* of every worker's
  queue (falling back to the last piggybacked snapshot if a worker is
  busy past the deadline).  When a worker dies, its predecessor's last
  snapshot is *banked* and added to its successor's — merged counters
  stay monotone across a SIGKILL, and only the single in-flight task's
  increments are re-earned by the retry.  Tasks submitted with a trace
  context likewise ship their span records back in the reply, so a
  request's span tree crosses the process boundary without a side
  channel.

The pool is deliberately asyncio-agnostic (futures + threads only) so it
can be driven from the server's event loop via ``asyncio.wrap_future``
and from plain test code alike.
"""

from __future__ import annotations

import collections
import itertools
import multiprocessing
import multiprocessing.connection
import threading
import time
from concurrent.futures import Future
from typing import Any, Optional

from repro.errors import ServeError
from repro.obs.merge import add_snapshots
from repro.obs.metrics import get_registry
from repro.obs.spans import get_span_sink, span
from repro.obs.trace import RingBufferSink
from repro.sweep.cache import FeasibilityCache, shard_index

__all__ = ["WorkerPool", "TASK_KINDS"]

#: Task kinds a worker knows how to execute, mapped to handler names.
TASK_KINDS = ("classify", "region", "simulate_batch", "ping", "metrics_snapshot")

_READY = "__ready__"
_STOP = None  # pipe sentinel: parent asks the worker to exit cleanly


# ----------------------------------------------------------------------
# worker-process side
# ----------------------------------------------------------------------
def _warm_imports() -> None:
    """Import the heavy stack once, before the worker reports ready."""
    import repro.analysis            # noqa: F401  (summarize)
    import repro.core.ensemble       # noqa: F401
    import repro.flow.feasibility    # noqa: F401
    import repro.serve.batching      # noqa: F401
    import repro.serve.codec         # noqa: F401


def _task_classify(cache: FeasibilityCache, spec, algorithm: str) -> tuple[dict, bool]:
    """Classify through this worker's shard cache → (response json, hit)."""
    from repro.serve.codec import report_to_json

    before = cache.hits
    report = cache.classify(spec, algorithm)
    return report_to_json(report), cache.hits > before


def _task_region(cache: FeasibilityCache, spec, direction,
                 algorithm: str) -> tuple[dict, bool]:
    """Exact region frontier through this worker's shard cache.

    ``direction is None`` means the nominal injection ray, where the
    response also carries the Definitions 3–4 classification block.
    """
    from repro.serve.codec import region_response

    before = cache.hits
    if direction is None:
        report = cache.region(spec, algorithm)
        body = region_response(report.envelope, report)
    else:
        envelope = cache.envelope(spec, direction, algorithm)
        body = region_response(envelope)
    return body, cache.hits > before


def _task_simulate_batch(_cache: FeasibilityCache, spec, horizon: int,
                         loss_p: float, seeds: list[int]) -> list[dict]:
    from repro.serve.batching import _run_batch

    return _run_batch(spec, horizon, loss_p, seeds)


def _task_ping(_cache: FeasibilityCache, payload: Any = None) -> Any:
    """Liveness / test probe; echoes its payload."""
    return payload


def _task_metrics_snapshot(_cache: FeasibilityCache) -> dict:
    """The scrape probe: this worker's registry, as a plain dict."""
    return get_registry().snapshot()


_HANDLERS = {
    "classify": _task_classify,
    "region": _task_region,
    "simulate_batch": _task_simulate_batch,
    "ping": _task_ping,
    "metrics_snapshot": _task_metrics_snapshot,
}


def _worker_main(conn: multiprocessing.connection.Connection,
                 cache_entries: Optional[int],
                 index: int = 0,
                 enable_metrics: bool = False) -> None:
    """Entry point of one worker process: warm up, then serve the pipe."""
    import signal

    # a terminal Ctrl-C signals the whole foreground process group; the
    # parent owns worker lifecycle (the _STOP sentinel, terminate()), so
    # workers ignoring SIGINT means shutdown is orderly instead of N
    # KeyboardInterrupt tracebacks racing the server's own teardown
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _warm_imports()
    registry = get_registry()
    registry.enabled = enable_metrics
    cache = FeasibilityCache(max_entries=cache_entries)
    conn.send((_READY, None, None))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return  # parent went away
        if message is _STOP or message is None:
            conn.close()
            return
        task_id, kind, args, trace_ctx = message
        handler = _HANDLERS.get(kind)
        collector: Optional[RingBufferSink] = None
        spans: list[dict] = []
        try:
            if handler is None:
                raise ServeError(f"worker got unknown task kind {kind!r}",
                                 status=500, error="internal")
            if trace_ctx is not None:
                # collect this task's spans locally (the worker span's
                # children inherit its sink); the reply ships them back
                # so the parent's ring sees one coherent trace
                collector = RingBufferSink(capacity=1024)
                with span("worker", parent=tuple(trace_ctx), sink=collector,
                          remote_suffix=f"w{index}", worker=index, kind=kind):
                    result = handler(cache, *args)
            else:
                result = handler(cache, *args)
            ok, payload = True, result
        except BaseException as exc:  # noqa: BLE001 - shipped to the caller
            ok, payload = False, _picklable_error(exc)
        finally:
            if collector is not None:
                spans = collector.records
        snapshot = registry.snapshot() if registry.enabled else None
        try:
            conn.send((task_id, ok, payload, spans, snapshot))
        except (BrokenPipeError, OSError):
            return


def _picklable_error(exc: BaseException) -> BaseException:
    """The exception itself when it pickles, else a ServeError stand-in."""
    import pickle

    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001 - unpicklable exception objects exist
        return ServeError(f"worker task failed: {type(exc).__name__}: {exc}",
                          status=500, error="worker-error")


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class _Task:
    __slots__ = ("id", "kind", "args", "future", "trace")

    def __init__(self, task_id: int, kind: str, args: tuple, future: Future,
                 trace: Optional[tuple] = None):
        self.id = task_id
        self.kind = kind
        self.args = args
        self.future = future
        self.trace = trace  # (trace_id, parent_span_id) or None


class _TaskQueue:
    """A deque + condition: FIFO puts, front-of-line requeues, clean close."""

    def __init__(self) -> None:
        self._items: collections.deque[_Task] = collections.deque()
        self._cond = threading.Condition()
        self._closed = False

    def put(self, task: _Task) -> None:
        with self._cond:
            self._items.append(task)
            self._cond.notify()

    def put_front(self, task: _Task) -> None:
        with self._cond:
            self._items.appendleft(task)
            self._cond.notify()

    def get(self) -> Optional[_Task]:
        """Next task, or ``None`` once closed and drained."""
        with self._cond:
            while not self._items and not self._closed:
                self._cond.wait()
            if self._items:
                return self._items.popleft()
            return None

    def close(self) -> list[_Task]:
        """Stop the consumer; return whatever never ran."""
        with self._cond:
            self._closed = True
            leftovers = list(self._items)
            self._items.clear()
            self._cond.notify_all()
        return leftovers

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)


class _Worker:
    """Parent-side record of one worker process and its manager thread."""

    __slots__ = ("index", "process", "conn", "queue", "thread", "inflight",
                 "restarts")

    def __init__(self, index: int):
        self.index = index
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.conn: Optional[multiprocessing.connection.Connection] = None
        self.queue = _TaskQueue()
        self.thread: Optional[threading.Thread] = None
        self.inflight: Optional[_Task] = None
        self.restarts = 0


class WorkerPool:
    """``n_workers`` spawn-context processes behind a futures interface.

    Parameters
    ----------
    n_workers:
        Process count; must be >= 1 (a pool of zero is spelled "no pool"
        at the call site — :class:`~repro.serve.server.ReproServer`
        keeps its in-process path for ``workers=0``).
    cache_entries:
        Per-worker :class:`FeasibilityCache` bound (each worker owns one
        shard of the fingerprint space).
    spawn_timeout:
        Seconds to wait for every worker's warm-import + ready handshake.
    """

    def __init__(self, n_workers: int, *, cache_entries: Optional[int] = 1024,
                 spawn_timeout: float = 60.0) -> None:
        if n_workers < 1:
            raise ServeError(f"n_workers must be >= 1, got {n_workers}",
                             status=500, error="bad-config")
        self.n_workers = n_workers
        self.cache_entries = cache_entries
        self.spawn_timeout = spawn_timeout
        self._ctx = multiprocessing.get_context("spawn")
        self._workers = [_Worker(i) for i in range(n_workers)]
        self._task_ids = itertools.count(1)
        self._rr = itertools.count()          # round-robin for unsharded tasks
        self._lock = threading.Lock()
        self._closed = False
        self._started = False
        #: total worker respawns after an unexpected death
        self.restarts = 0
        #: results received for an already-resolved future (must stay 0)
        self.duplicate_results = 0
        #: tasks executed, by kind (parent-side accounting)
        self.completed: collections.Counter[str] = collections.Counter()
        # telemetry merge state: the latest snapshot each live worker
        # shipped, and the accumulated totals of its dead predecessors
        self._last: dict[int, dict] = {}
        self._banked: dict[int, dict] = {}

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Spawn every worker (concurrently) and wait for their ready
        handshakes, then start the manager threads."""
        if self._started:
            return
        deadline = time.monotonic() + self.spawn_timeout
        for worker in self._workers:
            self._spawn_process(worker)
        for worker in self._workers:
            self._await_ready(worker, deadline)
        for worker in self._workers:
            worker.thread = threading.Thread(
                target=self._manage, args=(worker,),
                name=f"repro-serve-worker-{worker.index}", daemon=True,
            )
            worker.thread.start()
        self._started = True
        reg = get_registry()
        if reg.enabled:
            reg.gauge("repro_serve_workers_alive",
                      "Worker processes currently alive.").set(self.alive_count)

    def _spawn_process(self, worker: _Worker) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            # metrics-enablement is decided at spawn time: the server
            # enables its registry before pool.start(), so workers match
            args=(child_conn, self.cache_entries, worker.index,
                  get_registry().enabled),
            name=f"repro-serve-worker-{worker.index}", daemon=True,
        )
        process.start()
        child_conn.close()  # parent keeps only its end
        worker.process = process
        worker.conn = parent_conn

    def _await_ready(self, worker: _Worker, deadline: float) -> None:
        assert worker.conn is not None
        remaining = max(0.0, deadline - time.monotonic())
        if not worker.conn.poll(remaining):
            self.close()
            raise ServeError(
                f"worker {worker.index} did not become ready within "
                f"{self.spawn_timeout:g}s", status=None, error="startup-timeout",
            )
        message = worker.conn.recv()
        if not (isinstance(message, tuple) and message[0] == _READY):
            self.close()
            raise ServeError(
                f"worker {worker.index} sent {message!r} instead of the "
                f"ready handshake", status=None, error="startup-failed",
            )

    def close(self) -> None:
        """Stop manager threads, ask workers to exit, reap stragglers."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        shutdown = ServeError("server shutting down", status=503,
                              error="shutdown")
        for worker in self._workers:
            for task in worker.queue.close():
                if not task.future.done():
                    task.future.set_exception(shutdown)
        for worker in self._workers:
            if worker.thread is not None:
                worker.thread.join(timeout=10.0)
            if worker.conn is not None:
                # exit-time snapshot: only once the manager thread is
                # provably off the pipe (joined) may we speak on it
                if worker.thread is None or not worker.thread.is_alive():
                    self._final_snapshot(worker)
                try:
                    worker.conn.send(_STOP)
                except (BrokenPipeError, OSError):
                    pass
                worker.conn.close()
                worker.conn = None
            if worker.process is not None:
                worker.process.join(timeout=5.0)
                if worker.process.is_alive():
                    worker.process.terminate()
                    worker.process.join(timeout=5.0)
                worker.process = None

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission ----------------------------------------------------
    def submit(self, kind: str, args: tuple = (),
               shard_key: Optional[str] = None, *,
               trace: Optional[tuple] = None,
               worker_index: Optional[int] = None,
               front: bool = False) -> Future:
        """Queue one task; the future resolves to the handler's return
        value (or raises the worker-side exception).

        ``shard_key`` pins the task to the worker owning that slice of
        the fingerprint space (cache affinity); without it the task is
        spread round-robin.  ``trace`` is a ``(trace_id, parent_span_id)``
        pair: the worker runs the task under a ``worker`` span and ships
        its span records back with the result.  ``worker_index`` pins a
        specific worker (scrapes); ``front`` jumps the queue (scrapes
        must not wait behind a deep backlog of batches).
        """
        if not self._started or self._closed:
            raise ServeError("worker pool is not running", status=503,
                             error="shutdown")
        if kind not in _HANDLERS:
            raise ServeError(f"unknown task kind {kind!r}", status=500,
                             error="bad-config")
        future: Future = Future()
        task = _Task(next(self._task_ids), kind, args, future, trace=trace)
        if worker_index is not None:
            index = worker_index
        elif shard_key is not None:
            index = shard_index(shard_key, self.n_workers)
        else:
            index = next(self._rr) % self.n_workers
        queue = self._workers[index].queue
        (queue.put_front if front else queue.put)(task)
        return future

    def worker_for(self, shard_key: str) -> int:
        """Which worker owns ``shard_key`` (tests, introspection)."""
        return shard_index(shard_key, self.n_workers)

    def worker_pids(self) -> list[Optional[int]]:
        return [w.process.pid if w.process is not None else None
                for w in self._workers]

    @property
    def alive_count(self) -> int:
        return sum(1 for w in self._workers
                   if w.process is not None and w.process.is_alive())

    @property
    def queued(self) -> int:
        return sum(len(w.queue) for w in self._workers)

    def health(self) -> dict:
        return {
            "configured": self.n_workers,
            "alive": self.alive_count,
            "restarts": self.restarts,
            "queued": self.queued,
            "completed": dict(self.completed),
            "per_worker": [
                {
                    "index": w.index,
                    "alive": w.process is not None and w.process.is_alive(),
                    "pid": w.process.pid if w.process is not None else None,
                    "restarts": w.restarts,
                    "queued": len(w.queue),
                }
                for w in self._workers
            ],
        }

    # -- telemetry merge -----------------------------------------------
    def _merged_for(self, index: int) -> Optional[dict]:
        """Banked predecessor totals + the worker's latest snapshot."""
        with self._lock:
            banked = self._banked.get(index)
            last = self._last.get(index)
        if banked is None and last is None:
            return None
        return add_snapshots(banked, last)

    def metrics_snapshots(self, timeout: float = 2.0) -> dict[int, dict]:
        """Fresh per-worker registry snapshots for a scrape.

        Queues a ``metrics_snapshot`` task at the front of every worker's
        queue and waits up to ``timeout`` (total); a worker that is busy
        past the deadline contributes its last piggybacked snapshot
        instead, so a scrape is bounded-latency and never blocks behind a
        long batch.  Each value already includes banked predecessor
        counts, keyed by worker index.
        """
        deadline = time.monotonic() + timeout
        futures = []
        if self._started and not self._closed:
            for worker in self._workers:
                try:
                    futures.append((worker.index, self.submit(
                        "metrics_snapshot", worker_index=worker.index,
                        front=True)))
                except ServeError:
                    break  # closed under us: fall back to piggybacked state
        for index, future in futures:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                snap = future.result(timeout=remaining)
            except Exception:  # noqa: BLE001 - timeout/shutdown → stale data
                continue
            with self._lock:
                self._last[index] = snap
        out: dict[int, dict] = {}
        for worker in self._workers:
            merged = self._merged_for(worker.index)
            if merged:
                out[worker.index] = merged
        return out

    def _final_snapshot(self, worker: _Worker) -> None:
        """Best-effort exit-time scrape, spoken directly on the pipe.

        Only called from :meth:`close` after the manager thread has been
        joined — nothing else is on the connection.
        """
        conn = worker.conn
        if conn is None or worker.process is None or not worker.process.is_alive():
            return
        try:
            conn.send((0, "metrics_snapshot", (), None))
            if not conn.poll(1.0):
                return
            reply = conn.recv()
            task_id, ok, payload = reply[0], reply[1], reply[2]
            if task_id == 0 and ok and isinstance(payload, dict):
                with self._lock:
                    self._last[worker.index] = payload
        except (EOFError, BrokenPipeError, OSError, ConnectionResetError):
            pass

    # -- per-worker manager thread -------------------------------------
    def _manage(self, worker: _Worker) -> None:
        while True:
            task = worker.queue.get()
            if task is None:
                return  # queue closed: pool shutdown
            worker.inflight = task
            try:
                self._run_on_worker(worker, task)
            finally:
                worker.inflight = None

    def _run_on_worker(self, worker: _Worker, task: _Task) -> None:
        """Send → recv one task, respawning (and retrying the same task)
        across worker deaths.  Resolves ``task.future`` exactly once."""
        while True:
            if self._closed:
                if not task.future.done():
                    task.future.set_exception(ServeError(
                        "server shutting down", status=503, error="shutdown"))
                return
            try:
                assert worker.conn is not None
                worker.conn.send((task.id, task.kind, task.args, task.trace))
                reply = worker.conn.recv()
            except (EOFError, BrokenPipeError, OSError, ConnectionResetError):
                # the worker died under us: requeue semantics are "retry
                # this very task on the respawned process"
                try:
                    self._respawn(worker)
                except ServeError as exc:
                    if not task.future.done():
                        task.future.set_exception(exc)
                    return
                continue
            task_id, ok, payload, spans, snapshot = reply
            if snapshot is not None:
                # even a stale reply carries a valid registry snapshot
                with self._lock:
                    self._last[worker.index] = snapshot
            if task_id != task.id:
                # a reply for a task whose future was already settled in a
                # previous life of this worker; never deliver it twice
                with self._lock:
                    self.duplicate_results += 1
                continue
            if task.future.done():
                with self._lock:
                    self.duplicate_results += 1
                return
            if spans:
                # relay the worker's span records into the parent's sink
                # (skipped for stale replies above: span ids are
                # deterministic, so a double delivery would duplicate)
                sink = get_span_sink()
                if sink.enabled:
                    for record in spans:
                        sink.emit(record)
            self.completed[task.kind] += 1
            reg = get_registry()
            if reg.enabled:
                reg.counter(
                    "repro_serve_worker_tasks_total",
                    "Tasks completed by the worker-process tier, by kind.",
                    label_names=("kind",),
                ).labels(kind=task.kind).inc()
            if ok:
                task.future.set_result(payload)
            else:
                task.future.set_exception(payload)
            return

    def _respawn(self, worker: _Worker) -> None:
        """Replace a dead worker process; counts the restart and banks
        the dead predecessor's last-known counters so the merged
        ``/metrics`` view stays monotone."""
        if worker.process is not None:
            worker.process.join(timeout=5.0)
        if worker.conn is not None:
            worker.conn.close()
        with self._lock:
            last = self._last.pop(worker.index, None)
            if last is not None:
                self._banked[worker.index] = add_snapshots(
                    self._banked.get(worker.index), last)
        if self._closed:
            return
        self._spawn_process(worker)
        self._await_ready(worker, time.monotonic() + self.spawn_timeout)
        worker.restarts += 1
        with self._lock:
            self.restarts += 1
        reg = get_registry()
        if reg.enabled:
            reg.counter(
                "repro_serve_worker_restarts_total",
                "Worker processes respawned after an unexpected death.",
            ).inc()
            reg.gauge("repro_serve_workers_alive",
                      "Worker processes currently alive.").set(self.alive_count)
