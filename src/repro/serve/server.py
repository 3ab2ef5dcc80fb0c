"""The asyncio HTTP/JSON server — stdlib only, no web framework.

Endpoints
---------
``GET  /healthz``            liveness + job counts (never gated by admission)
``GET  /metrics``            Prometheus text from the :mod:`repro.obs` registry
``POST /v1/classify``        Definitions 3–4 feasibility of a submitted spec
``POST /v1/simulate``        one LGG run → verdict + queue/potential summary
``POST /v1/sweeps``          submit an async sweep job (202 + job id)
``GET  /v1/sweeps/{id}``     job status (``?records=1`` appends the rows)

Request flow: the asyncio loop parses HTTP and JSON, the
:class:`~repro.serve.admission.AdmissionController` admits or sheds, and
all numeric work runs off the loop as tasks of one compute tier —
``/v1/simulate`` through the :class:`~repro.serve.batching.MicroBatcher`
(concurrent identical configs fold into one ensemble batch),
``/v1/classify`` and ``/v1/region`` through a
:class:`~repro.sweep.cache.FeasibilityCache`.  With ``workers=N`` the
tier is a :class:`~repro.serve.workers.WorkerPool` of ``N`` worker
*processes* — tasks execute under separate GILs, classify and region
requests are routed to the worker owning their fingerprint shard
(per-worker cache ownership), and a worker death is absorbed by
requeue + respawn.  With ``workers=0`` (the default) it is a
:class:`~repro.serve.workers.ThreadTier`: the same task handlers on the
tier's own ``threads`` threads, over one lock-guarded cache.
Sweep jobs go to the
:class:`~repro.serve.jobs.JobManager`'s worker thread and persist
through crash-safe JSONL checkpoints, so a restarted server resumes them.

Every non-2xx response body is structured JSON ``{"error": slug,
"detail": message}``; sheds additionally carry ``Retry-After``.  The
server degrades by shedding, never by queueing unboundedly, and a
request whose head and body have not arrived within ``_READ_TIMEOUT``
gets a ``408`` instead of holding its connection.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
import time
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from repro.errors import ReproError, ServeError
from repro.obs.merge import merge_worker_snapshots, render_snapshot
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE, get_registry
from repro.obs.spans import new_trace_id, span, span_tree
from repro.obs.trace import RingBufferSink
from repro.serve.admission import AdmissionController
from repro.serve.batching import MicroBatcher
from repro.serve.codec import (
    MAX_HORIZON,
    TRACE_HEADER,
    parse_region_request,
    parse_simulate_request,
    parse_spec,
    valid_trace_id,
)
from repro.serve.jobs import JobManager
from repro.serve.workers import ThreadTier, WorkerPool
from repro.sweep.cache import canonical_ray_key, canonical_spec_key

__all__ = ["ReproServer", "BackgroundServer"]

_MAX_BODY = 1 << 20      # 1 MiB of JSON is plenty for any spec
_MAX_HEADER = 1 << 14
_READ_TIMEOUT = 10.0     # seconds to receive a whole request, head and body

_REQUEST_LATENCY_BUCKETS = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class _HttpRequest:
    __slots__ = ("method", "path", "query", "headers", "body")

    def __init__(self, method: str, target: str, headers: dict, body: bytes):
        self.method = method
        parts = urlsplit(target)
        self.path = parts.path
        self.query = parse_qs(parts.query)
        self.headers = headers
        self.body = body

    def json(self) -> object:
        if not self.body:
            raise ServeError("request body must be JSON, got an empty body")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServeError(f"request body is not valid JSON: {exc}") from exc


class ReproServer:
    """One serving process: sockets, batcher, admission, jobs, metrics.

    Construct, then either ``run()`` (blocking, CLI) or ``await start()``
    inside an event loop (embedding / :class:`BackgroundServer`).
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        batch_window: float = 0.01,
        max_batch: int = 64,
        queue_limit: int = 64,
        rate: Optional[float] = None,
        burst: int = 16,
        jobs_dir: Optional[str] = None,
        max_horizon: int = MAX_HORIZON,
        cache_entries: Optional[int] = 1024,
        workers: int = 0,
        threads: int = 2,
        trace_capacity: int = 16384,
    ) -> None:
        self.host = host
        #: the *requested* port (possibly 0 = ephemeral).  ``self.port``
        #: is overwritten with the resolved port once bound; keeping the
        #: request separate means a stop/start cycle re-binds "any free
        #: port" instead of racing other processes for the old one.
        self._requested_port = port
        self.port = port
        self.max_horizon = max_horizon
        #: the compute tier: every classify, region and simulate task runs
        #: here, on worker processes or on the thread tier's threads
        self.pool: WorkerPool | ThreadTier = (
            WorkerPool(workers, cache_entries=cache_entries) if workers > 0
            else ThreadTier(threads, cache_entries=cache_entries)
        )
        self.batcher = MicroBatcher(self.pool, window=batch_window,
                                    max_batch=max_batch)
        self.admission = AdmissionController(
            max_inflight=queue_limit, rate=rate, burst=burst
        )
        self.jobs: Optional[JobManager] = (
            JobManager(jobs_dir) if jobs_dir is not None else None
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._started = time.monotonic()
        self._obs_restore: Optional[dict] = None
        self.trace_capacity = trace_capacity
        #: span ring behind ``/v1/trace/{id}``; built (and installed as
        #: the process-global span sink) in :meth:`start`
        self._span_ring: Optional[RingBufferSink] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket (resolves ``port`` when it was 0),
        spawn the worker-process tier if one was configured, and enable
        the metrics registry + request-span ring for the lifetime of the
        server."""
        from repro import obs

        self._span_ring = RingBufferSink(capacity=self.trace_capacity)
        # metrics before pool.start(): workers inherit the enabled flag
        # at spawn, which is what makes their snapshots non-empty
        self._obs_restore = obs.configure(metrics=True, spans=self._span_ring)
        self._started = time.monotonic()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port,
            limit=_MAX_HEADER,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        # blocking, but deliberate: no connection is accepted until
        # serve_forever(), and readiness must mean "can compute"
        self.pool.start()
        if self.jobs is not None:
            self.jobs.recover()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.batcher.close()
        self.pool.close()
        if self.jobs is not None:
            self.jobs.shutdown()
        if self._obs_restore is not None:
            from repro import obs

            obs.configure(**self._obs_restore)
            self._obs_restore = None

    def run(self) -> None:
        """Blocking entry point (the ``repro serve`` CLI)."""

        async def _main() -> None:
            await self.start()
            print(f"repro.serve listening on http://{self.host}:{self.port}",
                  flush=True)
            try:
                await self.serve_forever()
            except asyncio.CancelledError:
                pass
            finally:
                await self.aclose()

        try:
            asyncio.run(_main())
        except KeyboardInterrupt:
            pass

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request = await asyncio.wait_for(self._read_request(reader),
                                                 _READ_TIMEOUT)
            except asyncio.TimeoutError:
                # a client that stops sending mid-request must not hold
                # its connection and task for as long as it likes
                await self._respond(writer, 408, {
                    "error": "request-timeout",
                    "detail": f"request not received within {_READ_TIMEOUT} s"})
                return
            except ServeError as exc:
                # parse-level rejects (malformed request line, oversized
                # body) still get the structured JSON error contract
                await self._respond(writer, exc.status or 400,
                                    {"error": exc.error, "detail": exc.detail})
                return
            if request is None:
                return
            # mint (or honor) the trace id at the edge: this is the one
            # identifier that ties the response header, the span tree,
            # and the exemplars together
            tid = (valid_trace_id(request.headers.get(TRACE_HEADER.lower()))
                   or new_trace_id())
            with span("ingress", trace_id=tid, method=request.method,
                      path=self._endpoint_label(request)):
                status, payload, headers = await self._dispatch(request, tid)
            headers = dict(headers or {})
            headers[TRACE_HEADER] = tid
            await self._respond(writer, status, payload, headers)
        except (ConnectionResetError, asyncio.IncompleteReadError,
                BrokenPipeError):
            pass  # client went away mid-exchange; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            return None  # connection closed before a full request arrived
        except asyncio.LimitOverrunError:
            await _skip_head(reader)
            raise ServeError(f"request head exceeds the {_MAX_HEADER}-byte "
                             f"limit", status=431,
                             error="headers-too-large") from None
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            raise ServeError("malformed request line", status=400,
                             error="bad-request") from None
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "").strip() or "0"
        try:
            length = int(raw_length)
        except ValueError:
            raise ServeError(f"malformed Content-Length: {raw_length!r}",
                             status=400, error="bad-request") from None
        if length < 0:
            raise ServeError(f"Content-Length cannot be negative, got {length}",
                             status=400, error="bad-request")
        if length > _MAX_BODY:
            # drain (bounded chunks, never buffered whole) so the client
            # finishes its send and can read the 413 instead of a reset
            remaining = length
            while remaining > 0:
                chunk = await reader.read(min(remaining, 1 << 16))
                if not chunk:
                    break
                remaining -= len(chunk)
            raise ServeError(f"request body of {length} bytes exceeds the "
                             f"{_MAX_BODY}-byte limit",
                             status=413, error="payload-too-large")
        body = await reader.readexactly(length) if length else b""
        try:
            return _HttpRequest(method.upper(), target, headers, body)
        except ValueError as exc:  # urlsplit: e.g. an unclosed "[" host
            raise ServeError(f"malformed request target: {exc}", status=400,
                             error="bad-request") from None

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload, extra_headers: Optional[dict] = None) -> None:
        reasons = {200: "OK", 202: "Accepted", 400: "Bad Request",
                   404: "Not Found", 405: "Method Not Allowed",
                   408: "Request Timeout", 413: "Payload Too Large",
                   429: "Too Many Requests",
                   431: "Request Header Fields Too Large",
                   500: "Internal Server Error", 503: "Service Unavailable"}
        if isinstance(payload, (bytes, str)):
            body = payload.encode("utf-8") if isinstance(payload, str) else payload
            ctype = PROMETHEUS_CONTENT_TYPE
        else:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            ctype = "application/json"
        head = [f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}",
                f"Content-Type: {ctype}",
                f"Content-Length: {len(body)}",
                "Connection: close"]
        for name, value in (extra_headers or {}).items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _dispatch(self, request: _HttpRequest,
                        trace_id: Optional[str] = None):
        """Route one request; returns ``(status, payload, extra_headers)``.

        All error mapping happens here: :class:`ServeError` renders its own
        status and slug, any other :class:`ReproError` is a 400, anything
        else is a 500 — always with a structured JSON body.
        """
        reg = get_registry()
        endpoint = self._endpoint_label(request)
        tick = time.perf_counter()
        try:
            status, payload, headers = await self._route(request)
        except ServeError as exc:
            status = exc.status or 500
            payload = {"error": exc.error, "detail": exc.detail}
            headers = {}
            if exc.retry_after is not None:
                headers["Retry-After"] = str(max(1, math.ceil(exc.retry_after)))
        except ReproError as exc:
            status = 400
            payload = {"error": type(exc).__name__, "detail": str(exc)}
            headers = {}
        except Exception as exc:  # noqa: BLE001 - last-resort 500, still JSON
            status = 500
            payload = {"error": "internal", "detail": f"{type(exc).__name__}: {exc}"}
            headers = {}
        if reg.enabled:
            reg.counter(
                "repro_serve_requests_total",
                "HTTP requests handled, by endpoint and status code.",
                label_names=("endpoint", "code"),
            ).labels(endpoint=endpoint, code=str(status)).inc()
            reg.histogram(
                "repro_serve_request_seconds",
                "Request latency from parse to response, by endpoint.",
                label_names=("endpoint",),
                buckets=_REQUEST_LATENCY_BUCKETS,
            ).labels(endpoint=endpoint).observe(
                time.perf_counter() - tick, exemplar=trace_id)
        return status, payload, headers

    @staticmethod
    def _endpoint_label(request: _HttpRequest) -> str:
        path = request.path
        if path.startswith("/v1/sweeps/"):
            return "/v1/sweeps/{id}"
        if path.startswith("/v1/trace/"):
            return "/v1/trace/{id}"
        if path in ("/healthz", "/metrics", "/v1/classify", "/v1/region",
                    "/v1/simulate", "/v1/sweeps"):
            return path
        return "other"

    async def _route(self, request: _HttpRequest):
        method, path = request.method, request.path
        if path == "/healthz":
            if method != "GET":
                raise _method_not_allowed(method, path)
            return 200, self._healthz(), {}
        if path == "/metrics":
            if method != "GET":
                raise _method_not_allowed(method, path)
            return 200, self._metrics(), {}
        if path == "/v1/classify":
            if method != "POST":
                raise _method_not_allowed(method, path)
            return 200, await self._compute(request, "classify"), {}
        if path == "/v1/region":
            if method != "POST":
                raise _method_not_allowed(method, path)
            return 200, await self._compute(request, "region"), {}
        if path == "/v1/simulate":
            if method != "POST":
                raise _method_not_allowed(method, path)
            return 200, await self._simulate(request), {}
        if path == "/v1/sweeps":
            if method != "POST":
                raise _method_not_allowed(method, path)
            return 202, self._submit_sweep(request), {}
        if path.startswith("/v1/sweeps/"):
            if method != "GET":
                raise _method_not_allowed(method, path)
            return 200, self._sweep_status(request), {}
        if path.startswith("/v1/trace/"):
            if method != "GET":
                raise _method_not_allowed(method, path)
            return 200, self._trace_status(request), {}
        raise ServeError(f"no such endpoint: {method} {path}",
                         status=404, error="not-found")

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def _healthz(self) -> dict:
        out = {
            "status": "ok",
            "uptime_s": round(time.monotonic() - self._started, 3),
            "inflight": self.admission.inflight,
        }
        if self._span_ring is not None:
            # trace loss is an operator concern: a nonzero `dropped`
            # means /v1/trace/{id} may return partial trees
            out["trace"] = {
                "ring_capacity": self._span_ring.capacity,
                "spans": self._span_ring.emitted,
                "dropped": self._span_ring.dropped,
            }
        if isinstance(self.pool, WorkerPool):
            out["workers"] = self.pool.health()
        else:
            # only the thread tier computes through the server's own
            # cache; the workers' caches show in /metrics by worker label
            cache = self.pool.cache
            out["cache"] = {"size": cache.size, "hits": cache.hits,
                            "misses": cache.misses}
        if self.jobs is not None:
            out["jobs"] = self.jobs.counts()
        return out

    def _metrics(self) -> str:
        """The scrape page: local registry, plus — when a worker tier is
        running — every worker's registry under a ``worker`` label, as
        its latest task reply carried it (nothing waits on a busy worker).

        Parent series stay unlabeled, and both tiers render through one
        :func:`render_snapshot` call, so they order labels alike."""
        workers = (self.pool.metrics_snapshots()
                   if isinstance(self.pool, WorkerPool) else {})
        return render_snapshot(
            merge_worker_snapshots(get_registry().snapshot(), workers))

    def _trace_status(self, request: _HttpRequest) -> dict:
        trace_id = request.path[len("/v1/trace/"):]
        ring = self._span_ring
        records = ([r for r in ring.records if r.get("trace_id") == trace_id]
                   if ring is not None else [])
        if not records:
            raise ServeError(
                f"no spans recorded for trace {trace_id!r} (expired from "
                f"the ring, or never traced)",
                status=404, error="trace-not-found",
            )
        return {
            "trace_id": trace_id,
            "span_count": len(records),
            "dropped": ring.dropped,
            "spans": records,
            "tree": span_tree(records),
        }

    async def _compute(self, request: _HttpRequest, kind: str) -> dict:
        """``/v1/classify`` and ``/v1/region``: one cached task each.

        A classify miss runs classify_network's warm-started parametric
        chain (one cold solve plus incremental re-augmentations); a region
        miss runs one parametric envelope solve per (network, ray).  Both
        bank in the same shard-affine FeasibilityCache, so repeat queries
        are lookups whichever endpoint warmed them, and on a worker pool
        the task goes to the worker owning its key's shard.
        """
        with span("admission"):
            ticket = self.admission.try_admit()
        with ticket:
            payload = request.json()
            if not isinstance(payload, dict):
                raise ServeError("request body must be a JSON object")
            if kind == "classify":
                args = (parse_spec(payload.get("spec", payload)),)
                key_of = canonical_spec_key
            else:
                args = parse_region_request(payload)
                key_of = canonical_ray_key
            # the thread tier's one cache owns every shard: no key to compute
            shard_key = key_of(*args) if isinstance(self.pool, WorkerPool) else None
            with span("batch", kind=kind) as sp:
                ctx = sp.context() if sp.span_id is not None else None
                out, hit = await asyncio.wrap_future(self.pool.submit(
                    kind, args, shard_key=shard_key, trace=ctx))
            out["cache_hit"] = hit
            return out

    async def _simulate(self, request: _HttpRequest) -> dict:
        with span("admission"):
            ticket = self.admission.try_admit()
        with ticket:
            spec, horizon, seed, loss_p = parse_simulate_request(
                request.json(), max_horizon=self.max_horizon
            )
            with span("batch", kind="simulate") as sp:
                ctx = sp.context() if sp.span_id is not None else None
                response = await self.batcher.simulate(
                    spec, horizon, seed, loss_p, trace=ctx)
            response["horizon"] = horizon
            response["seed"] = seed
            return response

    def _submit_sweep(self, request: _HttpRequest) -> dict:
        if self.jobs is None:
            raise ServeError(
                "sweep jobs are disabled: the server was started without "
                "a jobs directory (pass --jobs-dir)",
                status=503, error="jobs-disabled",
            )
        payload = request.json()
        if not isinstance(payload, dict):
            raise ServeError("request body must be a JSON object")
        job = self.jobs.submit(payload)
        return {"id": job.id, "state": job.state.value,
                "total_points": job.total_points}

    def _sweep_status(self, request: _HttpRequest) -> dict:
        if self.jobs is None:
            raise ServeError("sweep jobs are disabled on this server",
                             status=503, error="jobs-disabled")
        job_id = request.path[len("/v1/sweeps/"):]
        job = self.jobs.status(job_id)
        out = job.to_json()
        if request.query.get("records", ["0"])[-1] in ("1", "true", "yes"):
            out["records"] = self.jobs.records(job_id)
        return out


async def _skip_head(reader: asyncio.StreamReader) -> None:
    """Read past an oversized request head, up to ``_MAX_BODY`` bytes and
    never buffered whole, so the client finishes its send and can read
    the 431 instead of a reset."""
    tail = b""
    for _ in range(_MAX_BODY >> 16):
        chunk = await reader.read(1 << 16)
        if not chunk or b"\r\n\r\n" in tail + chunk:
            return
        tail = chunk[-3:]


def _method_not_allowed(method: str, path: str) -> ServeError:
    return ServeError(f"{method} is not allowed on {path}",
                      status=405, error="method-not-allowed")


class BackgroundServer:
    """Run a :class:`ReproServer` on a dedicated thread with its own event
    loop — the embedding used by tests, benchmarks, and the CI smoke step.

    Each server enables the process-global metrics registry and span sink
    when it starts and restores the state it found when it stops, so
    servers whose lifetimes overlap must stop in reverse start order: stop
    the earlier one first and the later one's restore re-enables the
    earlier one's registry and span ring for the rest of the process.

    >>> with BackgroundServer(queue_limit=8) as url:
    ...     client = ServeClient(url)           # doctest: +SKIP
    """

    def __init__(self, **kwargs) -> None:
        self._kwargs = dict(kwargs)
        self.server = ReproServer(**kwargs)
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._error: Optional[BaseException] = None
        self._used = False

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as exc:  # surface bind errors to the caller
            self._error = exc
            self._ready.set()
            raise
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await self.server.aclose()

    def start(self, timeout: float = 10.0) -> str:
        # fresh handshake state every time: a stop()/start() cycle must
        # re-bind from the *requested* port (0 = any free port), never
        # race other processes for the previously resolved one — and a
        # closed server's pool/batcher are gone, so restart means a
        # fresh ReproServer from the original kwargs
        self._ready = threading.Event()
        self._error = None
        if self._used:
            self.server = ReproServer(**self._kwargs)
        self._used = True
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="repro-serve-loop", daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(timeout=timeout):
            # never hand back a base_url with an unresolved port
            raise ServeError(
                f"background server did not become ready within {timeout:g}s",
                status=None, error="startup-timeout",
            )
        if self._error is not None:
            raise self._error
        return self.server.base_url

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self) -> str:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
