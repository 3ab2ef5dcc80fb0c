"""HTTP-level acceptance tests against a live server on an ephemeral port.

Three of the ISSUE's acceptance criteria live here:

* **differential** — N concurrent identical ``/v1/simulate`` requests
  return bodies bit-identical to direct scalar :class:`Simulator` runs,
  and are served from fewer than N ensemble batches;
* **load/shed** — a burst over capacity yields only 200s and 429s (zero
  5xx, zero dropped connections) and the ``/metrics`` shed counter equals
  the number of 429 responses exactly;
* **structured errors** — every 4xx/5xx body is ``{"error", "detail"}``
  JSON.
"""

import asyncio
import json
import socket
import threading
import urllib.error
import urllib.parse
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServeError
from repro.obs.metrics import get_registry
from repro.serve import BackgroundServer, ServeClient, direct_simulate, parse_spec
from repro.serve.headers import TRACE_HEADER


SPEC = {"topology": "path", "n": 6, "in_rate": 1, "out_rate": 2}


@pytest.fixture
def server_factory():
    """Yield a BackgroundServer launcher; tear every server down after."""
    live = []

    def launch(**kwargs):
        srv = BackgroundServer(**kwargs)
        url = srv.start()
        live.append(srv)
        return url, srv.server

    yield launch
    for srv in reversed(live):  # last started, first stopped
        srv.stop()


def _counter(name):
    """An unlabeled counter of the process-global registry (0 if unset)."""
    family = get_registry().snapshot().get(name, {"series": []})
    return sum(series["value"] for series in family["series"])


def _exchange(url, request: bytes) -> bytes:
    """Send raw bytes on a fresh connection, read the reply to EOF."""
    parts = urllib.parse.urlsplit(url)
    data = b""
    with socket.create_connection((parts.hostname, parts.port),
                                  timeout=10) as sock:
        sock.sendall(request)
        while chunk := sock.recv(1 << 16):
            data += chunk
    return data


# Start points of the framing fuzz, one per endpoint family that cannot be
# made to run long: simulate stays out, so no mutation asks for a long run.
_FUZZ_SEEDS = [
    ("POST", "/v1/classify", json.dumps({"spec": SPEC})),
    ("GET", "/healthz", ""),
    ("GET", "/v1/trace/0123456789abcdef", ""),
    ("GET", "/v1/sweeps/swp-unknown?records=1", ""),
]
# Spliced into a request: URL delimiters (urlsplit rejects a host with an
# unbalanced bracket), separators, controls and other latin-1 bytes.
# Never "\n" in the head, so the head still ends at its final CRLFCRLF.
_HEAD_PIECES = st.one_of(
    st.sampled_from(["", "[", "]", "/", "?", "#", "%", ":", "@", " ", "\r"]),
    st.text(st.characters(max_codepoint=0xFF, exclude_characters="\n"),
            max_size=4),
)
_BODY_PIECES = st.text(st.characters(max_codepoint=0xFF), max_size=4)


@st.composite
def _mutated(draw, text, max_edits, pieces=_HEAD_PIECES):
    """``text`` with up to ``max_edits`` slices of up to 4 characters each
    replaced by a drawn piece (an insert, a delete or a substitution)."""
    for _ in range(draw(st.integers(0, max_edits))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 4)))
        text = text[:i] + draw(pieces) + text[j:]
    return text


@st.composite
def _complete_requests(draw):
    """A mutated request whose head ends in CRLFCRLF and whose body is as
    long as its Content-Length."""
    method, path, body = draw(st.sampled_from(_FUZZ_SEEDS))
    # an absolute-form target puts a host where urlsplit parses brackets
    scheme = draw(st.sampled_from(["", "//", "http://"]))
    host = draw(_mutated("[::1]", 2)) if scheme else ""
    line = draw(_mutated(f"{method} {scheme}{host}{path} HTTP/1.1", 2))
    headers = [f"{draw(_mutated(name, 1))}: {draw(_mutated(value, 2))}"
               for name, value in (("Host", "t"), (TRACE_HEADER, "fuzz-1"))]
    # around and past the server's 16 KiB head limit
    pad = draw(st.sampled_from([0, 0, 1 << 10, (1 << 14) - 100, 1 << 14, 1 << 16]))
    payload = draw(_mutated(body, 2, _BODY_PIECES)).encode("latin-1")
    head = [line, *headers, f"X-Pad: {'a' * pad}",
            f"Content-Length: {len(payload)}"]
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + payload


def _raw(url, method="GET", body=None):
    """Raw request that never raises: (status, headers, parsed-or-text body)."""
    req = urllib.request.Request(url, data=body, method=method)
    if body is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


class TestBasicEndpoints:
    def test_healthz(self, server_factory):
        url, _ = server_factory()
        body = ServeClient(url).healthz()
        assert body["status"] == "ok"
        assert body["inflight"] == 0

    def test_classify_matches_direct_and_caches(self, server_factory):
        from repro.flow import classify_network
        from repro.serve import report_to_json

        url, _ = server_factory()
        client = ServeClient(url)
        first = client.classify(SPEC)
        direct = report_to_json(classify_network(parse_spec(SPEC).extended()))
        assert {k: v for k, v in first.items() if k != "cache_hit"} == direct
        assert first["cache_hit"] is False
        assert client.classify(SPEC)["cache_hit"] is True
        # the in-process tier computes through the cache /healthz reports
        assert client.healthz()["cache"] == {"size": 1, "hits": 1, "misses": 1}

    def test_simulate_roundtrip(self, server_factory):
        url, _ = server_factory()
        body = ServeClient(url).simulate(SPEC, horizon=200, seed=5)
        expected = direct_simulate(parse_spec(SPEC), 200, 5)
        assert {k: body[k] for k in expected} == expected
        assert body["horizon"] == 200 and body["seed"] == 5

    def test_metrics_exposes_request_counters(self, server_factory):
        url, _ = server_factory()
        client = ServeClient(url)
        client.healthz()
        text = client.metrics_text()
        assert "# TYPE repro_serve_requests_total counter" in text
        assert 'endpoint="/healthz"' in text


class TestStructuredErrors:
    @pytest.mark.parametrize("method,path,body,status,slug", [
        ("GET", "/nowhere", None, 404, "not-found"),
        ("DELETE", "/healthz", None, 405, "method-not-allowed"),
        ("GET", "/v1/classify", None, 405, "method-not-allowed"),
        ("POST", "/v1/classify", b"{not json", 400, "bad-request"),
        ("POST", "/v1/classify", b"", 400, "bad-request"),
        ("POST", "/v1/simulate", b'{"spec": {"topology": "torus"}}',
         400, "bad-request"),
        ("POST", "/v1/sweeps", b'{"axes": 5}', 503, "jobs-disabled"),
        ("GET", "/v1/sweeps/swp-unknown", None, 503, "jobs-disabled"),
    ])
    def test_every_error_body_is_structured_json(self, server_factory,
                                                 method, path, body,
                                                 status, slug):
        url, _ = server_factory()
        code, headers, raw = _raw(url + path, method, body)
        assert code == status
        assert headers["Content-Type"].startswith("application/json")
        parsed = json.loads(raw.decode("utf-8"))
        assert set(parsed) == {"error", "detail"}
        assert parsed["error"] == slug
        assert isinstance(parsed["detail"], str) and parsed["detail"]

    def test_unknown_job_is_404_when_jobs_enabled(self, server_factory,
                                                  tmp_path):
        url, _ = server_factory(jobs_dir=str(tmp_path / "jobs"))
        code, _, raw = _raw(url + "/v1/sweeps/swp-unknown")
        assert code == 404
        assert json.loads(raw)["error"] == "not-found"

    @pytest.mark.parametrize("value", ["banana", "12abc", "-5"])
    def test_malformed_content_length_is_structured_400(self, server_factory,
                                                        value):
        """urllib always sends a well-formed Content-Length, so speak raw
        HTTP: a garbage (or negative) header must yield the structured 400
        contract, not a dropped connection."""
        url, _ = server_factory()
        data = _exchange(url, (f"POST /v1/classify HTTP/1.1\r\nHost: t\r\n"
                               f"Content-Length: {value}\r\n\r\n").encode("ascii"))
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.split(b"\r\n", 1)[0] == b"HTTP/1.1 400 Bad Request"
        parsed = json.loads(body)
        assert parsed["error"] == "bad-request"
        assert "Content-Length" in parsed["detail"]

    def test_unparseable_request_target_is_structured_400(self, server_factory):
        """urlsplit rejects a host with an unclosed bracket: the server
        must answer a structured 400, not drop the connection."""
        url, _ = server_factory()
        data = _exchange(url, b"GET http://[::1 HTTP/1.1\r\nHost: t\r\n\r\n")
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.split(b"\r\n", 1)[0] == b"HTTP/1.1 400 Bad Request"
        parsed = json.loads(body)
        assert parsed["error"] == "bad-request"
        assert "request target" in parsed["detail"]

    @pytest.mark.parametrize("pad", [1 << 14, 1 << 18])
    def test_oversized_head_is_structured_431(self, server_factory, pad):
        """A head past the 16 KiB limit gets a structured 431; the server
        reads past it (up to 1 MiB), so even a 256 KiB head ends in a
        clean close rather than a reset."""
        url, _ = server_factory()
        data = _exchange(url, (f"GET /healthz HTTP/1.1\r\nHost: t\r\n"
                               f"X-Pad: {'a' * pad}\r\n\r\n").encode("ascii"))
        head, _, body = data.partition(b"\r\n\r\n")
        assert (head.split(b"\r\n", 1)[0]
                == b"HTTP/1.1 431 Request Header Fields Too Large")
        parsed = json.loads(body)
        assert set(parsed) == {"error", "detail"}
        assert parsed["error"] == "headers-too-large"

    @pytest.mark.parametrize("request_bytes", [
        b"GET /healthz HTTP/1.1\r\nHost: t\r\n",  # head without its blank line
        (b"POST /v1/classify HTTP/1.1\r\nHost: t\r\nContent-Length: 40\r\n"
         b"\r\n{\"spec\": "),                       # body short of its length
    ], ids=["head", "body"])
    def test_stalled_request_is_structured_408(self, server_factory,
                                               monkeypatch, request_bytes):
        """A client that stops sending mid-request gets a structured 408
        once the read deadline passes, and the connection closes."""
        monkeypatch.setattr("repro.serve.server._READ_TIMEOUT", 0.3)
        url, _ = server_factory()
        data = _exchange(url, request_bytes)
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.split(b"\r\n", 1)[0] == b"HTTP/1.1 408 Request Timeout"
        parsed = json.loads(body)
        assert set(parsed) == {"error", "detail"}
        assert parsed["error"] == "request-timeout"

    def test_mutated_complete_requests_get_structured_answers(self, server_factory):
        """Any complete request gets a status line and never a 500, and
        every non-2xx reply is a structured ``{error, detail}`` body (the
        503 ``jobs-disabled`` of the sweep-status start point included)."""
        url, _ = server_factory()

        @settings(max_examples=120, deadline=None)
        @given(request=_complete_requests())
        def check(request):
            data = _exchange(url, request)
            head, _, body = data.partition(b"\r\n\r\n")
            status = head.split(b"\r\n", 1)[0]
            assert status.startswith(b"HTTP/1.1 "), (request[:120], data[:120])
            code = int(status.split()[1])
            assert code != 500, body
            if not 200 <= code < 300:
                assert set(json.loads(body)) == {"error", "detail"}, body

        check()

    def test_oversized_body_is_413(self, server_factory):
        url, _ = server_factory()
        code, _, raw = _raw(url + "/v1/classify", "POST", b" " * (1 << 20 + 1))
        assert code == 413
        assert json.loads(raw)["error"] == "payload-too-large"

    def test_client_surfaces_error_slug(self, server_factory):
        url, _ = server_factory()
        with pytest.raises(ServeError) as exc_info:
            ServeClient(url).classify({"topology": "torus"})
        assert exc_info.value.status == 400
        assert exc_info.value.error == "bad-request"


class TestConcurrentDifferential:
    def test_identical_burst_is_bit_identical_and_coalesced(self, server_factory):
        """The ISSUE's differential criterion, over real HTTP."""
        n = 8
        url, _ = server_factory(batch_window=0.25, threads=2)
        client = ServeClient(url)
        batches_before = _counter("repro_serve_batches_total")
        batched_before = _counter("repro_serve_batched_requests_total")
        results: dict[int, dict] = {}
        errors: list[Exception] = []
        barrier = threading.Barrier(n)

        def worker(seed):
            try:
                barrier.wait(timeout=10)
                results[seed] = client.simulate(SPEC, horizon=250, seed=seed)
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert len(results) == n

        spec = parse_spec(SPEC)
        for seed, body in results.items():
            expected = direct_simulate(spec, 250, seed)
            assert {k: body[k] for k in expected} == expected

        batches = {body["batch"]["seq"] for body in results.values()}
        assert len(batches) < n  # served from fewer than N ensemble runs
        assert _counter("repro_serve_batches_total") - batches_before == len(batches)
        assert _counter("repro_serve_batched_requests_total") - batched_before == n


class TestShedding:
    def test_burst_over_capacity_sheds_cleanly(self, server_factory):
        """The ISSUE's load criterion: only 200/429, zero 5xx, zero drops,
        and the shed counter equals the number of 429s exactly."""
        n = 12
        url, server = server_factory(queue_limit=2, batch_window=0.3)
        get_registry().reset()  # clean slate for the equality check
        client = ServeClient(url)
        statuses: list[int] = []
        lock = threading.Lock()
        barrier = threading.Barrier(n)

        def worker(seed):
            barrier.wait(timeout=10)
            try:
                client.simulate(SPEC, horizon=200, seed=seed)
                code = 200
            except ServeError as exc:
                code = exc.status
                if code == 429:
                    assert exc.retry_after is not None  # Retry-After was sent
            with lock:
                statuses.append(code)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)

        assert len(statuses) == n                      # zero dropped requests
        assert set(statuses) <= {200, 429}             # zero 5xx
        n_429 = statuses.count(429)
        assert n_429 >= 1                              # the burst did overload
        assert statuses.count(200) >= 1                # but some work got done

        snapshot = get_registry().snapshot()
        shed_series = snapshot["repro_serve_shed_total"]["series"]
        assert shed_series[0]["value"] == n_429
        # and the same number is scrape-able as Prometheus text
        text = client.metrics_text()
        assert f"repro_serve_shed_total {n_429}" in text


class TestSweepsOverHttp:
    def test_submit_poll_records_end_to_end(self, server_factory, tmp_path):
        url, _ = server_factory(jobs_dir=str(tmp_path / "jobs"))
        client = ServeClient(url)
        job = client.submit_sweep({"point": "region", "axes": {"n": [5, 6]},
                                   "horizon": 150, "seed": 9})
        assert job["state"] in ("queued", "running", "done")
        done = client.wait_sweep(job["id"], timeout=120)
        assert done["state"] == "done"
        assert done["completed_points"] == done["total_points"] == 2
        assert done["summary"]["diagonal_intact"] in (True, False)
        rows = client.sweep_status(job["id"], records=True)["records"]
        assert len(rows) == 2
        # resubmitting the same grid rejoins the finished job
        again = client.submit_sweep({"point": "region", "axes": {"n": [5, 6]},
                                     "horizon": 150, "seed": 9})
        assert again["id"] == job["id"]

    def test_jobs_survive_server_restart(self, server_factory, tmp_path):
        jobs_dir = str(tmp_path / "jobs")
        url, _ = server_factory(jobs_dir=jobs_dir)
        client = ServeClient(url)
        job = client.submit_sweep({"point": "classify", "axes": {"n": [5]},
                                   "seed": 2})
        client.wait_sweep(job["id"], timeout=120)
        # a second server over the same directory sees the finished job
        url2, _ = server_factory(jobs_dir=jobs_dir)
        status = ServeClient(url2).sweep_status(job["id"])
        assert status["state"] == "done"


class TestBackgroundServerLifecycle:
    def test_start_raises_when_loop_never_becomes_ready(self):
        """A stalled loop thread must surface as an error, never as a
        base_url pointing at the unresolved port 0."""
        srv = BackgroundServer()

        async def stall():  # stands in for _main; never signals readiness
            await asyncio.sleep(2.0)

        srv._main = stall
        with pytest.raises(ServeError, match="ready"):
            srv.start(timeout=0.05)

    def test_restart_rebinds_a_fresh_ephemeral_port(self):
        """Regression: a stop()/start() cycle must re-bind from the
        *requested* port (0 = any free), not race other processes for the
        previously resolved one.  Here the old port is gone for good —
        another socket owns it — and the restart must still succeed."""
        srv = BackgroundServer()
        url1 = srv.start()
        first_port = srv.server.port
        srv.stop()

        squatter = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            squatter.bind(("127.0.0.1", first_port))
            squatter.listen(1)
            url2 = srv.start()
            try:
                assert srv.server.port != first_port
                assert url2 != url1
                assert ServeClient(url2).healthz()["status"] == "ok"
            finally:
                srv.stop()
        finally:
            squatter.close()

    def test_parallel_servers_get_distinct_ports(self, server_factory):
        """Parallel pytest workers each embed a server; ephemeral binds
        must never collide and every instance must be live."""
        launched = [server_factory() for _ in range(4)]
        ports = {server.port for _, server in launched}
        assert len(ports) == len(launched)
        for url, _ in launched:
            assert ServeClient(url).healthz()["status"] == "ok"

    def test_restart_with_worker_pool_is_clean(self):
        """The restart path must rebuild the pool too: the old processes
        are reaped, the new server answers with fresh workers."""
        srv = BackgroundServer(workers=1)
        url1 = srv.start(timeout=120.0)
        pids1 = srv.server.pool.worker_pids()
        assert ServeClient(url1).classify(SPEC)["cache_hit"] is False
        srv.stop()
        url2 = srv.start(timeout=120.0)
        try:
            pids2 = srv.server.pool.worker_pids()
            assert pids2 != pids1
            # a fresh pool means a cold shard cache: miss again, then hit
            client = ServeClient(url2)
            assert client.classify(SPEC)["cache_hit"] is False
            assert client.classify(SPEC)["cache_hit"] is True
        finally:
            srv.stop()
