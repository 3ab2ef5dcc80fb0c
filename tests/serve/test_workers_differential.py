"""Differential matrix: the worker-pool server is bit-identical to the
in-process server.

Satellite of the worker-tier PR.  Two live servers — one with
``workers=2`` (every compute task crosses a process boundary), one with
``workers=0`` (the PR-4 in-process path) — answer the same requests over
a matrix of spec shapes, and every ``/v1/*`` response body must match
exactly.  The process tier is a *transport*, never a semantic change.

Includes the coalescing case: barrier-synced concurrent duplicate
requests, where the pooled server's micro-batches run on worker
processes, compared against the serial in-process oracle.
"""

import threading

import pytest

from repro.serve import BackgroundServer, ServeClient

# every spec-payload shape the codec accepts, exercising each topology
# generator, the explicit multigraph form (with parallel edges), and the
# generalized retention/revelation model
SPEC_MATRIX = {
    "path": {"topology": "path", "n": 6, "in_rate": 1, "out_rate": 2},
    "cycle": {"topology": "cycle", "n": 8, "in_rate": 2, "out_rate": 3},
    "grid": {"topology": "grid", "rows": 3, "cols": 4,
             "in_rate": 1, "out_rate": 2},
    "complete": {"topology": "complete", "n": 5, "in_rate": 1, "out_rate": 3},
    "gnp": {"topology": "gnp", "n": 20, "p": 0.3, "seed": 13,
            "in_rate": 1, "out_rate": 2},
    "explicit-parallel-edges": {
        "nodes": 6,
        "edges": [[0, 1], [1, 2], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5]],
        "in_rates": {"0": 1, "1": 1}, "out_rates": {"5": 2, "4": 1},
    },
    "generalized-retention": {
        "topology": "path", "n": 6, "in_rate": 1, "out_rate": 2,
        "retention": 2, "revelation": "always_r",
    },
}


@pytest.fixture(scope="module")
def twins():
    """(pooled client, in-process client, pooled BackgroundServer)."""
    pooled_srv = BackgroundServer(workers=2)
    inproc_srv = BackgroundServer(workers=0)
    try:
        pooled = ServeClient(pooled_srv.start(timeout=120.0))
        inproc = ServeClient(inproc_srv.start(timeout=120.0))
        yield pooled, inproc, pooled_srv
    finally:  # reverse start order
        inproc_srv.stop()
        pooled_srv.stop()


def _no_batch(body: dict) -> dict:
    """Batch metadata (seq/size) depends on arrival timing, not semantics."""
    return {k: v for k, v in body.items() if k != "batch"}


class TestResponseMatrix:
    @pytest.mark.parametrize("name", sorted(SPEC_MATRIX))
    def test_classify_identical(self, twins, name):
        pooled, inproc, _ = twins
        spec = SPEC_MATRIX[name]
        # both servers are fresh for this spec: miss then hit on each,
        # so even cache_hit must agree call-for-call
        assert pooled.classify(spec) == inproc.classify(spec)
        assert pooled.classify(spec) == inproc.classify(spec)
        assert pooled.classify(spec)["cache_hit"] is True

    @pytest.mark.parametrize("name", sorted(SPEC_MATRIX))
    def test_simulate_identical(self, twins, name):
        pooled, inproc, _ = twins
        spec = SPEC_MATRIX[name]
        for seed, loss_p in ((0, 0.0), (7, 0.0), (3, 0.25)):
            a = pooled.simulate(spec, horizon=250, seed=seed, loss_p=loss_p)
            b = inproc.simulate(spec, horizon=250, seed=seed, loss_p=loss_p)
            assert _no_batch(a) == _no_batch(b)

    def test_healthz_reports_the_pool(self, twins):
        pooled, inproc, _ = twins
        assert pooled.healthz()["workers"]["configured"] == 2
        assert pooled.healthz()["workers"]["alive"] == 2
        assert "workers" not in inproc.healthz()
        # the workers' caches show in /metrics; the server builds none
        assert "cache" not in pooled.healthz()

    def test_pooled_metrics_count_worker_tasks(self, twins):
        pooled, _, _ = twins
        pooled.classify(SPEC_MATRIX["path"])
        text = pooled.metrics_text()
        assert "repro_serve_worker_tasks_total" in text
        assert 'kind="classify"' in text


class TestSweepsIdentical:
    def test_sweep_jobs_match_end_to_end(self, tmp_path):
        """Same grid through both tiers: same job id (fingerprint-derived),
        same summary, same records."""
        request = {"point": "region", "axes": {"n": [5, 6]},
                   "horizon": 150, "seed": 9}
        jobs: dict[str, dict] = {}
        records: dict[str, list] = {}
        for label, workers in (("pooled", 2), ("inproc", 0)):
            srv = BackgroundServer(workers=workers,
                                   jobs_dir=str(tmp_path / label))
            try:
                client = ServeClient(srv.start(timeout=120.0))
                job = client.submit_sweep(request)
                jobs[label] = client.wait_sweep(job["id"], timeout=180)
                records[label] = client.sweep_status(
                    job["id"], records=True)["records"]
            finally:
                srv.stop()
        assert jobs["pooled"]["id"] == jobs["inproc"]["id"]
        assert jobs["pooled"]["summary"] == jobs["inproc"]["summary"]
        assert records["pooled"] == records["inproc"]


class TestConcurrentDuplicates:
    N = 8

    def _burst(self, client: ServeClient, call) -> list:
        """Fire ``call(client)`` from N barrier-synced threads."""
        barrier = threading.Barrier(self.N)
        out: list = [None] * self.N
        errors: list[Exception] = []

        def worker(i: int) -> None:
            try:
                barrier.wait(timeout=10)
                out[i] = call(client)
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(self.N)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors
        assert all(r is not None for r in out)
        return out

    def test_concurrent_identical_simulates_match_serial_oracle(self, twins):
        """Coalesced duplicates through the pool are bit-identical to the
        serial in-process answer."""
        pooled, inproc, _ = twins
        spec = SPEC_MATRIX["gnp"]
        bodies = self._burst(
            pooled, lambda c: c.simulate(spec, horizon=200, seed=99))
        oracle = _no_batch(inproc.simulate(spec, horizon=200, seed=99))
        for body in bodies:
            assert _no_batch(body) == oracle

    def test_concurrent_identical_classifies_match_serial_oracle(self, twins):
        """cache_hit is excluded here: under concurrency it legitimately
        depends on arrival interleaving (both twins may compute twice or
        once); the *verdict* may not."""
        pooled, inproc, _ = twins
        spec = {"topology": "gnp", "n": 18, "p": 0.35, "seed": 77,
                "in_rate": 1, "out_rate": 2}
        bodies = self._burst(pooled, lambda c: c.classify(spec))
        oracle = inproc.classify(spec)
        oracle.pop("cache_hit")
        for body in bodies:
            body = dict(body)
            body.pop("cache_hit")
            assert body == oracle

    def test_no_worker_restarts_during_matrix(self, twins):
        """The whole differential run must not have tripped recovery."""
        _, _, pooled_srv = twins
        pool = pooled_srv.server.pool
        assert pool.restarts == 0
        assert pool.duplicate_results == 0
