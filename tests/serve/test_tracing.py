"""End-to-end request tracing through the serve tier.

The ISSUE's tracing acceptance criteria live here:

* every response carries ``X-Repro-Trace-Id``, honoring a valid
  client-sent id and minting one otherwise;
* ``GET /v1/trace/{id}`` reconstructs the request's span tree —
  ingress → admission → batch → worker → flow spans for a pooled
  classify — and 404s with a structured error for unknown ids;
* the ``workers=0`` and pooled span trees are equal modulo worker
  identity (the tracing twin of the workers-differential matrix);
* frontend ``/metrics`` merges worker registries under a ``worker``
  label, sums survive a SIGKILL-induced respawn monotonically, and the
  page declares the Prometheus content type.
"""

import json
import os
import signal
import time
import urllib.request

import pytest

from repro.errors import ServeError
from repro.obs import PROMETHEUS_CONTENT_TYPE
from repro.obs.merge import counter_regressions, parse_exposition
from repro.obs.spans import normalized_tree
from repro.serve import BackgroundServer, ServeClient

SPEC = {"topology": "gnp", "n": 16, "p": 0.3, "seed": 3,
        "in_rate": 1, "out_rate": 2}


@pytest.fixture
def server_factory():
    live = []

    def launch(**kwargs):
        srv = BackgroundServer(**kwargs)
        url = srv.start(timeout=120.0)
        live.append(srv)
        return url, srv.server

    yield launch
    for srv in reversed(live):  # last started, first stopped
        srv.stop()


def _names(tree):
    out = set()
    stack = list(tree)
    while stack:
        node = stack.pop()
        out.add(node["name"])
        stack.extend(node["children"])
    return out


class TestTraceHeader:
    def test_minted_id_on_every_response(self, server_factory):
        url, _ = server_factory()
        client = ServeClient(url)
        client.healthz()
        first = client.last_trace_id
        assert first
        client.classify(SPEC)
        assert client.last_trace_id
        assert client.last_trace_id != first

    def test_client_supplied_id_is_honored(self, server_factory):
        url, _ = server_factory()
        req = urllib.request.Request(
            url + "/v1/classify",
            data=json.dumps({"spec": SPEC}).encode(),
            headers={"Content-Type": "application/json",
                     "X-Repro-Trace-Id": "my-trace-0001"},
            method="POST",
        )
        with urllib.request.urlopen(req, timeout=60) as resp:
            assert resp.headers["X-Repro-Trace-Id"] == "my-trace-0001"

    def test_invalid_supplied_id_is_replaced(self, server_factory):
        url, _ = server_factory()
        req = urllib.request.Request(
            url + "/healthz",
            headers={"X-Repro-Trace-Id": "bad id with spaces!"},
        )
        with urllib.request.urlopen(req, timeout=30) as resp:
            minted = resp.headers["X-Repro-Trace-Id"]
        assert minted and minted != "bad id with spaces!"

    def test_error_responses_carry_the_id_too(self, server_factory):
        url, _ = server_factory()
        client = ServeClient(url)
        with pytest.raises(ServeError):
            client.classify({"topology": "no-such-topology"})
        assert client.last_trace_id


class TestTraceEndpoint:
    def test_workers0_classify_tree(self, server_factory):
        url, _ = server_factory()
        client = ServeClient(url)
        client.classify(SPEC)
        tid = client.last_trace_id
        trace = client.trace(tid)
        assert trace["trace_id"] == tid
        names = _names(trace["tree"])
        assert {"ingress", "admission", "batch", "worker",
                "flow.classify", "flow.solve"} <= names
        (root,) = trace["tree"]
        assert root["name"] == "ingress"
        assert root["attrs"]["path"] == "/v1/classify"

    def test_pooled_classify_tree(self, server_factory):
        url, _ = server_factory(workers=2)
        client = ServeClient(url)
        client.classify(SPEC)
        trace = client.trace(client.last_trace_id)
        names = _names(trace["tree"])
        assert {"ingress", "admission", "batch", "worker",
                "flow.classify", "flow.solve"} <= names
        workers = [n for n in _flatten(trace["tree"]) if n["name"] == "worker"]
        assert workers[0]["attrs"]["worker"] in (0, 1)

    def test_simulate_tree_crosses_the_batcher(self, server_factory):
        url, _ = server_factory()
        client = ServeClient(url)
        client.simulate(SPEC, horizon=100, seed=1)
        names = _names(client.trace(client.last_trace_id)["tree"])
        assert {"ingress", "batch", "batch.exec", "worker",
                "sim.run"} <= names

    def test_unknown_trace_is_structured_404(self, server_factory):
        url, _ = server_factory()
        client = ServeClient(url)
        with pytest.raises(ServeError) as err:
            client.trace("0000000000000000")
        assert err.value.status == 404
        assert err.value.error == "trace-not-found"

    def test_healthz_reports_ring_state(self, server_factory):
        url, _ = server_factory()
        client = ServeClient(url)
        client.classify(SPEC)
        health = client.healthz()
        assert health["trace"]["ring_capacity"] > 0
        assert health["trace"]["spans"] > 0
        assert health["trace"]["dropped"] == 0


def _flatten(tree):
    stack = list(tree)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node["children"])


class TestPooledDifferential:
    def test_workers0_and_pooled_trees_match_modulo_identity(
            self, server_factory):
        trees = {}
        for workers in (0, 2):
            url, _ = server_factory(workers=workers)
            client = ServeClient(url)
            client.classify({**SPEC, "seed": 77 + workers})
            spans = client.trace(client.last_trace_id)["spans"]
            trees[workers] = normalized_tree(
                spans, drop_attrs=("worker", "cache_hit"))
        assert trees[0] == trees[2]


class TestMergedMetrics:
    def test_content_type(self, server_factory):
        url, _ = server_factory()
        req = urllib.request.Request(url + "/metrics")
        with urllib.request.urlopen(req, timeout=30) as resp:
            assert resp.headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE

    def test_worker_labels_and_restart_survival(self, server_factory):
        url, server = server_factory(workers=2)
        client = ServeClient(url)
        for seed in range(4):
            client.classify({**SPEC, "seed": 100 + seed})

        def worker_counters():
            parsed = parse_exposition(client.metrics_text())
            snap = {}
            for name, labels, value in parsed["samples"]:
                if "worker" in labels and name.endswith("_total"):
                    snap.setdefault(name, {"kind": "counter", "series": []})
                    snap[name]["series"].append(
                        {"labels": labels, "value": value})
            return snap

        before = worker_counters()
        warm = [s for s in before.get(
            "repro_flow_warm_solves_total", {"series": []})["series"]]
        assert warm, before.keys()

        # SIGKILL one worker; its banked counts must survive the respawn
        pool = server.pool
        victim = pool.worker_pids()[0]
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 10
        while pool.alive_count == 2 and time.monotonic() < deadline:
            time.sleep(0.02)
        for seed in range(4, 8):
            client.classify({**SPEC, "seed": 100 + seed})
        deadline = time.monotonic() + 10
        while pool.restarts == 0 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert pool.restarts >= 1

        after = worker_counters()
        assert counter_regressions(before, after) == []

    def test_scrape_counts_exactly_and_runs_no_task(self, server_factory):
        # the page is built from the snapshots on task replies: its sums
        # are exact, and scraping adds nothing to the workers' task counts
        url, _ = server_factory(workers=2)
        client = ServeClient(url)
        for seed in range(6):
            client.classify({**SPEC, "seed": 200 + seed})
        client.classify({**SPEC, "seed": 200})
        samples = parse_exposition(client.metrics_text())["samples"]

        def worker_sum(name):
            return sum(value for sample, labels, value in samples
                       if sample == name and "worker" in labels)

        assert worker_sum("repro_feasibility_cache_misses_total") == 6
        assert worker_sum("repro_feasibility_cache_hits_total") == 1
        assert client.healthz()["workers"]["completed"] == {"classify": 7}

    def test_workers0_page_has_no_worker_labels(self, server_factory):
        # the in-process tier serves the registry's own page — no merge,
        # no worker dimension (back-compat with pre-pool scrapers)
        url, _ = server_factory()
        client = ServeClient(url)
        client.classify(SPEC)
        parsed = parse_exposition(client.metrics_text())
        assert all("worker" not in labels
                   for _, labels, _ in parsed["samples"])
        assert "repro_serve_requests_total" in parsed["types"]
