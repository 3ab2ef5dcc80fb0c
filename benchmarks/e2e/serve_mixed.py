"""``serve_mixed``: HTTP load against ``python -m repro serve --workers 1``.

The server runs as its own process (started in set-up, stopped after the
measurement): an in-process server shares the load generator's
interpreter lock, and the generator's own lag then dominates what is
measured.  One worker process and the default two compute threads keep
the program side at two cores; the generator holds at most two
connections in flight.

Traffic mix, in exact shares per phase: 45% ``/v1/classify``, 35%
``/v1/region``, 20% ``/v1/simulate``.  A quarter of the classify/region
requests re-ask one of 32 hot specs, answered from the worker's
feasibility cache once the warm-up has asked each of them on both
endpoints; the rest are distinct.  Simulate requests draw from 16 specs
× 2 seeds, so concurrent identical configurations can coalesce into one
ensemble batch.

Phase A is a closed loop at concurrency 2: a warm-up window, then three
windows whose median 2xx rate is the throughput (capacity).  Phase B is an
open-loop Poisson run at a fixed 30 requests/s; its latency is timed from
each request's *scheduled* time, so a stall also charges the requests
queued behind it.  ``LoadReport.p50``/``p99`` time from the actual start
instead; how late the generator started each request is reported beside
it as ``loadgen.lag_p90_ms`` (with ``max_open=2`` that includes waiting
for a free connection slot).

Steadiness decided three of these numbers, each measured over 8–10
seeds on a shared 2-core machine.  At 40 requests/s one slow second of
the host queues the single worker and the p90 spread (interquartile
distance ÷ median) was 0.21–0.27; at 30 it was 0.10–0.15.  With half of
the flow requests hot, the median fell between the hot and the distinct
requests (p50 spread 0.29 at 40 requests/s, 0.19 with a quarter hot).
Simulate cost differs by spec and the p90 sits inside the simulate
requests, so 16 specs instead of 8 make the seed move it less.
"""

from __future__ import annotations

import json
import os
import random
import select
import signal
import subprocess
import sys
import time

from benchmarks.e2e.layers import counter_totals, fold
from benchmarks.e2e.stats import percentile

RATE_RPS = 30.0
MAX_OPEN = 2
CONCURRENCY = 2
HOT_SPECS = 32
HOT_EVERY = 4      # one classify/region request in HOT_EVERY re-asks a hot spec
SIM_SPECS = 16
SIM_SEEDS = 2
SIM_HORIZON = 1000
WARM_EXTRA = 36    # mixed warm-up requests on top of one per hot (spec, endpoint)
#: shares of --seconds: each of phase A's three windows, and phase B (the
#: open-loop latencies are the noisier numbers, so B gets most of the run)
A_WINDOW_SHARE, B_SHARE = 0.07, 0.75
ORACLE_EVERY = 5   # phase-B responses checked against the in-process oracle
TRACE_EVERY = 4    # phase-B requests whose span tree is folded (traced run)
START_TIMEOUT_S = 60.0


def _flow_spec(seed: int) -> dict:
    return {"topology": "gnp", "n": 48, "p": 0.15, "seed": seed,
            "in_rate": 1 + seed % 3, "out_rate": 2 + seed % 3}


def _sim_spec(seed: int) -> dict:
    return {"topology": "gnp", "n": 32, "p": 0.15, "seed": seed,
            "in_rate": 1 + seed % 2, "out_rate": 2}


class Mix:
    """Seeded request lists in exact shares; ``stream`` separates the
    phases, so each phase's requests depend only on the seed, not on how
    many requests an earlier phase sent."""

    def __init__(self, seed: int, stream: int) -> None:
        self.rng = random.Random(seed * 1_000 + stream)
        self.hot = [_flow_spec(seed * 1_000 + j) for j in range(HOT_SPECS)]
        self.sims = [_sim_spec(seed * 1_000 + 500 + j) for j in range(SIM_SPECS)]
        self.distinct = 10_000_000 * (1 + stream) + 100_000 * seed

    def _flow(self, path: str, hot: bool):
        from repro.loadgen import RequestSpec

        if hot:
            spec = self.hot[self.rng.randrange(HOT_SPECS)]
        else:
            spec = _flow_spec(self.distinct)
            self.distinct += 1
        return RequestSpec("POST", path, {"spec": spec})

    def requests(self, count: int) -> list:
        from repro.loadgen import simulate_request

        n_sim = round(0.20 * count)
        n_region = round(0.35 * count)
        n_classify = count - n_sim - n_region
        out = [simulate_request(self.sims[self.rng.randrange(SIM_SPECS)],
                                horizon=SIM_HORIZON, seed=self.rng.randrange(SIM_SEEDS))
               for _ in range(n_sim)]
        for path, n in (("/v1/region", n_region), ("/v1/classify", n_classify)):
            out += [self._flow(path, hot=k % HOT_EVERY == 0) for k in range(n)]
        self.rng.shuffle(out)
        return out

    def warmup(self, extra: int) -> list:
        """Every hot spec on both flow endpoints, plus ``extra`` mixed requests."""
        from repro.loadgen import RequestSpec

        out = [RequestSpec("POST", path, {"spec": spec})
               for spec in self.hot for path in ("/v1/classify", "/v1/region")]
        out += self.requests(extra)
        self.rng.shuffle(out)
        return out


def _ended(pid: int) -> bool:
    """Has ``pid`` exited (gone, or a zombie awaiting its reaper)?"""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(") ", 1)[-1].startswith("Z")
    except FileNotFoundError:
        return True


def _vm_hwm_mb(pids: list) -> float:
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def _oracle(request) -> dict:
    """The response body the in-process code gives for ``request``."""
    from repro.flow.feasibility import classify_network, classify_region
    from repro.serve import direct_simulate
    from repro.serve.codec import parse_spec, region_response, report_to_json

    payload = request.payload
    spec = parse_spec(payload["spec"])
    if request.path == "/v1/classify":
        body = report_to_json(classify_network(spec.extended()))
    elif request.path == "/v1/region":
        report = classify_region(spec.extended())
        body = region_response(report.envelope, report)
    else:
        body = direct_simulate(spec, payload["horizon"], payload["seed"], payload["loss_p"])
    return json.loads(json.dumps(body))


def _answer(body: dict) -> dict:
    """A response body without the fields that depend on timing (cache
    state, batch membership) or echo the request."""
    return {k: v for k, v in body.items()
            if k not in ("cache_hit", "batch", "horizon", "seed")}


class ServeMixed:
    """Set-up (request lists, server start, one warm request) in the
    constructor; :meth:`measure` runs both phases; :meth:`close` stops the
    server and its workers."""

    def __init__(self, seed: int, seconds: float, ops) -> None:
        from repro.loadgen import poisson_schedule

        self.seed, self.seconds, self.ops = seed, seconds, ops
        self.warm_requests = Mix(seed, 0).warmup(ops or WARM_EXTRA)
        if ops is not None:
            self.schedule = [k / RATE_RPS for k in range(1, ops + 1)]
        else:
            self.schedule = poisson_schedule(RATE_RPS, duration=B_SHARE * seconds, seed=seed)
        self.b_requests = Mix(seed, 4).requests(len(self.schedule))
        self.worker_pids: list = []
        self.proc = None
        try:
            self.url = self._start_server()
            self.client.classify(_flow_spec(999_999_999))  # the warm request
        except BaseException:
            self.close()
            raise

    def _start_server(self) -> str:
        from repro.serve import ServeClient

        # close() stops the server with SIGINT.  A benchmark started in the
        # background by a non-interactive shell inherits SIGINT ignored, and
        # an ignored signal stays ignored across exec; a handler does not.
        signal.signal(signal.SIGINT, signal.default_int_handler)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "1"],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + START_TIMEOUT_S
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "listening on " not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        url = line.strip().rsplit(" ", 1)[-1]
        self.client = ServeClient(url, timeout=30.0)
        while True:
            try:
                health = self.client.healthz()
                break
            except OSError:
                if time.monotonic() > deadline or self.proc.poll() is not None:
                    raise RuntimeError("server never answered /healthz") from None
                time.sleep(0.02)
        self.worker_pids = [w["pid"] for w in health["workers"]["per_worker"]]
        return url

    def close(self) -> None:
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
        if proc.returncode == 0:
            return  # a clean shutdown: the pool has joined its workers
        # the server died or was killed, so its workers may be orphans
        for pid in self.worker_pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                continue
            deadline = time.monotonic() + 5.0
            while not _ended(pid) and time.monotonic() < deadline:
                time.sleep(0.02)

    def measure(self, trace: bool) -> dict:
        from repro.loadgen import run_closed_loop, run_open_loop

        url, seconds, ops = self.url, self.seconds, self.ops
        # phase A: closed loop; the warm-up window's rate sizes the
        # measured windows to A_WINDOW_SHARE of the run each
        warm = run_closed_loop(url, self.warm_requests, concurrency=CONCURRENCY, timeout=30.0)
        counters_before = counter_totals(self.client.metrics_text()) if trace else {}
        per_window = ops or max(20, round(warm.throughput * A_WINDOW_SHARE * seconds))
        windows = [run_closed_loop(url, Mix(self.seed, 1 + w).requests(per_window),
                                   concurrency=CONCURRENCY, timeout=30.0)
                   for w in range(3)]
        # phase B: open loop at a fixed rate
        b_requests = self.b_requests
        report = run_open_loop(url, self.schedule, lambda i: b_requests[i],
                               timeout=30.0, max_open=MAX_OPEN, keep_bodies=True)
        # the pool may have respawned a worker: read the pids again
        health = self.client.healthz()
        self.worker_pids = [w["pid"] for w in health["workers"]["per_worker"]]
        rss_mb = _vm_hwm_mb([self.proc.pid] + self.worker_pids)
        layer_metrics = folded = None
        if trace:
            layer_metrics, folded = self._layer_metrics(report, counters_before)

        results = warm.results + [r for w in windows for r in w.results] + report.results
        bad = [r for r in results if not 200 <= r.status < 300]
        answers, mismatches = [], 0
        for r in report.results:
            if r.index % ORACLE_EVERY or not 200 <= r.status < 300:
                continue
            answer = _answer(r.body or {})
            mismatches += answer != _answer(_oracle(b_requests[r.index]))
            answers.append([r.index, answer])

        due = [r.finished - r.scheduled for r in report.results if 200 <= r.status < 300]
        lag = [r.started - r.scheduled for r in report.results]
        rates = [w.throughput for w in windows]
        return {
            "ops_attempted": len(results),
            "ops_failed": len(bad) + mismatches,
            "errors": [f"request {r.index}: status {r.status} {r.error or ''}".strip()
                       for r in bad[:5]],
            "checks": {"bodies_vs_oracle": [len(answers), mismatches]},
            "answers": answers,
            "metrics": layer_metrics if trace else {
                "throughput_ops_per_s": sorted(rates)[1],
                "latency_p50_ms": 1e3 * percentile(due, 50),
                "latency_p90_ms": 1e3 * percentile(due, 90),
                "peak_rss_mb": rss_mb,
            },
            "diagnostics": {
                "latency_p99_ms": 1e3 * percentile(due, 99),
                "phase_a_window_ops_per_s": rates,
                "phase_a_requests_per_window": per_window,
                "phase_b_requests": len(self.schedule),
                "loadgen_lag_p90_ms": 1e3 * percentile(lag, 90),
                "loadgen_lag_max_ms": 1e3 * max(lag),
            },
            "layers": folded,
        }

    def _layer_metrics(self, report, counters_before: dict) -> tuple[dict, dict]:
        """Per-layer numbers from ``/metrics`` deltas and the span trees of
        every ``TRACE_EVERY``-th phase-B request."""
        from benchmarks.e2e import PER_LAYER

        after = counter_totals(self.client.metrics_text())
        delta = {k: v - counters_before.get(k, 0.0) for k, v in after.items()}
        records, per_request = [], []
        for r in report.results:
            if r.index % TRACE_EVERY or r.trace_id is None or not 200 <= r.status < 300:
                continue
            spans = self.client.trace(r.trace_id)["spans"]
            records.extend(spans)
            per_request.append(fold(spans)["layers"])

        def p50_self_ms(keys) -> float:
            samples = [sum(row["self_s"] for k, row in layers.items() if keys(k))
                       for layers in per_request if any(keys(k) for k in layers)]
            return 1e3 * percentile(samples, 50) if samples else 0.0

        admission = [layers["admission"]["total_s"] for layers in per_request
                     if "admission" in layers]
        hits = delta.get("repro_feasibility_cache_hits_total", 0.0)
        misses = delta.get("repro_feasibility_cache_misses_total", 0.0)
        batches = delta.get("repro_serve_batches_total", 0.0)
        lag = [r.started - r.scheduled for r in report.results]
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update({
            "serve.ingress_self_ms": p50_self_ms(lambda k: k == "ingress"),
            "serve.admission_ms": 1e3 * percentile(admission, 50) if admission else 0.0,
            "serve.batch_wait_ms": p50_self_ms(lambda k: k == "batch[simulate]"),
            # the parent-side span that waits on the worker, minus the
            # worker's own span: pickling, pipe transit, the worker's queue
            "serve.worker_ipc_ms": p50_self_ms(
                lambda k: k in ("batch[classify]", "batch[region]", "batch.exec")),
            "serve.flow_self_ms": p50_self_ms(lambda k: k.startswith("flow.")),
            "serve.sim_self_ms": p50_self_ms(lambda k: k.startswith("sim.run")),
            "serve.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "serve.batch_size_mean": (delta.get("repro_serve_batched_requests_total", 0.0)
                                      / batches if batches else 0.0),
            "serve.shed_total": delta.get("repro_serve_shed_total", 0.0),
            "serve.worker_restarts_total": delta.get("repro_serve_worker_restarts_total", 0.0),
            "loadgen.lag_p90_ms": 1e3 * percentile(lag, 90),
        })
        return metrics, fold(records)
