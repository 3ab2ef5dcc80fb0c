"""One workload in a fresh process: ``python -m benchmarks.e2e.child ARGS_JSON``.

The harness starts one of these per workload (plus set-up-only probes),
so set-up time and peak memory are the workload's own and no cache
carries over from another workload.  ``ARGS_JSON`` holds ``workload``,
``seed``, ``seconds``, ``ops`` (a fixed op count instead of a timed
window, or null), ``trace``, ``setup_only`` and ``t0`` — the parent's
``time.monotonic()`` just before the spawn, so ``setup_s`` runs from the
start of this process to the start of the timed window.

The result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import time

from benchmarks.e2e import PER_LAYER
from benchmarks.e2e.layers import counter_totals, fold
from benchmarks.e2e.stats import percentile


def freeze_inputs() -> None:
    """Move everything set-up built into the garbage collector's permanent
    generation.  Otherwise full collections keep re-scanning the inputs,
    and where those pauses land adds more run-to-run noise than the
    inputs themselves do."""
    gc.collect()
    gc.freeze()


class OfflineRun:
    """The timed window of an offline workload, and its accounting.

    Untraced, each op runs once with observability off and its wall time
    is a latency sample.  Traced, each op runs twice — once with the
    metrics registry and a span ring on, once with both off, alternating
    which goes first — so ``obs.trace_overhead_pct`` compares the same
    work, and the layer numbers come from the traced executions only.
    """

    def __init__(self, workload, *, trace: bool, prefix: int) -> None:
        import repro.obs as obs

        self.wl = workload
        self.trace = trace
        self.prefix = prefix
        self.obs = obs
        self.ring = obs.RingBufferSink(capacity=1 << 20) if trace else None
        self.answers: dict = {}
        self.infos: dict = {}
        self.latencies: list = []
        self.records: list = []
        self.deltas: dict = {}          # op index (< prefix) -> counter deltas
        self.traced_s = self.untraced_s = 0.0
        self.traced_ops = 0
        self.attempted = self.failed = 0
        self.errors: list = []

    def _plain(self, i: int):
        tick = time.perf_counter()
        answer, info = self.wl.op(i)
        return time.perf_counter() - tick, answer, info

    def _traced(self, i: int):
        registry = self.obs.get_registry()
        previous = self.obs.configure(metrics=True, spans=self.ring)
        try:
            before = counter_totals(registry.render_prometheus())
            tick = time.perf_counter()
            answer, info = self.wl.op(i)
            elapsed = time.perf_counter() - tick
            after = counter_totals(registry.render_prometheus())
        finally:
            self.obs.configure(**previous)
        self.records.extend(self.ring.records)
        self.ring.clear()
        if i < self.prefix:
            self.deltas[i] = {k: v - before.get(k, 0) for k, v in after.items()}
        self.traced_ops += 1
        return elapsed, answer, info

    def step(self, i: int, *, timed: bool = True) -> None:
        self.attempted += 1
        try:
            if not self.trace:
                elapsed, answer, info = self._plain(i)
                if timed:
                    self.latencies.append(elapsed)
            elif not timed:
                _, answer, info = self._traced(i)
            else:
                order = (self._traced, self._plain) if i % 2 else (self._plain, self._traced)
                first = order[0](i)
                second = order[1](i)
                traced, plain = (first, second) if i % 2 else (second, first)
                self.traced_s += traced[0]
                self.untraced_s += plain[0]
                _, answer, info = traced
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            self.failed += 1
            self.errors.append(f"op {i}: {type(exc).__name__}: {exc}")
            return
        self.answers[i] = answer
        self.infos[i] = info

    def layer_metrics(self, layers: dict) -> dict:
        """The per-layer metrics, from the folded ``layers`` table of the
        traced executions and the counter deltas of the op prefix."""
        n = max(1, self.traced_ops)

        def ms(key: str, field: str = "total_s") -> float:
            return 1e3 * layers.get(key, {}).get(field, 0.0)

        counts: dict = {}
        for delta in self.deltas.values():
            for k, v in delta.items():
                counts[k] = counts.get(k, 0) + v
        k_ops = max(1, len(self.deltas))
        prefix_infos = [self.infos[i] for i in self.deltas if i in self.infos]
        traced_infos = list(self.infos.values())

        def steps(engine: str) -> int:
            return sum(info["steps"] * info["replicas"] for info in traced_infos
                       if info.get("engine") == engine)

        prefix_steps = sum(info["steps"] * info["replicas"] for info in prefix_infos
                           if "steps" in info)
        cold = counts.get("repro_mobility_solves_total{mode=cold}", 0)
        warm = counts.get("repro_mobility_solves_total{mode=warm}", 0)
        generate_s = getattr(self.wl, "generate_s", None)
        m = dict.fromkeys(PER_LAYER, 0.0)
        m.update({
            "graphs.extended_ms": ms("bench.extended") / n,
            "flow.classify_ms": ms("bench.classify") / n,
            "flow.region_ms": ms("bench.region") / n,
            "flow.cold_solves_per_op": counts.get("repro_flow_solves_total", 0) / k_ops,
            "flow.warm_solves_per_op": counts.get("repro_flow_warm_solves_total", 0) / k_ops,
            "flow.envelope_probes_per_op":
                counts.get("repro_flow_envelope_probes_total", 0) / k_ops,
            "flow.warm_augment_arcs_per_op":
                counts.get("repro_flow_warm_augment_arcs_total", 0) / k_ops,
            "flow.solve_cold_self_ms": ms("flow.solve[cold]", "self_s") / n,
            "flow.solve_warm_self_ms": ms("flow.solve[warm]", "self_s") / n,
            "numeric.fraction_fallbacks": counts.get("repro_core_fraction_fallbacks_total", 0),
            "core.kernel_us_per_step": (1e3 * ms("bench.run[kernel]") / steps("kernel")
                                        if steps("kernel") else 0.0),
            "core.pipeline_us_per_step": (1e3 * ms("bench.run[pipeline]") / steps("pipeline")
                                          if steps("pipeline") else 0.0),
            "core.kernel_step_share": (sum(i.get("fast_steps", 0) for i in prefix_infos)
                                       / prefix_steps if prefix_steps else 0.0),
            "core.ensemble_us_per_replica_step":
                (1e3 * ms("bench.run[ensemble]") / steps("ensemble")
                 if steps("ensemble") else 0.0),
            "core.construct_ms": ms("bench.construct") / n,
            "mobility.generate_ms": (1e3 * sum(generate_s) / len(generate_s)
                                     if generate_s else 0.0),
            "mobility.timeline_ms": ms("bench.timeline") / n,
            "mobility.cold_solves_per_trace": cold / k_ops,
            "mobility.warm_share": warm / (warm + cold) if warm + cold else 0.0,
            "obs.trace_overhead_pct": (100.0 * (self.traced_s / self.untraced_s - 1.0)
                                       if self.untraced_s else 0.0),
        })
        return m


def run_offline(args: dict) -> dict:
    from benchmarks.e2e.offline import OFFLINE

    workload = OFFLINE[args["workload"]](args["seed"])
    workload.warmup()
    freeze_inputs()
    setup_s = time.monotonic() - args["t0"]
    if args["setup_only"]:
        return {"setup_s": setup_s}

    ops, seconds = args["ops"], args["seconds"]
    prefix = ops if ops is not None else workload.PREFIX
    run = OfflineRun(workload, trace=args["trace"], prefix=prefix)
    start = time.perf_counter()
    i = 0
    while (i < ops) if ops is not None else (time.perf_counter() - start < seconds):
        run.step(i)
        i += 1
    window_s = time.perf_counter() - start
    completed = len(run.answers)
    for j in range(i, prefix):  # the fixed prefix always completes, off the clock
        run.step(j, timed=False)

    checks = workload.check(run.answers, run.infos)
    mismatches = sum(failed for _, failed in checks.values())
    result = {
        "setup_s": setup_s,
        "ops_attempted": run.attempted,
        "ops_failed": run.failed + mismatches,
        "errors": run.errors[:5],
        "checks": {name: list(v) for name, v in checks.items()},
        "answers": [run.answers.get(j) for j in range(prefix)],
        "diagnostics": {"window_s": window_s, "window_ops": i},
        "layers": None,
    }
    if args["trace"]:
        result["layers"] = fold(run.records)
        result["metrics"] = run.layer_metrics(result["layers"]["layers"])
        return result
    lat = run.latencies
    result["metrics"] = {
        "throughput_ops_per_s": completed / window_s,
        "latency_p50_ms": 1e3 * percentile(lat, 50),
        "latency_p90_ms": 1e3 * percentile(lat, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result["diagnostics"]["latency_p99_ms"] = 1e3 * percentile(lat, 99)
    return result


def run_serve(args: dict) -> dict:
    from benchmarks.e2e.serve_mixed import ServeMixed

    workload = ServeMixed(args["seed"], args["seconds"], args["ops"])
    try:
        freeze_inputs()
        setup_s = time.monotonic() - args["t0"]
        if args["setup_only"]:
            return {"setup_s": setup_s}
        result = workload.measure(args["trace"])
    finally:
        workload.close()
    result["setup_s"] = setup_s
    return result


def main(argv=None) -> int:
    args = json.loads((argv if argv is not None else sys.argv[1:])[0])
    run = run_serve if args["workload"] == "serve_mixed" else run_offline
    result = run(args)
    if "answers" in result:
        blob = json.dumps(result.pop("answers"), sort_keys=True).encode()
        result["outputs_sha256"] = hashlib.sha256(blob).hexdigest()
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
