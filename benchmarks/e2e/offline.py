"""The three offline workloads: ``region_map``, ``simulate_long``, ``mobility_churn``.

Each workload class builds its inputs from the seed in ``__init__`` (that
is set-up time), and exposes:

``op(i)``
    Operation ``i`` of the run, on input ``i mod len(inputs)``.  It calls
    the program's public functions inside benchmark spans named
    ``bench.*`` — free while spans are off — and returns
    ``(answer, info)``: a JSON-able exact answer (hashed into
    ``outputs_sha256``) and the per-op facts the layer metrics need.
``warmup()``
    One operation on an input outside the measured sequence.
``check(answers, infos)``
    Correctness checks against the oracles, run after the timed window.
    Returns ``{check_name: (ran, failed)}``.

Why each workload, and what it should and should not move, is in
``benchmarks/e2e/README.md``.
"""

from __future__ import annotations

import hashlib
import time
from fractions import Fraction

import numpy as np

from repro.obs import span


def _ints_digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=np.int64)).tobytes())
        h.update(b"|")
    return h.hexdigest()


# ----------------------------------------------------------------------
# region_map
# ----------------------------------------------------------------------
class RegionMap:
    """Classify + exact region envelope of one distinct random network per op.

    The flow stack does nearly all the work; every instance is distinct,
    so nothing a cache could hold is reused.
    """

    #: (family, n, family knobs); 6 sources and 6 sinks each
    FAMILIES = (
        ("gnp", 96, {"p": 0.08}),
        ("gnp", 160, {"p": 0.08}),
        ("geometric", 80, {"radius": 0.2}),
        ("ba", 128, {}),
        ("ws", 128, {}),
    )
    #: load scales read off each envelope (the e03 inflation axis)
    SCALES = tuple(Fraction(k, 4) for k in range(1, 17))
    INSTANCES = 1200
    #: fixed op prefix that outputs_sha256 and per-op counts cover
    PREFIX = 100
    COLD_CHECK_EVERY = 25

    def __init__(self, seed: int) -> None:
        from repro.sweep.points import random_instance_spec

        self._make = random_instance_spec
        self.seed = seed
        self.specs = [self._spec(i) for i in range(self.INSTANCES)]

    def _spec(self, i: int):
        family, n, knobs = self.FAMILIES[i % len(self.FAMILIES)]
        params = {"family": family, "n": n, "sources": 6, "sinks": 6,
                  "in_rate": 4, "out_rate": 6, **knobs}
        return self._make(params, self.seed * 1_000_003 + i)

    def warmup(self) -> None:
        self._solve(self._spec(self.INSTANCES))

    def _solve(self, spec):
        from repro.flow.feasibility import classify_network, classify_region
        from repro.serve.codec import report_to_json

        with span("bench.op"):
            with span("bench.extended"):
                ext = spec.extended()
            with span("bench.classify"):
                report = classify_network(ext)
            with span("bench.region"):
                region = classify_region(ext)
            with span("bench.envelope_read"):
                env = region.envelope
                values = [str(env.value_at(s)) for s in self.SCALES]
        return {"classify": report_to_json(report),
                "region_class": region.network_class.value,
                "lambda_star": str(region.lambda_star),
                "values": values}

    def op(self, i: int):
        return self._solve(self.specs[i % len(self.specs)]), {}

    def check(self, answers: dict, infos: dict) -> dict:
        from repro.flow.feasibility import classify_network_cold
        from repro.serve.codec import report_to_json

        disagree = sum(a["classify"]["network_class"] != a["region_class"]
                       for a in answers.values())
        cold_ran = cold_failed = 0
        for i in sorted(answers):
            if i % self.COLD_CHECK_EVERY:
                continue
            cold = classify_network_cold(self.specs[i % len(self.specs)].extended())
            cold_ran += 1
            cold_failed += report_to_json(cold) != answers[i]["classify"]
        return {"classify_region_agree": (len(answers), disagree),
                "classify_vs_cold": (cold_ran, cold_failed)}


# ----------------------------------------------------------------------
# simulate_long
# ----------------------------------------------------------------------
class SimulateLong:
    """Long LGG runs: the e03/e04 bottleneck sweeps, classical random runs
    on both sides of λ*, runs the integer kernel declines (losses,
    asynchronous nodes) and batched ensembles.

    ``core`` does all the work; the flow stack only sizes the inputs in
    set-up.  Operations of the four kinds are interleaved evenly, so any
    prefix of the sequence has the same mix.
    """

    SWEEPS = [(k, 6000) for k in range(1, 9)] + [(k, 8000) for k in range(5, 9)]
    SIZES = (48, 52, 56, 60, 64)
    CLASSICAL_PER_SIDE = 20
    CLASSICAL_HORIZON = 4000
    DECLINED_HORIZON = 1500
    ENSEMBLES = 16
    ENSEMBLE_REPLICAS = 8
    ENSEMBLE_HORIZON = 1000
    PREFIX = 20
    PIPELINE_CHECK_EVERY = 10

    def __init__(self, seed: int) -> None:
        from repro.exp.workloads import bottleneck_spec
        from repro.loss.models import BernoulliLoss

        self.seed = seed
        sweeps = [("sweep", bottleneck_spec(k, width=8, bridge=4), h, {"seed": 0}, 1)
                  for k, h in self.SWEEPS]
        instances = self._instances(seed)
        classical = [("classical", spec, self.CLASSICAL_HORIZON, {"seed": j}, 1)
                     for j, spec in enumerate(instances)]
        declined = []
        for j, spec in enumerate(instances):
            # instances alternate stable/divergent: switch knobs every pair
            knobs = ({"losses": BernoulliLoss(0.05)} if j // 2 % 2 == 0
                     else {"activation_prob": 0.9})
            declined.append(("declined", spec, self.DECLINED_HORIZON,
                             {"seed": j, **knobs}, 1))
        ensembles = [("ensemble", instances[j % len(instances)],
                      self.ENSEMBLE_HORIZON, {"loss_p": 0.05}, self.ENSEMBLE_REPLICAS)
                     for j in range(self.ENSEMBLES)]
        # even interleave: op j of a kind list of length L sits at (j+½)/L
        groups = (sweeps, classical, declined, ensembles)
        keyed = [((j + 0.5) / len(g), gi, op)
                 for gi, g in enumerate(groups) for j, op in enumerate(g)]
        self.ops = [op for _, _, op in sorted(keyed, key=lambda t: t[:2])]
        self._warm = instances[0]

    def _instances(self, seed: int) -> list:
        """Random gnp networks, half with λ* > 1 (stable) and half with
        λ* < 1 (divergent), the same number of each size on each side —
        run cost grows with size, so a seed must not shift the size mix.
        The network class gives the side of λ* with one max-flow, where
        λ* itself takes an envelope.  Rate ceilings of 3 on both sides
        make the two sides about equally likely (at 2 in, 3 out only one
        draw in nine diverged, and set-up time swung with the seed)."""
        from repro.flow.feasibility import NetworkClass, classify_network
        from repro.sweep.points import random_instance_spec

        per_cell = self.CLASSICAL_PER_SIDE // len(self.SIZES)
        cells = {(side, n): [] for side in (True, False) for n in self.SIZES}
        i = 0
        while any(len(c) < per_cell for c in cells.values()):
            n = self.SIZES[i % len(self.SIZES)]
            spec = random_instance_spec(
                {"family": "gnp", "n": n, "p": 0.1, "sources": 3, "sinks": 3,
                 "in_rate": 3, "out_rate": 3}, seed * 1_000_003 + i)
            cls = classify_network(spec.extended()).network_class
            cell = cells[(cls is NetworkClass.UNSATURATED, n)]
            if cls is not NetworkClass.SATURATED and len(cell) < per_cell:
                cell.append(spec)
            i += 1
        return [cells[(side, n)][k] for k in range(per_cell)
                for n in self.SIZES for side in (True, False)]

    def warmup(self) -> None:
        from repro.core.engine import SimulationConfig, Simulator
        from repro.core.ensemble import EnsembleSimulator

        cfg = SimulationConfig(horizon=200, seed=0)
        Simulator(self._warm, config=cfg).run()
        Simulator(self._warm, config=SimulationConfig(horizon=200, seed=0,
                                                      activation_prob=0.9)).run()
        EnsembleSimulator(self._warm, 2, seeds=[0, 1], config=cfg, loss_p=0.05).run()

    def _run(self, entry, *, numeric_fastpath=None):
        from repro.core.engine import SimulationConfig, Simulator
        from repro.core.ensemble import EnsembleSimulator
        from repro.numeric import fastpath_steps_total

        kind, spec, horizon, knobs, replicas = entry
        before = fastpath_steps_total()
        with span("bench.op"):
            with span("bench.construct"):
                if kind == "ensemble":
                    sim = EnsembleSimulator(
                        spec, replicas, seeds=[self.seed * 100 + r for r in range(replicas)],
                        config=SimulationConfig(horizon=horizon), loss_p=knobs["loss_p"])
                else:
                    sim = Simulator(spec, config=SimulationConfig(
                        horizon=horizon, numeric_fastpath=numeric_fastpath, **knobs))
            with span("bench.run") as sp:
                res = sim.run()
                fast = fastpath_steps_total() - before
                engine = ("ensemble" if kind == "ensemble"
                          else "kernel" if fast == horizon else "pipeline")
                sp.set("kind", engine)
        if kind == "ensemble":
            answer = _ints_digest(res.total_queued, res.potentials, res.max_queues,
                                  res.injected_series, res.transmitted_series,
                                  res.lost_series, res.delivered_series, res.final_queues,
                                  [v.bounded for v in res.verdicts])
        else:
            t = res.trajectory
            answer = _ints_digest(t.potentials, t.total_queued, t.max_queues,
                                  t.injected, t.transmitted, t.lost, t.delivered,
                                  res.final_queues,
                                  [res.verdict.bounded, res.verdict.divergent])
        return answer, {"engine": engine, "steps": horizon, "replicas": replicas,
                        "fast_steps": fast}

    def op(self, i: int):
        return self._run(self.ops[i % len(self.ops)])

    def check(self, answers: dict, infos: dict) -> dict:
        kernel_ops = [i for i in sorted(answers) if infos[i]["engine"] == "kernel"]
        sampled = kernel_ops[::self.PIPELINE_CHECK_EVERY]
        failed = 0
        for i in sampled:
            answer, _ = self._run(self.ops[i % len(self.ops)], numeric_fastpath=False)
            failed += answer != answers[i]
        return {"kernel_vs_pipeline": (len(sampled), failed)}


# ----------------------------------------------------------------------
# mobility_churn
# ----------------------------------------------------------------------
class MobilityChurn:
    """Feasibility timelines of random-waypoint traces.

    Two of every five traces are slow and dense (small link deltas: the
    warm chain answers most snapshots); three are fast, where links leave
    between snapshots and the timeline falls back to cold solves.  The
    two kinds differ several-fold in cost, so an even split would put the
    median on the boundary between them; 2:3 keeps both percentiles
    inside the fast kind.
    """

    TRACES = 64
    STEPS = 48
    PREFIX = 30
    COLD_CHECK_EVERY = 10

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        slow = [i for i in range(self.TRACES) if i % 5 < 2]
        fast = [i for i in range(self.TRACES) if i % 5 >= 2]

        def strata(count: int) -> np.ndarray:
            # one draw per equal-width stratum of [0, 1), shuffled (a Latin
            # hypercube): every seed covers each knob's whole range evenly
            return (rng.permutation(count) + rng.random(count)) / count

        params = {}
        for i, u_n, u_r, u_v in zip(slow, strata(len(slow)), strata(len(slow)),
                                    strata(len(slow))):
            params[i] = (32 + int(9 * u_n), 0.35 + 0.05 * u_r, 0.005 + 0.015 * u_v)
        for i, u_v in zip(fast, strata(len(fast))):
            params[i] = (48, 0.30, 0.05 + 0.05 * u_v)
        self.generate_s = []
        self.traces = [self._generate(params[i], seed * 1_000_003 + i)
                       for i in range(self.TRACES)]
        self._warm = self._generate((32, 0.35, 0.01), seed * 1_000_003 + self.TRACES)

    def _generate(self, params, seed: int):
        from repro.mobility import MobilityTrace, RandomWaypoint

        n, radius, speed = params
        tick = time.perf_counter()
        trace = MobilityTrace.generate(RandomWaypoint(speed=speed), n, radius=radius,
                                       steps=self.STEPS, seed=seed)
        self.generate_s.append(time.perf_counter() - tick)
        return trace

    @staticmethod
    def _timeline(trace, timeline=None):
        from repro.mobility import feasibility_timeline

        timeline = timeline or feasibility_timeline
        with span("bench.op"):
            with span("bench.timeline"):
                tl = timeline(trace, {0: 1}, {trace.n - 1: 2})
        return [[e.t, e.feasible, str(e.max_flow_value)] for e in tl.entries]

    def warmup(self) -> None:
        self._timeline(self._warm)

    def op(self, i: int):
        return self._timeline(self.traces[i % len(self.traces)]), {}

    def check(self, answers: dict, infos: dict) -> dict:
        from repro.mobility import feasibility_timeline_cold

        ran = failed = 0
        for i in sorted(answers):
            if i >= len(self.traces) or i % self.COLD_CHECK_EVERY:
                continue
            cold = self._timeline(self.traces[i], feasibility_timeline_cold)
            ran += 1
            failed += cold != answers[i]
        return {"timeline_vs_cold": (ran, failed)}


OFFLINE = {
    "region_map": RegionMap,
    "simulate_long": SimulateLong,
    "mobility_churn": MobilityChurn,
}
