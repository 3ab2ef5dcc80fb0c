"""Differential matrix for the exact integer fast paths.

Two fast paths share the ``repro.numeric`` contract "bit-identical or
decline": the integer LGG kernel (:mod:`repro.core.fastpath`, auto-engaged
through its one front end ``maybe_run`` by ``Simulator`` and
``EnsembleSimulator`` alike) and the scaled-integer feasibility classifier
(:func:`repro.flow.classify_network`).  Both keep their slow twin alive as
the oracle — the stage pipeline (``numeric_fastpath=False``) and the
pure-``Fraction`` :func:`classify_network_cold` — and this module asserts
exact equality across randomized instances:

* LGG: random connected graphs x integer rates x both deterministic
  tie-breaks x optional initial queues x optional queue recording, single
  runs (``R = 1``) and ensembles, full trajectory equality;
* the kernel's cycle check: the transient and minimal period read off
  the pipeline's queue history fix the step at which the ``sim.run``
  span must start reporting ``period``, and horizons around that step
  must still equal the pipeline;
* flow: all-integral and mixed-denominator capacity specs x every cold
  oracle engine (``tests/flow/engines.py``), full report equality, with the engagement
  counters asserting *zero* Fraction fallbacks on scalable specs and a
  recorded fallback (still exact) when a pathological denominator trips
  the magnitude guard.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.engine import SimulationConfig, Simulator
from repro.core.ensemble import EnsembleSimulator
from repro.core.tiebreak import TieBreak
from repro.errors import SimulationError
from repro.exp.workloads import bottleneck_spec
import repro.flow.parametric as parametric
from repro.flow import FlowProblem
from repro.flow.feasibility import classify_network, classify_network_cold
from repro.flow.parametric import _Ladder, breakpoint_envelope
from repro.graphs import build_extended_graph
from repro.graphs import generators as gen
from repro.network import NetworkSpec
from repro.numeric import (
    fastpath_steps_total,
    fraction_fallbacks_total,
    reset_counters,
)
from repro.obs.metrics import get_registry
from repro.obs.trace import RingBufferSink
from repro.sweep.points import random_instance_spec
from tests.flow.engines import ENGINES, cold_engine

DETERMINISTIC_TIEBREAKS = [TieBreak.QUEUE_THEN_ID, TieBreak.QUEUE_THEN_REVERSED_ID]


def traj_facts(t):
    return (
        tuple(t.potentials),
        tuple(t.total_queued),
        tuple(t.max_queues),
        tuple(t.injected),
        tuple(t.transmitted),
        tuple(t.lost),
        tuple(t.delivered),
    )


def report_facts(report):
    # MinCut's dataclass __eq__ trips on the numpy side mask; compare fields
    return (
        report.network_class,
        report.arrival_rate,
        report.max_flow_value,
        report.f_star,
        report.certified_epsilon,
        report.cut_kind,
        report.unique_min_cut,
        tuple(report.min_cut.arcs),
        report.min_cut.capacity,
        tuple(report.min_cut.side.tolist()),
    )


# ----------------------------------------------------------------------
# LGG kernel vs stage pipeline
# ----------------------------------------------------------------------
@st.composite
def lgg_instances(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    n = draw(st.integers(4, 12))
    p = draw(st.floats(0.25, 0.7))
    g = gen.random_gnp(n, p, seed=seed, ensure_connected=True)
    rng = np.random.default_rng(seed)
    nodes = rng.permutation(n)
    n_src = draw(st.integers(1, 3))
    n_snk = draw(st.integers(1, 3))
    in_rates = {int(v): int(rng.integers(1, 4)) for v in nodes[:n_src]}
    out_rates = {int(v): int(rng.integers(1, 4)) for v in nodes[n_src:n_src + n_snk]}
    spec = NetworkSpec.classical(g, in_rates, out_rates)
    tiebreak = draw(st.sampled_from(DETERMINISTIC_TIEBREAKS))
    # assess_stability needs >= 8 trajectory samples, so horizon >= 7
    horizon = draw(st.integers(8, 120))
    q0 = rng.integers(0, 4, size=n).astype(np.int64) if draw(st.booleans()) else None
    record = draw(st.booleans())
    return spec, tiebreak, horizon, q0, record


class TestKernelVsPipeline:
    @given(lgg_instances())
    @settings(max_examples=40, deadline=None)
    def test_scalar_backend_bit_identical(self, inst):
        spec, tiebreak, horizon, q0, record = inst
        reset_counters()
        fast = Simulator(
            spec,
            config=SimulationConfig(horizon=horizon, tiebreak=tiebreak,
                                    record_queues=record),
            initial_queues=q0,
        ).run()
        assert fastpath_steps_total() == horizon  # the kernel, not the pipeline
        slow = Simulator(
            spec,
            config=SimulationConfig(horizon=horizon, tiebreak=tiebreak,
                                    record_queues=record, numeric_fastpath=False),
            initial_queues=q0,
        ).run()
        assert fastpath_steps_total() == horizon  # forced pipeline adds nothing
        assert traj_facts(fast.trajectory) == traj_facts(slow.trajectory)
        assert (fast.final_queues == slow.final_queues).all()
        assert fast.verdict == slow.verdict
        if record:
            fq, sq = fast.trajectory.queue_history, slow.trajectory.queue_history
            assert len(fq) == len(sq)
            assert all((a == b).all() for a, b in zip(fq, sq))

    @given(lgg_instances())
    @settings(max_examples=15, deadline=None)
    def test_batched_backend_bit_identical(self, inst):
        spec, tiebreak, horizon, q0, record = inst
        replicas = 3
        fast = EnsembleSimulator(
            spec, replicas, seed=0, initial_queues=q0,
            config=SimulationConfig(horizon=horizon, tiebreak=tiebreak,
                                    record_queues=record),
        ).run()
        slow = EnsembleSimulator(
            spec, replicas, seed=0, initial_queues=q0,
            config=SimulationConfig(horizon=horizon, tiebreak=tiebreak,
                                    record_queues=record, numeric_fastpath=False),
        ).run()
        for name in ("total_queued", "potentials", "max_queues", "injected_series",
                     "transmitted_series", "lost_series", "delivered_series",
                     "final_queues"):
            a, b = getattr(fast, name), getattr(slow, name)
            assert a.shape == b.shape and a.dtype == b.dtype and (a == b).all(), name
        assert fast.verdicts == slow.verdicts
        if record:
            assert (fast.queue_history == slow.queue_history).all()

    def test_random_tiebreak_stays_on_pipeline(self):
        spec = bottleneck_spec(3)
        reset_counters()
        Simulator(spec, config=SimulationConfig(
            horizon=30, seed=5, tiebreak=TieBreak.QUEUE_THEN_RANDOM,
        )).run()
        assert fastpath_steps_total() == 0

    def test_require_mode_raises_when_ineligible(self):
        spec = bottleneck_spec(3)
        cfg = SimulationConfig(horizon=10, numeric_fastpath=True,
                               activation_prob=0.5)
        with pytest.raises(SimulationError, match="not kernel-eligible"):
            Simulator(spec, config=cfg).run()

    def test_counters_mirror_into_metrics_registry(self):
        spec = bottleneck_spec(2)
        prev = obs.configure(metrics=True)
        try:
            before = get_registry().counter("repro_core_fastpath_steps_total").value
            Simulator(spec, config=SimulationConfig(horizon=25)).run()
            after = get_registry().counter("repro_core_fastpath_steps_total").value
            assert after - before == 25
        finally:
            obs.configure(**prev)


# ----------------------------------------------------------------------
# the kernel's cycle detector
# ----------------------------------------------------------------------
def spanned(engine, horizon):
    """``engine.run(horizon)`` under a span ring: the ``sim.run`` attrs.

    A run too short for the stability assessment (fewer than 8 samples)
    still steps and records its span before the assessment raises."""
    ring = RingBufferSink(capacity=16)
    prev = obs.configure(spans=ring)
    try:
        if horizon < 7:
            with pytest.raises(SimulationError, match="too short"):
                engine.run(horizon)
        else:
            engine.run(horizon)
    finally:
        obs.configure(**prev)
    [attrs] = [r["attrs"] for r in ring.records if r["name"] == "sim.run"]
    return attrs


def first_repeat(queue_history):
    """``(mu, lam)`` of the first repeated row: the transient and the
    minimal period of a deterministic run, or ``None`` if no row repeats."""
    seen = {}
    for t, row in enumerate(queue_history):
        key = tuple(row.tolist())
        if key in seen:
            return seen[key], t - seen[key]
        seen[key] = t
    return None


def detection_step(mu, lam):
    """The step at which a check saving at 0, 1, 2, 4, ... first matches:
    ``s + lam`` for the first save step ``s >= max(mu, lam)``, or 1 when
    the start state is already a fixed point."""
    if mu == 0 and lam == 1:
        return 1
    s = 1
    while s < max(mu, lam):
        s *= 2
    return s + lam


class TestCycleDetector:
    def test_long_transient_run_is_tiled_exactly(self):
        # transient 1182, period 20: the save at step 2048 matches at 2068
        spec = random_instance_spec(
            {"family": "gnp", "n": 64, "p": 0.1, "sources": 3, "sinks": 3,
             "in_rate": 3, "out_rate": 3}, 14)
        fast = Simulator(spec)
        attrs = spanned(fast, 4000)
        assert attrs["engine"] == "kernel" and attrs["period"] == 20
        slow = Simulator(spec, config=SimulationConfig(numeric_fastpath=False))
        slow_attrs = spanned(slow, 4000)
        assert slow_attrs["engine"] == "pipeline" and "period" not in slow_attrs
        fast, slow = fast.result(), slow.result()
        assert traj_facts(fast.trajectory) == traj_facts(slow.trajectory)
        assert (fast.final_queues == slow.final_queues).all()
        assert fast.verdict == slow.verdict

    @given(lgg_instances(), st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_period_and_detection_step_match_the_oracle(self, inst, warm):
        spec, tiebreak, _, q0, record = inst
        oracle = Simulator(spec, initial_queues=q0, config=SimulationConfig(
            tiebreak=tiebreak, record_queues=True, numeric_fastpath=False))
        oracle.run(warm + 256)
        # the kernel starts ``warm`` steps into the oracle's run, often
        # inside its cycle, where the saves at steps 0, 1 and 2 decide
        found = first_repeat(oracle.history.queue_history()[warm:, 0])
        if found is None:
            horizons, lam, detect = [256], None, None
        else:
            mu, lam = found
            detect = detection_step(mu, lam)
            horizons = [detect - 1, detect, detect + 1, detect + lam,
                        detect + lam + 1]
            if warm + horizons[-1] > oracle.t:
                oracle.run(warm + horizons[-1] - oracle.t)
        want = traj_facts(oracle.history.trajectory(0))
        rows = oracle.history.queue_history()[warm:, 0]
        cfg = SimulationConfig(tiebreak=tiebreak, record_queues=record)
        for h in horizons:
            if h < 1:
                continue
            engines = (Simulator(spec, config=cfg, initial_queues=rows[0]),
                       EnsembleSimulator(spec, 2, seed=0, config=cfg,
                                         initial_queues=rows[0]))
            for engine in engines:
                attrs = spanned(engine, h)
                assert attrs["engine"] == "kernel"
                tiled = detect is not None and h >= detect
                assert attrs.get("period") == (lam if tiled else None), (h, found)
                # a run of h steps is the oracle's next h steps; the first
                # three facts are boundary series, one entry longer
                for r in range(engine.R):
                    got = traj_facts(engine.history.trajectory(r))
                    assert got == tuple(
                        series[warm:warm + h + 1] if i < 3
                        else series[warm:warm + h]
                        for i, series in enumerate(want))
                assert (engine.Q == rows[h]).all()
                if record:
                    assert (engine.history.queue_history()
                            == rows[:h + 1, None, :]).all()

    def test_divergent_run_reports_no_period(self):
        spec = bottleneck_spec(6)  # six unit sources into a 4-wide cut
        fast = Simulator(spec)
        attrs = spanned(fast, 400)
        assert attrs["engine"] == "kernel" and "period" not in attrs
        assert fast.result().verdict.divergent
        slow = Simulator(spec, config=SimulationConfig(
            horizon=400, numeric_fastpath=False)).run()
        assert traj_facts(fast.result().trajectory) == traj_facts(slow.trajectory)


# ----------------------------------------------------------------------
# scaled-integer feasibility vs the Fraction oracle
# ----------------------------------------------------------------------
def _flow_instance(seed: int, denominators):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 16))
    g = gen.random_gnp(n, 0.4, seed=seed, ensure_connected=True)
    nodes = rng.permutation(n)
    dens = list(denominators)
    in_rates = {
        int(v): Fraction(int(rng.integers(1, 5)), dens[i % len(dens)])
        for i, v in enumerate(nodes[:3])
    }
    out_rates = {
        int(v): Fraction(int(rng.integers(1, 6)), dens[(i + 1) % len(dens)])
        for i, v in enumerate(nodes[3:6])
    }
    return build_extended_graph(g, in_rates, out_rates)


def _cold_value(ext, lam, algorithm):
    """v(lam) along the nominal ray by a cold solve on ``Fraction`` caps."""
    p = FlowProblem.from_extended(ext, source_cap_override={
        v: lam * Fraction(r) for v, r in ext.in_rates.items()})
    return ENGINES[algorithm](FlowProblem(
        n=p.n, tails=p.tails, heads=p.heads,
        capacities=[Fraction(c) for c in p.capacities],
        source=p.source, sink=p.sink)).value


def _assert_envelope_exact(ext, env, algorithm):
    """The envelope equals cold solves at every breakpoint and midpoint."""
    points = list(env.breakpoints)
    for seg in env.segments:
        hi = seg.lo + 1 if seg.hi is None else seg.hi
        points.append((seg.lo + hi) / 2)
    for lam in points:
        assert env.value_at(lam) == _cold_value(ext, lam, algorithm), lam


def _envelope_facts(env):
    return (env.lambda_star, env.probes, env.warm_steps, env.cold_solves,
            tuple((s.lo, s.hi, s.slope, s.intercept, s.cut_side, s.cut_arcs)
                  for s in env.segments))


class TestClassifyVsFractionOracle:
    @pytest.mark.parametrize("algorithm", sorted(ENGINES))
    @pytest.mark.parametrize("denominators,label", [
        ((1,), "integral"),
        ((2, 3, 5), "mixed-denominator"),
    ])
    def test_scaled_path_matches_oracle_no_fallback(
        self, algorithm, denominators, label
    ):
        for seed in (0, 1, 2):
            ext = _flow_instance(seed, denominators)
            reset_counters()
            warm = classify_network(ext)
            assert fraction_fallbacks_total() == 0, (
                f"{label} spec must stay on the integer path"
            )
            with cold_engine(algorithm):
                cold = classify_network_cold(ext)
            assert report_facts(warm) == report_facts(cold)

    @pytest.mark.parametrize("algorithm", sorted(ENGINES))
    def test_magnitude_guard_falls_back_exactly(self, algorithm):
        # a denominator past INT_SCALE_LIMIT defeats common-denominator
        # scaling; the classifier must decline, count it, and stay exact
        rng = np.random.default_rng(7)
        g = gen.random_gnp(10, 0.5, seed=7, ensure_connected=True)
        nodes = rng.permutation(10)
        big = (1 << 70) + 1
        in_rates = {int(nodes[0]): Fraction(1, big), int(nodes[1]): 2}
        out_rates = {int(nodes[2]): 3}
        ext = build_extended_graph(g, in_rates, out_rates)
        reset_counters()
        warm = classify_network(ext)
        assert fraction_fallbacks_total() == 1
        with cold_engine(algorithm):
            cold = classify_network_cold(ext)
        assert report_facts(warm) == report_facts(cold)

    @pytest.mark.parametrize("algorithm", sorted(ENGINES))
    def test_envelope_stays_on_integers_and_exact(self, algorithm):
        for seed in (0, 1, 2):
            ext = _flow_instance(seed, (2, 3, 5))
            reset_counters()
            env = breakpoint_envelope(ext)
            assert fraction_fallbacks_total() == 0
            assert env.probes > 0
            _assert_envelope_exact(ext, env, algorithm)

    @pytest.mark.parametrize("algorithm", sorted(ENGINES))
    def test_envelope_guard_trips_mid_ladder(self, algorithm, monkeypatch):
        # the λ = 0 base still scales (its batch is far below the real
        # guard); a guard of 1000 is then outgrown by the probes' scales,
        # and every probe of these instances leaves the integer path
        for seed in (0, 1, 2):
            ext = _flow_instance(seed, (2, 3, 5))
            reference = breakpoint_envelope(ext)
            with monkeypatch.context() as m:
                m.setattr(parametric, "INT_SCALE_LIMIT", 1000)
                reset_counters()
                env = breakpoint_envelope(ext)
                assert fraction_fallbacks_total() == 1
            assert _envelope_facts(env) == _envelope_facts(reference)
            _assert_envelope_exact(ext, env, algorithm)

    @pytest.mark.parametrize("algorithm", sorted(ENGINES))
    def test_ladder_rungs_leave_the_integer_path_once(self, algorithm, monkeypatch):
        # path 0 - 1 - 2, in(0) = 1, out(2) = 1: v(λ) = min(λ, 1), D = 1
        ext = build_extended_graph(gen.path(3), {0: 1}, {2: 1})
        monkeypatch.setattr(parametric, "INT_SCALE_LIMIT", 5)
        reset_counters()
        ladder = _Ladder(ext, ext.in_rates)
        nominal = ladder.rung(Fraction(1))          # scale 1: integer
        seventh = ladder.rung(Fraction(1, 7))       # scale 7 > 5: leaves
        two_sevenths = ladder.rung(Fraction(2, 7))  # forked from 1/7: Fraction
        three = ladder.rung(Fraction(3))            # forked from 1: integer
        assert [r.scale for r in (nominal, seventh, two_sevenths, three)] == [1, None, None, 1]
        assert type(two_sevenths.engine.value) is Fraction
        lams = (Fraction(1), Fraction(1, 7), Fraction(2, 7), Fraction(3))
        values = [r.value for r in (nominal, seventh, two_sevenths, three)]
        assert values == [1, Fraction(1, 7), Fraction(2, 7), 1]
        assert fraction_fallbacks_total() == 1
        assert ladder.probes == 4
        # each warm rung equals a cold solve by the oracle engine
        assert values == [_cold_value(ext, lam, algorithm) for lam in lams]
