"""Ensemble (vectorized multi-replica, batched-pipeline) engine tests."""

import numpy as np
import pytest

from repro.core import SimulationConfig, Simulator
from repro.core.ensemble import EnsembleSimulator
from repro.errors import SimulationError
from repro.graphs import generators as gen
from repro.interference import DistanceTwoInterference
from repro.network import NetworkSpec, RevelationPolicy


def gadget_spec():
    g, entries, exits = gen.bottleneck_gadget(2, 2, 2)
    return NetworkSpec.classical(g, {v: 1 for v in entries}, {v: 1 for v in exits})


class TestValidation:
    def test_replica_count(self):
        with pytest.raises(SimulationError):
            EnsembleSimulator(gadget_spec(), 0)

    def test_lying_revelation_now_supported(self):
        """The batched pipeline covers non-truthful revelation (it used to
        be rejected); replica trajectories must match the scalar engine."""
        spec = NetworkSpec.generalized(
            gen.path(3), {0: 1}, {2: 1}, retention=2,
            revelation=RevelationPolicy.ALWAYS_R,
        )
        ens = EnsembleSimulator(spec, 2, seeds=[0, 1])
        res = ens.run(100)
        scalar = Simulator(spec, config=SimulationConfig(seed=0)).run(100)
        assert res.total_queued[:, 0].tolist() == scalar.trajectory.total_queued

    def test_loss_probability_range(self):
        with pytest.raises(SimulationError):
            EnsembleSimulator(gadget_spec(), 2, loss_p=1.5)

    def test_uniform_needs_generalized(self):
        with pytest.raises(SimulationError):
            EnsembleSimulator(gadget_spec(), 2, uniform_arrivals=True)

    def test_interference_rejected(self):
        cfg = SimulationConfig(interference=DistanceTwoInterference(gadget_spec().graph))
        with pytest.raises(SimulationError, match="interference"):
            EnsembleSimulator(gadget_spec(), 2, config=cfg)

    def test_record_events_rejected(self):
        with pytest.raises(SimulationError, match="event"):
            EnsembleSimulator(gadget_spec(), 2,
                              config=SimulationConfig(record_events=True))

    def test_seed_list_length_checked(self):
        with pytest.raises(SimulationError, match="seeds"):
            EnsembleSimulator(gadget_spec(), 3, seeds=[0, 1])

    def test_single_replica_takes_single_run_features(self):
        """At R = 1 the ensemble is the Simulator's engine: interference and
        event records are only rejected for more than one replica."""
        spec = gadget_spec()
        cfg = SimulationConfig(seed=3, record_events=True,
                               interference=DistanceTwoInterference(spec.graph))
        ens = EnsembleSimulator(spec, 1, seeds=[3], config=cfg)
        res = ens.run(80)
        single = Simulator(spec, config=cfg)
        assert res.total_queued[:, 0].tolist() == single.run(80).trajectory.total_queued
        assert len(ens.events) == len(single.events) == 80


class TestConflictingInputs:
    """``loss_p`` / ``uniform_arrivals`` never silently lose to an explicit
    loss model or arrival process: the pair raises and names both."""

    def pseudo_spec(self):
        from dataclasses import replace

        return replace(gadget_spec(), exact_injection=False)

    @pytest.mark.parametrize("where", ["argument", "config"])
    def test_loss_p_with_loss_model(self, where):
        from repro.loss import BernoulliLoss

        model = BernoulliLoss(0.0)
        kwargs = ({"losses": model} if where == "argument"
                  else {"config": SimulationConfig(losses=model)})
        with pytest.raises(SimulationError, match=r"loss_p=0\.9.*losses"):
            EnsembleSimulator(gadget_spec(), 2, seeds=[1, 2], loss_p=0.9, **kwargs)

    @pytest.mark.parametrize("where", ["argument", "config"])
    def test_uniform_arrivals_with_arrival_process(self, where):
        from repro.arrivals import BernoulliArrivals

        spec = self.pseudo_spec()
        proc = BernoulliArrivals(spec, 0.5)
        kwargs = ({"arrivals": proc} if where == "argument"
                  else {"config": SimulationConfig(arrivals=proc)})
        with pytest.raises(SimulationError, match="uniform_arrivals.*arrivals"):
            EnsembleSimulator(spec, 2, seeds=[1, 2], uniform_arrivals=True, **kwargs)

    def test_conveniences_alone_still_work(self):
        res = EnsembleSimulator(self.pseudo_spec(), 2, seeds=[1, 2], loss_p=0.5,
                                uniform_arrivals=True).run(50)
        assert (res.lost > 0).all()


class TestDeterministicEquivalence:
    """No randomness in the dynamics -> every replica must match the scalar
    engine trajectory exactly."""

    @pytest.mark.parametrize("builder", [
        gadget_spec,
        lambda: NetworkSpec.classical(gen.path(5), {0: 1}, {4: 1}),
        lambda: NetworkSpec.classical(gen.grid(3, 3), {0: 1}, {8: 2}),
        lambda: NetworkSpec.classical(*(
            lambda g, s, d: (g, {s: 2}, {d: 3}))(*gen.theta_graph([1, 2, 3]))),
    ])
    def test_matches_scalar_engine(self, builder):
        spec = builder()
        horizon = 150
        scalar = Simulator(spec, config=SimulationConfig(horizon=horizon, seed=0)).run()
        ens = EnsembleSimulator(spec, replicas=3, seed=0).run(horizon)
        for r in range(3):
            assert ens.total_queued[:, r].tolist() == scalar.trajectory.total_queued
            assert ens.potentials[:, r].tolist() == scalar.trajectory.potentials
            assert (ens.final_queues[r] == scalar.final_queues).all()

    def test_verdicts_match(self):
        g, entries, exits = gen.bottleneck_gadget(3, 3, 1)
        spec = NetworkSpec.classical(g, {v: 1 for v in entries}, {v: 1 for v in exits})
        scalar = Simulator(spec, config=SimulationConfig(horizon=400, seed=0)).run()
        ens = EnsembleSimulator(spec, replicas=2, seed=0).run(400)
        for v in ens.verdicts:
            assert v.bounded == scalar.verdict.bounded


class TestStochasticModes:
    def test_replicas_diverge_under_randomness(self):
        from dataclasses import replace

        spec = replace(gadget_spec(), exact_injection=False)
        ens = EnsembleSimulator(spec, replicas=4, seed=1, uniform_arrivals=True)
        res = ens.run(200)
        columns = {tuple(res.total_queued[:, r]) for r in range(4)}
        assert len(columns) > 1  # independent draws per replica

    def test_loss_accounting(self):
        ens = EnsembleSimulator(gadget_spec(), replicas=3, seed=2, loss_p=0.3)
        res = ens.run(300)
        assert (res.lost > 0).all()
        # conservation per replica: injected = queued + delivered + lost
        for r in range(3):
            assert (
                res.injected[r]
                == res.final_queues[r].sum() + res.delivered[r] + res.lost[r]
            )

    def test_bounded_fraction_statistic(self):
        from dataclasses import replace

        # mean arrivals 2 = cut on a uniform workload: most replicas bounded
        g, entries, exits = gen.bottleneck_gadget(4, 4, 2)
        spec = replace(
            NetworkSpec.classical(g, {v: 1 for v in entries}, {v: 1 for v in exits}),
            exact_injection=False,
        )
        ens = EnsembleSimulator(spec, replicas=6, seed=3, uniform_arrivals=True)
        res = ens.run(800)
        assert res.replicas == 6
        assert res.bounded_fraction >= 0.5

    def test_queues_never_negative(self):
        ens = EnsembleSimulator(gadget_spec(), replicas=4, seed=4, loss_p=0.2)
        for _ in range(200):
            ens.step()
            assert (ens.Q >= 0).all()


class TestResultReporting:
    """EnsembleResult mirrors SimulationResult's cumulative reporting."""

    def test_cumulative_properties_shape(self):
        res = EnsembleSimulator(gadget_spec(), replicas=3, seed=0, loss_p=0.1).run(50)
        for name in ("delivered", "lost", "injected", "transmitted"):
            arr = getattr(res, name)
            assert arr.shape == (3,)
        assert res.delivered_series.shape == (50, 3)

    def test_replica_view_is_simulation_result(self):
        from repro.analysis import summarize
        from repro.core.engine import SimulationResult

        res = EnsembleSimulator(gadget_spec(), replicas=2, seeds=[7, 8]).run(120)
        rep = res.replica(1)
        assert isinstance(rep, SimulationResult)
        scalar = Simulator(gadget_spec(), config=SimulationConfig(seed=8)).run(120)
        assert rep.trajectory.total_queued == scalar.trajectory.total_queued
        assert rep.delivered == scalar.delivered
        # summarize() treats both result types identically
        assert summarize(rep) == summarize(scalar)

    def test_trajectory_conservation(self):
        res = EnsembleSimulator(gadget_spec(), replicas=2, seed=5, loss_p=0.4).run(80)
        for r in range(2):
            res.trajectory(r).check_conservation()

    def test_record_queues(self):
        cfg = SimulationConfig(record_queues=True)
        res = EnsembleSimulator(gadget_spec(), replicas=2, seed=0, config=cfg).run(30)
        assert res.queue_history.shape == (31, 2, gadget_spec().n)
        assert (res.queue_history[-1] == res.final_queues).all()

    def test_initial_queues_broadcast(self):
        spec = gadget_spec()
        q0 = np.arange(spec.n, dtype=np.int64)
        ens = EnsembleSimulator(spec, replicas=3, seed=0, initial_queues=q0)
        assert (ens.Q == q0).all()
        sim = Simulator(spec, config=SimulationConfig(seed=0), initial_queues=q0)
        res = ens.run(60)
        scalar = sim.run(60)
        assert res.total_queued[:, 0].tolist() == scalar.trajectory.total_queued


class TestStageTimings:
    def test_profile_stages_collects_all_stage_names(self):
        """A traced ensemble run spans every stage under its ``sim.run``."""
        from repro.core import STAGE_NAMES
        from repro.obs import RingBufferSink

        ring = RingBufferSink()
        cfg = SimulationConfig(trace=ring)
        # 10 steps: the verdict needs at least 8 boundary samples
        EnsembleSimulator(gadget_spec(), replicas=2, seed=0, config=cfg).run(10)
        (run,) = [r for r in ring.records
                  if r["type"] == "span" and r["name"] == "sim.run"]
        stages = [r for r in ring.records
                  if r["type"] == "span" and r["name"] == "sim.stage"]
        assert [s["attrs"]["kind"] for s in stages] == list(STAGE_NAMES)
        for timing in stages:
            assert timing["parent_id"] == run["span_id"]
            assert timing["attrs"]["calls"] == 10
            assert timing["duration_s"] >= 0.0
