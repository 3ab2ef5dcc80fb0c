"""Differential tests: the stage pipeline against a per-node reference.

One engine runs every simulation — :class:`Simulator` is its ``R = 1``
case, :class:`EnsembleSimulator` the ``R``-replica one — so the oracle is
not a second backend but the per-node reference stepper of
``tests/core/reference_step.py``.  Single runs seeded ``s_r`` and replica
``r`` of an ensemble seeded ``[s_0, …]`` must both reproduce it
*bit-exactly*: any divergence is an engine bug, not sampling noise.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    DEFAULT_PIPELINE,
    STAGE_NAMES,
    ExtractionMode,
    SimulationConfig,
    Simulator,
    TieBreak,
)
from repro.core.engine import LinkCapacityMode
from repro.core.ensemble import EnsembleSimulator
from repro.graphs import generators as gen
from repro.loss import AdversarialEdgeLoss, BernoulliLoss, GilbertElliottLoss
from repro.network import NetworkSpec, RevelationPolicy
from tests.core.reference_step import SERIES, reference_run

HORIZON = 60
REPLICAS = 3
SEEDS = [11, 23, 47]

ENSEMBLE_SERIES = {
    "potentials": "potentials", "total_queued": "total_queued",
    "max_queues": "max_queues", "injected": "injected_series",
    "transmitted": "transmitted_series", "lost": "lost_series",
    "delivered": "delivered_series",
}


def make_spec(revelation):
    g, entries, exits = gen.bottleneck_gadget(2, 2, 2)
    return NetworkSpec.generalized(
        g,
        {v: 2 for v in entries},
        {v: 1 for v in exits},
        retention=2,
        revelation=revelation,
    )


def assert_matches_reference(spec, config, *, arrivals=None, losses=None,
                             replica_loss=None, horizon=HORIZON):
    """Run one ``R = 3`` ensemble on SEEDS (``losses`` as given) and one
    ``Simulator`` per seed; every series and the final queues of both must
    equal the reference stepper's.  ``replica_loss(r)`` builds replica
    ``r``'s own loss model (a fresh one for each run that needs it)."""
    ens = EnsembleSimulator(
        spec, REPLICAS, seeds=list(SEEDS), config=config,
        arrivals=arrivals, losses=losses,
    ).run(horizon)

    def model(r):
        return replica_loss(r) if replica_loss is not None else None

    for r, seed in enumerate(SEEDS):
        cfg = replace(config, seed=seed)
        ref = reference_run(spec, cfg, horizon, arrivals=arrivals, losses=model(r))
        single = Simulator(
            spec, config=replace(cfg, arrivals=arrivals, losses=model(r)),
        ).run(horizon)
        for name in SERIES:
            assert getattr(single.trajectory, name) == ref[name], name
            assert getattr(ens, ENSEMBLE_SERIES[name])[:, r].tolist() == ref[name], name
        assert single.final_queues.tolist() == ref["final_queues"]
        assert ens.final_queues[r].tolist() == ref["final_queues"]
    return ens


LOSS_CASES = {
    "noloss": None,
    "bernoulli": lambda: BernoulliLoss(0.25),
    "adversarial": lambda: AdversarialEdgeLoss([0, 3]),
}


class TestDifferentialMatrix:
    """Full product: extraction × revelation × loss × activation."""

    @pytest.mark.parametrize(
        "extraction,revelation,loss_key,p_act",
        list(itertools.product(
            list(ExtractionMode),
            list(RevelationPolicy),
            list(LOSS_CASES),
            [1.0, 0.6],
        )),
        ids=lambda v: getattr(v, "value", str(v)),
    )
    def test_batched_matches_scalar(self, extraction, revelation, loss_key, p_act):
        spec = make_spec(revelation)
        loss_factory = LOSS_CASES[loss_key]
        config = SimulationConfig(extraction=extraction, activation_prob=p_act)
        assert_matches_reference(
            spec, config,
            losses=loss_factory() if loss_factory else None,
            replica_loss=(lambda r: loss_factory()) if loss_factory else None,
        )


class TestStochasticKnobs:
    def test_random_tiebreak_matches(self):
        spec = make_spec(RevelationPolicy.TRUTHFUL)
        config = SimulationConfig(tiebreak=TieBreak.QUEUE_THEN_RANDOM)
        assert_matches_reference(spec, config)

    def test_uniform_arrivals_match(self):
        from repro.arrivals import UniformArrivals

        spec = make_spec(RevelationPolicy.TRUTHFUL)
        config = SimulationConfig()
        assert_matches_reference(spec, config, arrivals=UniformArrivals(spec))

    def test_stateful_loss_via_factory(self):
        """Stateful models can't share one instance across replicas: the
        ensemble accepts a factory and instantiates one per replica."""
        spec = make_spec(RevelationPolicy.TRUTHFUL)
        make_loss = lambda: GilbertElliottLoss(0.3, 0.4, p_loss_bad=0.9)  # noqa: E731
        assert_matches_reference(
            spec, SimulationConfig(),
            losses=lambda spec: make_loss(), replica_loss=lambda r: make_loss(),
        )

    def test_per_replica_loss_instances(self):
        spec = make_spec(RevelationPolicy.TRUTHFUL)
        assert_matches_reference(
            spec, SimulationConfig(),
            losses=[BernoulliLoss(0.1 * (r + 1)) for r in range(REPLICAS)],
            replica_loss=lambda r: BernoulliLoss(0.1 * (r + 1)),
        )

    def test_everything_at_once(self):
        """All stochastic knobs on simultaneously."""
        spec = make_spec(RevelationPolicy.RANDOM)
        config = SimulationConfig(
            extraction=ExtractionMode.RANDOM,
            activation_prob=0.7,
            tiebreak=TieBreak.QUEUE_THEN_RANDOM,
        )
        res = assert_matches_reference(
            spec, config,
            losses=BernoulliLoss(0.2),
            replica_loss=lambda r: BernoulliLoss(0.2),
            horizon=120,
        )
        # sanity: the run actually exercised loss + delivery
        assert res.lost.sum() > 0
        assert res.delivered.sum() > 0


class TestLinkCapacityModes:
    """Lying terminals on a dense graph contest links in both modes."""

    @pytest.mark.parametrize("mode", list(LinkCapacityMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("revelation", [RevelationPolicy.ZERO, RevelationPolicy.RANDOM],
                             ids=lambda p: p.value)
    def test_modes_match_reference(self, mode, revelation):
        spec = NetworkSpec.generalized(
            gen.complete(5), {0: 2, 1: 2}, {3: 1, 4: 1},
            retention=2, revelation=revelation,
        )
        config = SimulationConfig(link_capacity=mode, activation_prob=0.8)
        assert_matches_reference(
            spec, config,
            losses=BernoulliLoss(0.1), replica_loss=lambda r: BernoulliLoss(0.1),
        )


class TestPipelineStructure:
    def test_default_pipeline_stage_names(self):
        assert DEFAULT_PIPELINE.names == STAGE_NAMES
        assert "selection" in STAGE_NAMES and "application" in STAGE_NAMES

    def test_simulator_uses_pipeline(self):
        spec = make_spec(RevelationPolicy.TRUTHFUL)
        sim = Simulator(spec, config=SimulationConfig(seed=0))
        assert sim.pipeline is DEFAULT_PIPELINE

    def test_scalar_stage_timings(self):
        from repro.obs import RingBufferSink

        spec = make_spec(RevelationPolicy.TRUTHFUL)
        ring = RingBufferSink()
        Simulator(spec, config=SimulationConfig(seed=0, trace=ring)).run(10)
        stages = {r["attrs"]["kind"]: r for r in ring.records
                  if r["type"] == "span" and r["name"] == "sim.stage"}
        assert set(stages) == set(STAGE_NAMES)
        timing = stages["application"]
        assert timing["attrs"]["calls"] == 10
        assert timing["duration_s"] >= 0.0

    def test_timings_off_by_default(self):
        from repro import obs
        from repro.obs import RingBufferSink

        spec = make_spec(RevelationPolicy.TRUTHFUL)
        ring = RingBufferSink()
        prev = obs.configure(spans=ring)
        try:
            Simulator(spec, config=SimulationConfig(
                seed=0, numeric_fastpath=False)).run(10)
        finally:
            obs.configure(**prev)
        assert [r["name"] for r in ring.records] == ["sim.run"]


class TestSampleBatchProtocol:
    """sample_batch fast paths must equal the per-replica sample loop."""

    def test_bernoulli_sample_batch_equivalence(self):
        model = BernoulliLoss(0.4)
        rng_batch = [np.random.default_rng(s) for s in SEEDS]
        rng_loop = [np.random.default_rng(s) for s in SEEDS]
        H = 12
        eids = np.tile(np.arange(H), (REPLICAS, 1))
        snd = np.tile(np.arange(H) % 5, (REPLICAS, 1))
        rcv = np.tile((np.arange(H) + 1) % 5, (REPLICAS, 1))
        sel = np.random.default_rng(0).random((REPLICAS, H)) < 0.5
        batch = model.sample_batch(eids, snd, rcv, sel, 0, rng_batch)
        for r in range(REPLICAS):
            idx = np.nonzero(sel[r])[0]
            expect = np.zeros(H, dtype=bool)
            if len(idx):
                expect[idx] = model.sample(
                    eids[r, idx], snd[r, idx], rcv[r, idx], 0, rng_loop[r])
            assert (batch[r] == expect).all()
        assert not batch[~sel].any()  # lost-mask ⊆ selected

    def test_uniform_arrivals_sample_batch_equivalence(self):
        from repro.arrivals import UniformArrivals

        spec = make_spec(RevelationPolicy.TRUTHFUL)
        proc = UniformArrivals(spec)
        rng_batch = [np.random.default_rng(s) for s in SEEDS]
        rng_loop = [np.random.default_rng(s) for s in SEEDS]
        batch = proc.sample_batch(3, rng_batch)
        assert batch.shape == (REPLICAS, spec.n)
        for r in range(REPLICAS):
            assert (batch[r] == proc.sample(3, rng_loop[r])).all()
