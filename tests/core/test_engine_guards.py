"""Engine guard-rail tests: misbehaving policies and conflict resolution."""

import numpy as np
import pytest

from repro.core import SimulationConfig, Simulator
from repro.core.engine import LinkCapacityMode
from repro.core.policies import _PolicyBase
from repro.errors import SimulationError
from repro.graphs import generators as gen
from repro.network import NetworkSpec

_EMPTY = np.empty(0, dtype=np.int64)


class OverdrawPolicy(_PolicyBase):
    """Sends two packets from a node holding one — must be rejected."""

    def select(self, ctx):
        csr = ctx.csr
        if ctx.queues[0] >= 1 and csr.num_half_edges:
            i = int(np.nonzero(csr.senders == 0)[0][0])
            e = np.array([csr.edge_ids[i], csr.edge_ids[i]], dtype=np.int64)
            s = np.array([0, 0], dtype=np.int64)
            r = np.array([csr.neighbors[i], csr.neighbors[i]], dtype=np.int64)
            return e, s, r
        return _EMPTY, _EMPTY, _EMPTY


class FixedConflictPolicy(_PolicyBase):
    """Emits both directions of edge 0 every step (a link conflict)."""

    def select(self, ctx):
        u, v = ctx.spec.graph.edge_endpoints(0)
        e = np.array([0, 0], dtype=np.int64)
        s = np.array([u, v], dtype=np.int64)
        r = np.array([v, u], dtype=np.int64)
        # only claim what the queues can pay for
        keep = ctx.queues[s] >= 1
        return e[keep], s[keep], r[keep]


def spec_with_queues(q0, q1):
    spec = NetworkSpec.classical(gen.path(2), {}, {})
    return spec, np.array([q0, q1], dtype=np.int64)


class TestPolicyOverdrawRejected:
    def test_budget_validation(self):
        spec = NetworkSpec.classical(gen.path(3), {0: 1}, {2: 1})
        sim = Simulator(spec, policy=OverdrawPolicy(),
                        config=SimulationConfig(seed=0))
        with pytest.raises(SimulationError, match="overdrew"):
            sim.step()


class TestConflictResolution:
    def test_stronger_gradient_wins(self):
        """PER_LINK keeps the direction whose sender holds more packets."""
        spec, q0 = spec_with_queues(5, 2)
        cfg = SimulationConfig(seed=0, link_capacity=LinkCapacityMode.PER_LINK)
        sim = Simulator(spec, policy=FixedConflictPolicy(), config=cfg,
                        initial_queues=q0)
        sim.step()
        # node 0 (queue 5) sent, node 1 (queue 2) did not
        assert sim.queues.tolist() == [4, 3]

    def test_tie_goes_to_lower_node_id(self):
        spec, q0 = spec_with_queues(3, 3)
        cfg = SimulationConfig(seed=0, link_capacity=LinkCapacityMode.PER_LINK)
        sim = Simulator(spec, policy=FixedConflictPolicy(), config=cfg,
                        initial_queues=q0)
        sim.step()
        assert sim.queues.tolist() == [2, 4]

    def test_per_direction_keeps_both(self):
        spec, q0 = spec_with_queues(3, 3)
        cfg = SimulationConfig(seed=0, link_capacity=LinkCapacityMode.PER_DIRECTION)
        sim = Simulator(spec, policy=FixedConflictPolicy(), config=cfg,
                        initial_queues=q0)
        stats = sim.step()
        assert stats.transmitted == 2
        assert sim.queues.tolist() == [3, 3]  # swap: net zero


class TestArrivalShapeGuard:
    def test_wrong_shape_rejected(self):
        class BadArrivals:
            def sample(self, t, rng):
                return np.zeros(99, dtype=np.int64)

        spec = NetworkSpec.generalized(gen.path(3), {0: 1}, {2: 1}, retention=0)
        sim = Simulator(spec, config=SimulationConfig(arrivals=BadArrivals()))
        with pytest.raises(SimulationError, match="shape"):
            sim.step()

    def test_wrong_loss_mask_shape_rejected(self):
        class BadLoss:
            def sample(self, eids, snd, rcv, t, rng):
                return np.zeros(0, dtype=bool)

        spec = NetworkSpec.classical(gen.path(3), {0: 1}, {2: 1})
        sim = Simulator(spec, config=SimulationConfig(losses=BadLoss(), seed=0))
        with pytest.raises(SimulationError, match="mask"):
            for _ in range(5):
                sim.step()
