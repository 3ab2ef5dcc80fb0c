"""Distributed (round-synchronous) push-relabel tests."""

import numpy as np
import pytest

from repro.errors import FlowError
from repro.flow import max_flow
from repro.flow.distributed_pr import distributed_push_relabel
from repro.flow.residual import FlowProblem
from repro.graphs import build_extended_graph
from repro.graphs import generators as gen


def problem(n, arcs, s, t):
    tails, heads, caps = zip(*arcs) if arcs else ((), (), ())
    return FlowProblem(n=n, tails=list(tails), heads=list(heads),
                       capacities=list(caps), source=s, sink=t)


class TestCorrectness:
    def test_single_arc(self):
        run = distributed_push_relabel(problem(2, [(0, 1, 5)], 0, 1))
        assert run.result.value == 5
        assert run.converged

    def test_series_bottleneck(self):
        run = distributed_push_relabel(problem(3, [(0, 1, 5), (1, 2, 2)], 0, 2))
        assert run.result.value == 2
        run.result.check()

    def test_clrs_instance(self):
        arcs = [
            (0, 1, 16), (0, 2, 13), (1, 3, 12), (2, 1, 4), (2, 4, 14),
            (3, 2, 9), (3, 5, 20), (4, 3, 7), (4, 5, 4),
        ]
        run = distributed_push_relabel(problem(6, arcs, 0, 5))
        assert run.result.value == 23
        run.result.check()

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_sequential_solvers(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 10))
        arcs = []
        for _ in range(int(rng.integers(2, 22))):
            u, v = rng.integers(0, n, size=2)
            if u != v:
                arcs.append((int(u), int(v), int(rng.integers(0, 7))))
        p = problem(n, arcs, 0, n - 1)
        run = distributed_push_relabel(p)
        assert run.result.value == max_flow(p).value
        run.result.check()

    def test_extended_graph_instance(self):
        g, sources, sinks = gen.paper_figure_graph()
        ext = build_extended_graph(g, {v: 1 for v in sources}, {v: 2 for v in sinks})
        p = FlowProblem.from_extended(ext)
        run = distributed_push_relabel(p)
        assert run.result.value == 2

    def test_round_budget_enforced(self):
        p = problem(4, [(0, 1, 3), (1, 2, 3), (2, 3, 3)], 0, 3)
        with pytest.raises(FlowError):
            distributed_push_relabel(p, max_rounds=1)


class TestDistributedSemantics:
    def test_history_recording(self):
        p = problem(4, [(0, 1, 2), (1, 2, 2), (2, 3, 2)], 0, 3)
        run = distributed_push_relabel(p, record_every=1)
        assert len(run.height_history) >= 2
        assert len(run.height_history) == len(run.excess_history)
        # heights only ever grow (anti-monotone relabeling never lowers)
        for before, after in zip(run.height_history, run.height_history[1:]):
            assert all(b <= a for b, a in zip(before, after))

    def test_source_height_fixed_at_n(self):
        p = problem(4, [(0, 1, 2), (1, 2, 2), (2, 3, 2)], 0, 3)
        run = distributed_push_relabel(p, record_every=1)
        for snapshot in run.height_history:
            assert snapshot[0] == 4
            assert snapshot[3] == 0  # sink stays at 0

    def test_rounds_reported(self):
        p = problem(5, [(i, i + 1, 1) for i in range(4)], 0, 4)
        run = distributed_push_relabel(p)
        assert run.rounds >= 4  # excess must traverse the chain

    def test_zero_flow_converges_immediately_or_quickly(self):
        p = problem(3, [(1, 2, 5)], 0, 2)  # source disconnected
        run = distributed_push_relabel(p)
        assert run.result.value == 0
