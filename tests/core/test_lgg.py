"""Algorithm 1 semantics: reference implementation, vectorized agreement.

The vectorized kernel (:func:`lgg_select_fast_batched`) is checked row by
row against the per-node reference (``tests/core/lgg_reference.py``): row 0
of an ``R = 1`` call compacted by its mask, and ``R = 3`` calls whose rows
differ.  The reference also runs inside the engine as a policy, and a whole
run must equal the kernel's.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SimulationConfig, Simulator, TieBreak
from repro.core.fastpath import ineligibility_reasons
from repro.core.lgg_fast import lgg_select_fast_batched
from repro.graphs import MultiGraph
from repro.graphs import generators as gen
from repro.network import NetworkSpec
from tests.core.lgg_reference import ReferenceLGGPolicy, lgg_select_reference


def select_ref(graph, queues, revealed=None, **kw):
    q = np.asarray(queues, dtype=np.int64)
    r = q if revealed is None else np.asarray(revealed, dtype=np.int64)
    return lgg_select_reference(graph, q, r, **kw)


def compact(eids, snd, rcv, mask, r):
    """Row ``r`` of a kernel answer as the reference's triple list."""
    m = mask[r]
    return list(zip(eids[r, m].tolist(), snd[r, m].tolist(), rcv[r, m].tolist()))


def select_fast(graph, queues, revealed=None, *, rng=None, **kw):
    q = np.asarray(queues, dtype=np.int64)
    r = q if revealed is None else np.asarray(revealed, dtype=np.int64)
    out = lgg_select_fast_batched(graph.to_csr(), q[None, :], r[None, :], rngs=[rng], **kw)
    return compact(*out, 0)


class TestAlgorithmSemantics:
    def test_downhill_only(self):
        g = gen.path(3)
        sel = select_ref(g, [5, 3, 0])
        # node 0 sends to 1; node 1 sends to 2; node 2 sends nothing
        assert (0, 0, 1) in sel
        assert (1, 1, 2) in sel
        assert all(s != 2 for _, s, _ in sel)

    def test_no_send_on_equal_queues(self):
        g = gen.path(3)
        assert select_ref(g, [4, 4, 4]) == []

    def test_no_send_uphill(self):
        g = gen.path(2)
        sel = select_ref(g, [1, 5])
        # node 0 must not send uphill; node 1 legitimately sends downhill
        assert all(s != 0 for _, s, _ in sel)
        assert (0, 1, 0) in sel

    def test_empty_queue_sends_nothing(self):
        g = gen.star(3)
        assert select_ref(g, [0, 0, 0, 0]) == []

    def test_budget_limits_sends(self):
        # hub with queue 2 and three empty leaves: only 2 transmissions
        g = gen.star(3)
        sel = select_ref(g, [2, 0, 0, 0])
        assert len(sel) == 2
        assert all(s == 0 for _, s, _ in sel)

    def test_smallest_queues_preferred(self):
        # hub q=1 with leaves 3, 1, 0: the hub's single packet goes to the
        # emptiest leaf (node 3)
        g = gen.star(3)
        sel = select_ref(g, [1, 3, 1, 0])
        hub_sends = [t for t in sel if t[1] == 0]
        assert hub_sends == [(2, 0, 3)]

    def test_tie_broken_by_node_id(self):
        g = gen.star(3)
        sel = select_ref(g, [1, 0, 0, 0], tiebreak=TieBreak.QUEUE_THEN_ID)
        assert sel == [(0, 0, 1)]

    def test_tie_broken_reversed(self):
        g = gen.star(3)
        sel = select_ref(g, [1, 0, 0, 0], tiebreak=TieBreak.QUEUE_THEN_REVERSED_ID)
        assert sel == [(2, 0, 3)]

    def test_parallel_edges_are_separate_opportunities(self):
        g = MultiGraph(2)
        g.add_edge(0, 1)
        g.add_edge(0, 1)
        sel = select_ref(g, [5, 0])
        assert len(sel) == 2  # both links used

    def test_one_packet_cannot_use_both_parallel_edges(self):
        g = MultiGraph(2)
        g.add_edge(0, 1)
        g.add_edge(0, 1)
        sel = select_ref(g, [1, 0])
        assert len(sel) == 1

    def test_revealed_queue_drives_decision(self):
        # true queues equal, but node 1 lies low -> node 0 sends
        g = gen.path(2)
        sel = select_ref(g, [3, 3], revealed=[3, 0])
        assert sel == [(0, 0, 1)]

    def test_sender_uses_own_true_queue(self):
        # node 0 lies low about itself but still sends: decision uses true q
        g = gen.path(2)
        sel = select_ref(g, [3, 1], revealed=[0, 1])
        assert (0, 0, 1) in sel  # 3 > 1: true queue drives the send

    def test_bidirectional_selection_possible_with_lies(self):
        # both nodes see the other as lower: both select (link conflict is
        # resolved later by the engine, not by Algorithm 1)
        g = gen.path(2)
        sel = select_ref(g, [3, 3], revealed=[1, 1])
        assert len(sel) == 2


class TestFastMatchesReference:
    TOPOLOGIES = [
        gen.path(6),
        gen.cycle(5),
        gen.star(4),
        gen.grid(3, 3),
        gen.complete(5),
        gen.random_multigraph(6, 15, seed=1),
        gen.paper_figure_graph()[0],
    ]

    @pytest.mark.parametrize("gi", range(len(TOPOLOGIES)))
    @pytest.mark.parametrize("seed", range(5))
    def test_agreement_truthful(self, gi, seed):
        g = self.TOPOLOGIES[gi]
        rng = np.random.default_rng(seed)
        q = rng.integers(0, 8, size=g.n)
        ref = select_ref(g, q)
        fast = select_fast(g, q)
        assert sorted(ref) == sorted(fast)

    @pytest.mark.parametrize("seed", range(5))
    def test_agreement_with_lies(self, seed):
        g = gen.grid(3, 4)
        rng = np.random.default_rng(100 + seed)
        q = rng.integers(0, 10, size=g.n)
        rev = np.minimum(q, rng.integers(0, 10, size=g.n))
        assert sorted(select_ref(g, q, rev)) == sorted(select_fast(g, q, rev))

    @pytest.mark.parametrize("tb", list(TieBreak))
    def test_agreement_all_tiebreaks(self, tb):
        g = gen.complete(6)
        q = np.array([5, 2, 2, 2, 0, 0])
        rng_ref = np.random.default_rng(42)
        rng_fast = np.random.default_rng(42)
        ref = select_ref(g, q, tiebreak=tb, rng=rng_ref)
        fast = select_fast(g, q, tiebreak=tb, rng=rng_fast)
        assert sorted(ref) == sorted(fast)

    @given(st.integers(0, 2**31 - 1), st.integers(2, 9), st.floats(0.2, 0.9))
    @settings(max_examples=60, deadline=None)
    def test_agreement_hypothesis(self, seed, n, p):
        g = gen.random_gnp(n, p, seed=seed, ensure_connected=True)
        rng = np.random.default_rng(seed)
        q = rng.integers(0, 12, size=n)
        assert sorted(select_ref(g, q)) == sorted(select_fast(g, q))

    def test_empty_graph(self):
        g = MultiGraph(3)
        assert select_fast(g, [1, 2, 3]) == []
        assert select_ref(g, [1, 2, 3]) == []

    @pytest.mark.parametrize("tb", list(TieBreak))
    def test_same_order_as_reference(self, tb):
        """Row order, not just the set: stochastic stages walk it."""
        g = gen.random_multigraph(7, 18, seed=3)
        q = np.random.default_rng(3).integers(0, 6, size=g.n)
        ref = select_ref(g, q, tiebreak=tb, rng=np.random.default_rng(9))
        fast = select_fast(g, q, tiebreak=tb, rng=np.random.default_rng(9))
        assert ref == fast


class TestBatchedRowsMatchReference:
    """``R = 3`` calls with differing rows: each row is the reference's
    answer for that replica, fed the same generator state."""

    R = 3

    def rows(self, g, seed, *, lie):
        rng = np.random.default_rng(seed)
        Q = rng.integers(0, 9, size=(self.R, g.n)).astype(np.int64)
        if not lie:
            return Q, Q
        return Q, np.minimum(Q, rng.integers(0, 9, size=(self.R, g.n)))

    @pytest.mark.parametrize("lie", [False, True], ids=["truthful", "lying"])
    @pytest.mark.parametrize("tb", list(TieBreak))
    @pytest.mark.parametrize("gi", range(len(TestFastMatchesReference.TOPOLOGIES)))
    def test_rows_match(self, gi, tb, lie):
        g = TestFastMatchesReference.TOPOLOGIES[gi]
        Q, rev = self.rows(g, 10 + gi, lie=lie)
        seeds = [31, 32, 33]
        out = lgg_select_fast_batched(
            g.to_csr(), Q, rev, tiebreak=tb,
            rngs=[np.random.default_rng(s) for s in seeds],
        )
        for r, s in enumerate(seeds):
            ref = select_ref(g, Q[r], rev[r], tiebreak=tb,
                             rng=np.random.default_rng(s))
            assert compact(*out, r) == ref

    def test_random_tiebreak_consumes_one_draw_per_row(self):
        g = gen.complete(6)
        Q, rev = self.rows(g, 5, lie=False)
        rngs = [np.random.default_rng(s) for s in (1, 2, 3)]
        twins = [np.random.default_rng(s) for s in (1, 2, 3)]
        for _ in range(4):  # successive steps keep the generators in step
            out = lgg_select_fast_batched(
                g.to_csr(), Q, rev,
                tiebreak=TieBreak.QUEUE_THEN_RANDOM, rngs=rngs,
            )
            for r in range(self.R):
                ref = select_ref(g, Q[r], rev[r], tiebreak=TieBreak.QUEUE_THEN_RANDOM,
                                 rng=twins[r])
                assert compact(*out, r) == ref


class TestSelectionInvariants:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_budget_and_gradient_invariants(self, seed):
        rng = np.random.default_rng(seed)
        g = gen.random_gnp(8, 0.5, seed=seed)
        q = rng.integers(0, 6, size=8)
        sel = select_fast(g, q)
        sends = {}
        used_edges = set()
        for eid, u, v in sel:
            assert q[u] > q[v], "uphill transmission"
            sends[u] = sends.get(u, 0) + 1
            assert eid not in used_edges, "link used twice"
            used_edges.add(eid)
        for u, k in sends.items():
            assert k <= q[u], "sender overdraw"


class TestReferencePolicy:
    """The reference inside the engine: :class:`ReferenceLGGPolicy` is asked
    through ``select`` (the kernel serves only the exact ``LGGPolicy``),
    and a whole run equals the kernel's."""

    @pytest.mark.parametrize("tb", list(TieBreak))
    def test_run_matches_kernel(self, tb):
        g = gen.random_multigraph(9, 20, seed=4)
        spec = NetworkSpec.classical(g, {0: 2, 3: 1}, {8: 3})
        cfg = SimulationConfig(horizon=80, seed=6, tiebreak=tb)
        sim = Simulator(spec, policy=ReferenceLGGPolicy(tiebreak=tb), config=cfg)
        assert "policy ReferenceLGGPolicy" in ineligibility_reasons(sim)
        ref = sim.run()
        fast = Simulator(spec, config=cfg).run()
        assert ref.trajectory.potentials == fast.trajectory.potentials
        assert ref.trajectory.delivered == fast.trajectory.delivered
        assert ref.final_queues.tolist() == fast.final_queues.tolist()
