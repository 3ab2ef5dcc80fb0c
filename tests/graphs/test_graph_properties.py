"""Property-based MultiGraph tests (hypothesis): structural invariants
under randomized construction and mutation sequences."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import MultiGraph
from repro.graphs import generators as gen


@st.composite
def graph_and_ops(draw):
    """A random multigraph plus a random remove/restore mutation script."""
    n = draw(st.integers(2, 10))
    m = draw(st.integers(0, 25))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    g = MultiGraph(n)
    for _ in range(m):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n - 1))
        if v >= u:
            v += 1
        g.add_edge(u, v)
    ops = []
    for _ in range(draw(st.integers(0, 15))):
        if g.num_edge_slots == 0:
            break
        eid = int(rng.integers(0, g.num_edge_slots))
        ops.append((draw(st.sampled_from(["remove", "restore"])), eid))
    return g, ops


class TestStructuralInvariants:
    @given(graph_and_ops())
    @settings(max_examples=60, deadline=None)
    def test_degree_sum_is_twice_edges(self, go):
        g, ops = go
        for op, eid in ops:
            if op == "remove" and g.has_edge_id(eid):
                g.remove_edge(eid)
            elif op == "restore":
                g.restore_edge(eid)
        assert int(g.degrees().sum()) == 2 * g.m
        assert len(list(g.edges())) == g.m

    @given(graph_and_ops())
    @settings(max_examples=40, deadline=None)
    def test_adjacency_round_trip(self, go):
        g, _ = go
        csr = g.to_csr()
        # every half-edge must be mirrored at the other endpoint
        for v in range(g.n):
            for nbr, eid in zip(csr.neighbors_of(v), csr.edges_of(v)):
                assert g.other_end(int(eid), v) == int(nbr)
                assert int(eid) in g.incident_edges(int(nbr))

    @given(graph_and_ops())
    @settings(max_examples=40, deadline=None)
    def test_components_partition_nodes(self, go):
        g, _ = go
        comps = g.components()
        flat = [v for comp in comps for v in comp]
        assert sorted(flat) == list(range(g.n))

    @given(graph_and_ops())
    @settings(max_examples=40, deadline=None)
    def test_copy_equals_original(self, go):
        g, _ = go
        assert g.copy() == g

    @given(graph_and_ops())
    @settings(max_examples=30, deadline=None)
    def test_induced_subgraph_degree_bound(self, go):
        g, _ = go
        if g.n < 3:
            return
        nodes = list(range(g.n))[: g.n // 2 + 1]
        sub, mapping = g.induced_subgraph(nodes)
        for old in nodes:
            assert sub.degree(mapping[old]) <= g.degree(old)

    @given(st.integers(2, 30), st.integers(0, 60), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_networkx_round_trip(self, n, m, seed):
        from repro.graphs import from_networkx, to_networkx

        g = gen.random_multigraph(n, m, seed=seed)
        back, _ = from_networkx(to_networkx(g))
        assert back == g


class TestGeneratorInvariants:
    @given(st.integers(2, 8), st.integers(2, 8))
    @settings(max_examples=20, deadline=None)
    def test_grid_node_and_edge_count(self, r, c):
        g = gen.grid(r, c)
        assert g.n == r * c
        assert g.m == r * (c - 1) + c * (r - 1)

    @given(st.integers(3, 40))
    @settings(max_examples=20, deadline=None)
    def test_cycle_is_two_regular_connected(self, n):
        g = gen.cycle(n)
        assert all(d == 2 for d in g.degrees())
        assert g.is_connected()

    @given(st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_parallel_paths_flow_value(self, k, length):
        from repro.flow import feasible_flow
        from repro.graphs import build_extended_graph

        g, s, d = gen.parallel_paths(k, length)
        ext = build_extended_graph(g, {s: k}, {d: k})
        assert feasible_flow(ext).value == k

    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_bottleneck_gadget_flow(self, a, b, w):
        from repro.flow import feasible_flow
        from repro.graphs import build_extended_graph

        g, entries, exits = gen.bottleneck_gadget(a, b, w)
        ext = build_extended_graph(
            g, {v: 1 for v in entries}, {v: 1 for v in exits}
        )
        assert feasible_flow(ext).value == min(a, b, w)
