"""Tests for the G* construction (Fig. 2 / Fig. 4)."""

from fractions import Fraction

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs import MultiGraph, build_extended_graph
from repro.graphs.extended import ArcKind
from repro.graphs import generators as gen


def small_net():
    g = MultiGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    return g


class TestBuildExtendedGraph:
    def test_virtual_node_ids(self):
        g = small_net()
        ext = build_extended_graph(g, {0: 1}, {3: 1})
        assert ext.s_star == 4
        assert ext.d_star == 5
        assert ext.n == 6
        assert ext.n_base == 4

    def test_edge_arcs_doubled(self):
        g = small_net()
        ext = build_extended_graph(g, {0: 1}, {3: 1})
        fwd = ext.arcs_of_kind(ArcKind.EDGE_FWD)
        bwd = ext.arcs_of_kind(ArcKind.EDGE_BWD)
        assert len(fwd) == g.m
        assert len(bwd) == g.m
        # each fwd/bwd pair shares a base edge ref and has opposite direction
        for f, b in zip(fwd, bwd):
            assert ext.refs[f] == ext.refs[b]
            assert ext.tails[f] == ext.heads[b]
            assert ext.heads[f] == ext.tails[b]

    def test_source_and_sink_arcs(self):
        g = small_net()
        ext = build_extended_graph(g, {0: 2, 1: 3}, {3: 4})
        src = ext.arcs_of_kind(ArcKind.SOURCE)
        snk = ext.arcs_of_kind(ArcKind.SINK)
        assert len(src) == 2
        assert len(snk) == 1
        i = ext.source_arc_of(0)
        assert ext.tails[i] == ext.s_star
        assert ext.heads[i] == 0
        assert ext.capacities[i] == 2
        j = ext.sink_arc_of(3)
        assert ext.tails[j] == 3
        assert ext.heads[j] == ext.d_star
        assert ext.capacities[j] == 4

    def test_zero_rates_dropped(self):
        g = small_net()
        ext = build_extended_graph(g, {0: 1, 1: 0}, {3: 1})
        assert len(ext.arcs_of_kind(ArcKind.SOURCE)) == 1
        with pytest.raises(GraphError):
            ext.source_arc_of(1)

    def test_negative_rate_rejected(self):
        with pytest.raises(GraphError):
            build_extended_graph(small_net(), {0: -1}, {3: 1})

    def test_unknown_node_rejected(self):
        with pytest.raises(GraphError):
            build_extended_graph(small_net(), {9: 1}, {3: 1})

    def test_node_with_both_in_and_out(self):
        """R-generalized nodes (Fig. 4) carry both a source and a sink arc."""
        g = small_net()
        ext = build_extended_graph(g, {1: 2}, {1: 3})
        assert ext.source_arc_of(1) is not None
        assert ext.sink_arc_of(1) is not None

    def test_source_scale_applies_only_to_in(self):
        g = small_net()
        ext = build_extended_graph(g, {0: 2}, {3: 5}, source_scale=1.5)
        assert ext.capacities[ext.source_arc_of(0)] == 3.0
        assert ext.capacities[ext.sink_arc_of(3)] == 5

    def test_total_injection(self):
        ext = build_extended_graph(small_net(), {0: 2, 1: 3}, {3: 1})
        assert ext.total_injection() == 5

    def test_parallel_edges_each_get_arc_pair(self):
        g = MultiGraph(2)
        g.add_edge(0, 1)
        g.add_edge(0, 1)
        ext = build_extended_graph(g, {0: 1}, {1: 1})
        assert len(ext.arcs_of_kind(ArcKind.EDGE_FWD)) == 2

    def test_edge_capacity_override(self):
        g = small_net()
        ext = build_extended_graph(g, {0: 1}, {3: 1}, edge_capacity=7)
        f = ext.arcs_of_kind(ArcKind.EDGE_FWD)[0]
        assert ext.capacities[f] == 7


def extended_reference(graph, in_rates, out_rates, *, edge_capacity=1,
                       source_scale=1):
    """The per-edge loop ``build_extended_graph`` replaced, as its fields."""
    n = graph.n
    in_clean = {v: r for v, r in sorted(in_rates.items()) if r > 0}
    out_clean = {v: r for v, r in sorted(out_rates.items()) if r > 0}
    tails, heads, caps, kinds, refs = [], [], [], [], []
    for eid, u, v in graph.edges():
        tails += [u, v]
        heads += [v, u]
        caps += [edge_capacity, edge_capacity]
        kinds += [ArcKind.EDGE_FWD, ArcKind.EDGE_BWD]
        refs += [eid, eid]
    for v, r in in_clean.items():
        tails.append(n)
        heads.append(v)
        caps.append(r * source_scale)
        kinds.append(ArcKind.SOURCE)
        refs.append(v)
    for v, r in out_clean.items():
        tails.append(v)
        heads.append(n + 1)
        caps.append(r)
        kinds.append(ArcKind.SINK)
        refs.append(v)
    return {"n_base": n, "s_star": n, "d_star": n + 1,
            "tails": np.array(tails, dtype=np.int64),
            "heads": np.array(heads, dtype=np.int64),
            "capacities": tuple(caps), "kinds": tuple(kinds),
            "refs": np.array(refs, dtype=np.int64),
            "in_rates": in_clean, "out_rates": out_clean}


def _tombstoned_gnp():
    g = gen.random_gnp(24, 0.3, seed=5)
    for eid in range(0, g.num_edge_slots, 3):
        g.remove_edge(eid)
    g.add_edge(0, 1)
    g.add_edge(1, 0)
    return g


class TestAgainstPerEdgeLoop:
    """The array build gives the per-edge loop's ``G*``, field for field."""

    @pytest.mark.parametrize("graph,in_rates,out_rates,kwargs", [
        (MultiGraph(3), {}, {}, {}),
        (MultiGraph(3), {0: 1}, {2: 2}, {}),
        (small_net(), {0: 2, 1: 0}, {3: 4, 0: 1}, {}),
        (_tombstoned_gnp(), {5: 3, 0: 1}, {7: Fraction(5, 2)},
         {"source_scale": Fraction(11, 10)}),
        (_tombstoned_gnp(), {2: 1.5}, {9: 2}, {"edge_capacity": 3}),
        (gen.grid(5, 5), {0: 1, 4: 1}, {24: 2, 0: 1}, {"source_scale": 2}),
    ], ids=["edgeless", "edgeless-rates", "path", "tombstones-fractions",
            "float-capacity", "grid-both-maps"])
    def test_fields_match(self, graph, in_rates, out_rates, kwargs):
        ext = build_extended_graph(graph, in_rates, out_rates, **kwargs)
        want = extended_reference(graph, in_rates, out_rates, **kwargs)
        for name, value in want.items():
            got = getattr(ext, name)
            if isinstance(value, np.ndarray):
                assert got.dtype == np.int64, name
                np.testing.assert_array_equal(got, value, err_msg=name)
            else:
                assert got == value, name
                if name == "capacities":
                    assert [type(c) for c in got] == [type(c) for c in value]
        assert ext.arc_lists == (want["tails"].tolist(), want["heads"].tolist())
        assert all(type(x) is int for x in ext.arc_lists[0] + ext.arc_lists[1])


class TestNetworkxRoundTrip:
    def test_round_trip_preserves_structure(self):
        from repro.graphs import from_networkx, to_networkx

        g, _, _ = gen.paper_figure_graph()
        nxg = to_networkx(g)
        back, label_map = from_networkx(nxg)
        assert back == g
        assert label_map == {i: i for i in range(g.n)}

    def test_from_networkx_simple_graph(self):
        import networkx as nx

        from repro.graphs import from_networkx

        nxg = nx.path_graph(4)
        g, label_map = from_networkx(nxg)
        assert g.n == 4
        assert g.m == 3

    def test_from_networkx_drops_self_loops(self):
        import networkx as nx

        from repro.graphs import from_networkx

        nxg = nx.MultiGraph()
        nxg.add_edge(0, 0)
        nxg.add_edge(0, 1)
        g, _ = from_networkx(nxg)
        assert g.m == 1

    def test_from_networkx_rejects_directed(self):
        import networkx as nx

        from repro.graphs import from_networkx

        with pytest.raises(GraphError):
            from_networkx(nx.DiGraph([(0, 1)]))
