"""Unit tests for the core MultiGraph container."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs import MultiGraph


class TestConstruction:
    def test_empty_graph(self):
        g = MultiGraph()
        assert g.n == 0
        assert g.m == 0
        assert g.max_degree() == 0
        assert g.is_connected()  # vacuously

    def test_negative_node_count_rejected(self):
        with pytest.raises(GraphError):
            MultiGraph(-1)

    def test_from_edges(self):
        g = MultiGraph.from_edges(3, [(0, 1), (1, 2)])
        assert g.n == 3
        assert g.m == 2

    def test_from_edges_array_matches_pairs(self):
        pairs = [(2, 0), (0, 1), (1, 2), (0, 1)]
        a = MultiGraph.from_edges(3, pairs)
        b = MultiGraph.from_edges(3, np.array(pairs, dtype=np.int64))
        assert list(a.edges()) == list(b.edges()) == [
            (0, 2, 0), (1, 0, 1), (2, 1, 2), (3, 0, 1)]
        assert all(type(u) is int for _, u, _ in b.edges())

    def test_from_edges_empty(self):
        for edges in ([], iter(()), np.empty((0, 2), dtype=np.int64)):
            g = MultiGraph.from_edges(2, edges)
            assert (g.n, g.m, g.num_edge_slots) == (2, 0, 0)

    def test_from_edges_rejects_non_pairs(self):
        with pytest.raises(GraphError, match="pairs"):
            MultiGraph.from_edges(4, np.zeros((2, 3), dtype=np.int64))
        with pytest.raises(GraphError, match="pairs"):
            MultiGraph.from_edges(4, [(0, 1), (1, 2, 3)])

    def test_add_nodes_returns_range(self):
        g = MultiGraph(2)
        new = g.add_nodes(3)
        assert list(new) == [2, 3, 4]
        assert g.n == 5

    def test_add_zero_nodes(self):
        g = MultiGraph(1)
        assert list(g.add_nodes(0)) == []

    def test_add_negative_nodes_rejected(self):
        with pytest.raises(GraphError):
            MultiGraph(1).add_nodes(-2)


#: name -> (bad edge, the GraphError text add_edge raises for it on 4 nodes)
BAD_EDGES = {
    "v-unknown": ((0, 9), "unknown node 9 (graph has 4 nodes)"),
    "u-negative": ((-1, 2), "unknown node -1 (graph has 4 nodes)"),
    "u-checked-first": ((7, -1), "unknown node 7 (graph has 4 nodes)"),
    "unknown-before-loop": ((4, 4), "unknown node 4 (graph has 4 nodes)"),
    "self-loop": ((2, 2), "self-loop at node 2 is not allowed"),
    "v-past-int64": ((0, 2**70), f"unknown node {2**70} (graph has 4 nodes)"),
    "u-past-int64": ((-2**70, 1), f"unknown node {-2**70} (graph has 4 nodes)"),
    "past-uint64": ((2**64, 2**64), f"unknown node {2**64} (graph has 4 nodes)"),
}


def _fits_int64(pair) -> bool:
    return all(-2**63 <= x < 2**63 for x in pair)


#: each bad edge as a list, and as an int64 array where its values fit
BAD_EDGE_CASES = [
    pytest.param(bad, message, as_array,
                 id=f"{name}-{'array' if as_array else 'list'}")
    for name, (bad, message) in BAD_EDGES.items()
    for as_array in (False, True)
    if not as_array or _fits_int64(bad)
]


class TestFromEdgesValidation:
    """``from_edges`` names the first bad edge exactly as ``add_edge``
    would, for Python ints of any size, and never leaks a numpy
    ``OverflowError``/``TypeError``/``ValueError``."""

    @pytest.mark.parametrize("bad,message,as_array", BAD_EDGE_CASES)
    def test_first_bad_edge_raises_graph_error(self, bad, message, as_array):
        edges = [(0, 1), (1, 2), (2, 3), bad, (3, 3), (0, 8)]
        if as_array:
            edges = np.array(edges, dtype=np.int64)
        with pytest.raises(GraphError) as exc_info:
            MultiGraph.from_edges(4, edges)
        assert str(exc_info.value) == message
        with pytest.raises(GraphError) as add_info:
            MultiGraph(4).add_edge(*bad)
        assert str(add_info.value) == message


class TestEdges:
    def test_edge_ids_sequential(self):
        g = MultiGraph(3)
        assert g.add_edge(0, 1) == 0
        assert g.add_edge(1, 2) == 1

    def test_parallel_edges_allowed(self):
        g = MultiGraph(2)
        e1 = g.add_edge(0, 1)
        e2 = g.add_edge(0, 1)
        assert e1 != e2
        assert g.m == 2
        assert g.edge_multiplicity(0, 1) == 2

    def test_self_loop_rejected(self):
        g = MultiGraph(2)
        with pytest.raises(GraphError):
            g.add_edge(1, 1)

    def test_unknown_node_rejected(self):
        g = MultiGraph(2)
        with pytest.raises(GraphError):
            g.add_edge(0, 5)

    def test_edge_endpoints_and_other_end(self):
        g = MultiGraph(3)
        e = g.add_edge(2, 0)
        assert g.edge_endpoints(e) == (2, 0)
        assert g.other_end(e, 2) == 0
        assert g.other_end(e, 0) == 2
        with pytest.raises(GraphError):
            g.other_end(e, 1)

    def test_remove_edge_keeps_other_ids(self):
        g = MultiGraph(3)
        e0 = g.add_edge(0, 1)
        e1 = g.add_edge(1, 2)
        g.remove_edge(e0)
        assert g.m == 1
        assert not g.has_edge_id(e0)
        assert g.has_edge_id(e1)
        assert g.edge_endpoints(e1) == (1, 2)

    def test_remove_then_restore(self):
        g = MultiGraph(2)
        e = g.add_edge(0, 1)
        g.remove_edge(e)
        assert g.m == 0
        g.restore_edge(e)
        assert g.m == 1
        assert g.has_edge_id(e)

    def test_restore_is_idempotent(self):
        g = MultiGraph(2)
        e = g.add_edge(0, 1)
        g.restore_edge(e)
        assert g.m == 1

    def test_double_remove_rejected(self):
        g = MultiGraph(2)
        e = g.add_edge(0, 1)
        g.remove_edge(e)
        with pytest.raises(GraphError):
            g.remove_edge(e)

    def test_edges_iterates_live_only(self):
        g = MultiGraph(3)
        e0 = g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.remove_edge(e0)
        assert [(u, v) for _, u, v in g.edges()] == [(1, 2)]

    def test_edge_array(self):
        g = MultiGraph(3)
        g.add_edge(0, 1)
        g.add_edge(2, 1)
        eids, us, vs = g.edge_array()
        assert eids.tolist() == [0, 1]
        assert us.tolist() == [0, 2]
        assert vs.tolist() == [1, 1]


class TestDegreesAndNeighbors:
    def test_degree_counts_multiplicity(self):
        g = MultiGraph(3)
        g.add_edge(0, 1)
        g.add_edge(0, 1)
        g.add_edge(0, 2)
        assert g.degree(0) == 3
        assert g.degree(1) == 2
        assert g.degree(2) == 1

    def test_max_degree_is_paper_delta(self):
        g = MultiGraph(4)
        g.add_edge(0, 1)
        g.add_edge(0, 2)
        g.add_edge(0, 3)
        assert g.max_degree() == 3

    def test_degrees_array(self):
        g = MultiGraph.from_edges(3, [(0, 1), (1, 2)])
        assert g.degrees().tolist() == [1, 2, 1]

    def test_neighbors_with_multiplicity(self):
        g = MultiGraph(3)
        g.add_edge(0, 1)
        g.add_edge(0, 1)
        g.add_edge(0, 2)
        assert sorted(g.neighbors(0)) == [1, 1, 2]
        assert g.distinct_neighbors(0) == [1, 2]

    def test_incident_edges(self):
        g = MultiGraph(3)
        e0 = g.add_edge(0, 1)
        e1 = g.add_edge(0, 2)
        assert sorted(g.incident_edges(0)) == [e0, e1]

    def test_degree_sums_to_twice_edges(self):
        g = MultiGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)])
        assert int(g.degrees().sum()) == 2 * g.m


class TestAdjacencyCache:
    def test_cache_invalidated_on_add(self):
        g = MultiGraph(3)
        g.add_edge(0, 1)
        assert g.degree(0) == 1
        g.add_edge(0, 2)
        assert g.degree(0) == 2

    def test_cache_invalidated_on_remove(self):
        g = MultiGraph(3)
        e = g.add_edge(0, 1)
        assert g.degree(0) == 1
        g.remove_edge(e)
        assert g.degree(0) == 0

    def test_adjacency_consistency(self):
        g = MultiGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
        csr = g.to_csr()
        for v in range(4):
            for nbr, eid in zip(csr.neighbors_of(v), csr.edges_of(v)):
                assert g.other_end(int(eid), v) == int(nbr)


class TestConnectivity:
    def test_connected_path(self):
        g = MultiGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.is_connected()
        assert g.components() == [[0, 1, 2, 3]]

    def test_disconnected(self):
        g = MultiGraph.from_edges(4, [(0, 1), (2, 3)])
        assert not g.is_connected()
        assert g.components() == [[0, 1], [2, 3]]

    def test_isolated_nodes_are_components(self):
        g = MultiGraph(3)
        g.add_edge(0, 1)
        assert g.components() == [[0, 1], [2]]

    def test_connectivity_builds_no_csr(self):
        g = MultiGraph.from_edges(5, [(3, 4), (0, 1), (1, 2)])
        assert g.components() == [[0, 1, 2], [3, 4]]
        assert not g.is_connected()
        assert g._csr_cache is None


class TestSubgraphAndCopy:
    def test_copy_is_independent(self):
        g = MultiGraph.from_edges(3, [(0, 1)])
        h = g.copy()
        h.add_edge(1, 2)
        assert g.m == 1
        assert h.m == 2

    def test_copy_preserves_tombstones(self):
        g = MultiGraph(3)
        e0 = g.add_edge(0, 1)
        e1 = g.add_edge(1, 2)
        g.remove_edge(e0)
        h = g.copy()
        assert not h.has_edge_id(e0)
        assert h.has_edge_id(e1)

    def test_induced_subgraph(self):
        g = MultiGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
        sub, mapping = g.induced_subgraph([1, 2, 3])
        assert sub.n == 3
        assert sub.m == 3  # (1,2), (2,3), (1,3)
        assert mapping == {1: 0, 2: 1, 3: 2}

    def test_induced_subgraph_duplicate_rejected(self):
        g = MultiGraph(3)
        with pytest.raises(GraphError):
            g.induced_subgraph([0, 0])

    def test_equality_is_structural(self):
        a = MultiGraph.from_edges(3, [(0, 1), (1, 2)])
        b = MultiGraph.from_edges(3, [(1, 2), (1, 0)])
        assert a == b
        b.add_edge(0, 2)
        assert a != b

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(MultiGraph(1))
