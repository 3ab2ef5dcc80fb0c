"""MultiGraph's array edge store against the list store it replaced.

The store is int32 endpoint arrays and a bool live mask, 9 bytes per edge
slot, for graphs of fewer than ``2**31`` nodes.  The list-backed store in
``tests/graphs/multigraph_reference.py`` is the oracle: after any
sequence of edits both must answer every query alike, with the same
Python and numpy types, and raise the same errors.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs import MultiGraph

from tests.graphs.multigraph_reference import ListMultiGraph

CSR_FIELDS = ("indptr", "neighbors", "edge_ids", "senders", "eids", "us", "vs")


def outcome(fn, *args):
    """``("ok", result)`` or ``("error", type, message)``."""
    try:
        return ("ok", fn(*args))
    except GraphError as exc:
        return ("error", type(exc), str(exc))


def assert_same(g: MultiGraph, ref: ListMultiGraph) -> None:
    assert (g.n, g.m, g.num_edge_slots) == (ref.n, ref.m, ref.num_edge_slots)
    edges = list(g.edges())
    assert edges == list(ref.edges())
    assert all(type(x) is int for edge in edges for x in edge)
    for got, want in zip(g.edge_array(), ref.edge_array()):
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
    for eid in range(-1, g.num_edge_slots + 1):
        assert g.has_edge_id(eid) is ref.has_edge_id(eid)
        assert outcome(g.edge_endpoints, eid) == outcome(ref.edge_endpoints, eid)
    comps = g.components()
    assert comps == ref.components()
    assert all(type(v) is int for comp in comps for v in comp)
    csr, want = g.to_csr(), ref.to_csr()
    assert (csr.n, csr.num_edge_slots) == (want.n, want.num_edge_slots)
    for name in CSR_FIELDS:
        np.testing.assert_array_equal(getattr(csr, name), getattr(want, name),
                                      err_msg=name)


#: raw values, read as ``x % (size + 2) - 1``: out of range at both ends
raw = st.integers(0, 63)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("add_nodes"), st.integers(0, 2)),
        st.tuples(st.just("add_edge"), raw, raw),
        st.tuples(st.just("add_edge"), raw, raw),
        st.tuples(st.just("remove_edge"), raw),
        st.tuples(st.just("restore_edge"), raw),
        st.tuples(st.just("copy")),
        st.tuples(st.just("from_edges"), st.lists(st.tuples(raw, raw), max_size=12),
                  st.booleans()),
    ),
    max_size=30,
)


def pick(x: int, size: int) -> int:
    return x % (size + 2) - 1


def apply(g, ref, op):
    """Apply ``op`` to both stores; returns the (possibly new) pair."""
    kind, args = op[0], op[1:]
    if kind == "add_nodes":
        assert outcome(g.add_nodes, *args) == outcome(ref.add_nodes, *args)
    elif kind == "add_edge":
        u, v = (pick(a, g.n) for a in args)
        assert outcome(g.add_edge, u, v) == outcome(ref.add_edge, u, v)
    elif kind in ("remove_edge", "restore_edge"):
        eid = pick(args[0], g.num_edge_slots)
        assert outcome(getattr(g, kind), eid) == outcome(getattr(ref, kind), eid)
    elif kind == "copy":
        return g.copy(), ref.copy()
    else:  # from_edges, as pairs or as an int64 array
        raw_pairs, as_array = args
        pairs = [(pick(a, g.n), pick(b, g.n)) for a, b in raw_pairs]
        edges = np.array(pairs, dtype=np.int64).reshape(-1, 2) if as_array else pairs
        got = outcome(MultiGraph.from_edges, g.n, edges)
        want = outcome(ListMultiGraph.from_edges, ref.n, pairs)
        if got[0] == want[0] == "ok":
            return got[1], want[1]
        assert got == want
    return g, ref


class TestAgainstListStore:
    """Parallel edges, tombstones, restores, growth, copies and rebuilds."""

    @given(st.integers(0, 5), ops, st.lists(raw, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_every_query_matches(self, n, seq, subset):
        g, ref = MultiGraph(n), ListMultiGraph(n)
        earlier = []
        for op in seq:
            if op[0] == "copy":
                earlier.append((g, ref))
            g, ref = apply(g, ref, op)
            assert_same(g, ref)
        # copies stayed independent, and == agrees on every earlier state
        for old_g, old_ref in earlier:
            assert_same(old_g, old_ref)
            assert (g == old_g) is (ref == old_ref)
        # equality ignores edge order, orientation and tombstones
        flipped = [(v, u) for _, u, v in reversed(list(g.edges()))]
        assert g == MultiGraph.from_edges(g.n, flipped)
        assert ref == ListMultiGraph.from_edges(ref.n, flipped)
        nodes = list(dict.fromkeys(x % g.n for x in subset)) if g.n else []
        sub, mapping = g.induced_subgraph(nodes)
        ref_sub, ref_mapping = ref.induced_subgraph(nodes)
        assert mapping == ref_mapping
        assert_same(sub, ref_sub)
        back = pickle.loads(pickle.dumps(g))
        assert_same(back, ref)
        assert back == g

    def test_induced_subgraph_rejects_like_the_list_store(self):
        g = MultiGraph.from_edges(3, [(0, 1), (1, 2)])
        ref = ListMultiGraph.from_edges(3, [(0, 1), (1, 2)])
        for nodes in ([0, 0], [1, 3], [-1]):
            assert (outcome(g.induced_subgraph, nodes)
                    == outcome(ref.induced_subgraph, nodes))


def store_bytes(g: MultiGraph) -> int:
    return g._eu.nbytes + g._ev.nbytes + g._alive.nbytes


class TestStoreMemory:
    def test_from_edges_holds_nine_bytes_per_slot(self):
        rng = np.random.default_rng(0)
        pairs = rng.integers(0, 5000, size=(20_000, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        g = MultiGraph.from_edges(5000, pairs)
        assert g.num_edge_slots == len(pairs)
        assert store_bytes(g) <= 9 * g.num_edge_slots
        assert store_bytes(g.copy()) <= 9 * g.num_edge_slots

    def test_a_full_store_grows_by_an_eighth(self):
        g = MultiGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)] * 300)
        m = g.num_edge_slots
        g.add_edge(0, 3)
        grown = len(g._eu) - m
        assert 1 <= grown <= m // 8 + 8
        for _ in range(grown - 1):  # the spare slots fill without a copy
            eu = g._eu
            g.add_edge(0, 2)
            assert g._eu is eu
        assert g.num_edge_slots == len(g._eu)

    def test_an_empty_graph_grows_from_nothing(self):
        g = MultiGraph(2)
        assert store_bytes(g) == 0
        assert [g.add_edge(0, 1) for _ in range(20)] == list(range(20))
        assert g.m == 20 and len(g._eu) <= 20 + 20 // 8 + 8


class TestNodeLimit:
    """int32 endpoints: ``n`` stays below ``2**31``."""

    def test_constructor_rejects_2_pow_31(self):
        with pytest.raises(GraphError, match=r"below 2\*\*31"):
            MultiGraph(2**31)
        with pytest.raises(GraphError, match=r"below 2\*\*31"):
            MultiGraph.from_edges(2**31, [(0, 1)])

    def test_add_nodes_stops_at_2_pow_31_minus_1(self):
        g = MultiGraph(2**31 - 3)
        assert list(g.add_nodes(2)) == [2**31 - 3, 2**31 - 2]
        with pytest.raises(GraphError, match=r"below 2\*\*31"):
            g.add_nodes(1)
        assert g.n == 2**31 - 1

    def test_largest_node_id_round_trips(self):
        top = 2**31 - 2
        g = MultiGraph(2**31 - 1)
        eid = g.add_edge(top, 0)
        assert g.edge_endpoints(eid) == (top, 0)
        assert list(g.edges()) == [(0, top, 0)]
        _, us, _ = g.edge_array()
        assert us.dtype == np.int64 and us.tolist() == [top]
        with pytest.raises(GraphError, match="unknown node"):
            g.add_edge(0, 2**31 - 1)
        h = MultiGraph.from_edges(2**31 - 1, np.array([[top, 1]], dtype=np.int64))
        assert h.edge_endpoints(0) == (top, 1)
