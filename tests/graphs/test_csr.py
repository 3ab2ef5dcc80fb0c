"""CSRTopology: the shared flat-array snapshot and its caching contract.

Every layer reads the snapshot directly: the graph's degree and neighbour
queries, and the engine, whose selection-kernel constants are memoised on
the snapshot and shared by every engine on the graph.

The snapshot is one stable sort of the half-edges; the per-edge cursor
loop it replaced lives in ``tests/graphs/csr_reference.py`` and must
give the same seven arrays, element for element, after any sequence of
edits.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SimulationConfig, Simulator, TieBreak
from repro.core.lgg_fast import SortKeys
from repro.graphs import CSRTopology, MultiGraph
from repro.graphs import generators as gen
from repro.network import NetworkSpec

from tests.graphs.csr_reference import components_reference, csr_arrays_reference


def diamond() -> MultiGraph:
    g = MultiGraph(4)
    g.add_edge(0, 1)
    g.add_edge(0, 2)
    g.add_edge(1, 3)
    g.add_edge(2, 3)
    g.add_edge(1, 2)
    return g


class TestLayout:
    def test_halfedge_blocks_match_adjacency(self):
        g = diamond()
        csr = g.to_csr()
        assert csr.num_half_edges == 2 * csr.m == 10
        for u in range(g.n):
            lo, hi = int(csr.indptr[u]), int(csr.indptr[u + 1])
            assert (csr.senders[lo:hi] == u).all()
            # the graph's queries read the same block of the snapshot
            assert g.degree(u) == hi - lo
            assert g.neighbors(u) == csr.neighbors_of(u).tolist() \
                == csr.neighbors[lo:hi].tolist()
            assert g.incident_edges(u) == csr.edges_of(u).tolist() \
                == csr.edge_ids[lo:hi].tolist()
            got = sorted(zip(csr.neighbors[lo:hi].tolist(),
                             csr.edge_ids[lo:hi].tolist()))
            want = sorted((v, e) for e, a, v in
                          ((e, a, (b if a == u else a))
                           for e, a, b in g.edges() if u in (a, b)))
            assert [v for v, _ in got] == [v for v, _ in want]

    def test_degrees(self):
        csr = diamond().to_csr()
        assert csr.degrees().tolist() == [2, 3, 3, 2]

    def test_edge_list_normalised(self):
        csr = diamond().to_csr()
        assert (csr.us <= csr.vs).all()
        assert csr.canonical_edges() == [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]

    def test_arrays_frozen(self):
        csr = diamond().to_csr()
        with pytest.raises(ValueError):
            csr.neighbors[0] = 99

    def test_engines_share_sort_keys(self, monkeypatch):
        built = []
        build = SortKeys.build

        def counting_build(csr, tiebreak):
            built.append(tiebreak)
            return build(csr, tiebreak)

        monkeypatch.setattr(SortKeys, "build", counting_build)
        g = diamond()
        spec = NetworkSpec.classical(g, {0: 2}, {3: 2})
        csr = g.to_csr()
        for tb in TieBreak:
            config = SimulationConfig(horizon=20, seed=1, tiebreak=tb,
                                      numeric_fastpath=False)
            first, second = Simulator(spec, config=config), Simulator(spec, config=config)
            assert first._csr is second._csr is csr
            first.run()
            keys = csr.sort_keys[tb]
            second.run()
            assert csr.sort_keys[tb] is keys
        # one build per tie-break, shared by both engines
        assert built == list(TieBreak)
        # a mutation builds a new snapshot, which starts without keys
        g.add_edge(0, 3)
        assert g.to_csr() is not csr and g.to_csr().sort_keys == {}
        assert set(csr.sort_keys) == set(TieBreak)

    def test_shared_positions_grow_safely_across_threads(self, monkeypatch):
        """Block ranks read one shared ``arange``, grown on demand: threads
        (more than cores) growing it at once each get exactly ``arange(h)``,
        read-only, even while the losers of grow races install shorter
        arrays."""
        import sys
        import threading

        from repro.core import lgg_fast

        monkeypatch.setattr(lgg_fast, "_POSITIONS", np.arange(0, dtype=np.int64))
        bad = []
        stop = threading.Event()

        def worker(seed):
            rng = np.random.default_rng(seed)
            for h in rng.integers(1, 5_000, size=400).tolist():
                got = lgg_fast._positions(h)
                if (len(got) != h or got.flags.writeable
                        or not np.array_equal(got, np.arange(h))):
                    bad.append(h)

        def shrink():
            while not stop.is_set():
                lgg_fast._POSITIONS = np.arange(1, dtype=np.int64)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        shrinker = threading.Thread(target=shrink)
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        try:
            shrinker.start()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            stop.set()
            shrinker.join(timeout=60)
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in [shrinker, *threads])
        assert bad == []


class TestCaching:
    def test_snapshot_is_cached(self):
        g = diamond()
        assert g.to_csr() is g.to_csr()

    def test_mutation_invalidates(self):
        g = diamond()
        before = g.to_csr()
        g.add_edge(0, 3)
        after = g.to_csr()
        assert after is not before
        assert after.m == before.m + 1
        # the old snapshot is immutable history, not corrupted
        assert before.m == 5

    def test_remove_edge_invalidates(self):
        g = diamond()
        before = g.to_csr()
        g.remove_edge(0)
        after = g.to_csr()
        assert after is not before
        assert after.m == before.m - 1
        assert 0 not in after.eids.tolist()


class TestCanonicalDigest:
    def test_matches_historical_payload(self):
        g = diamond()
        csr = g.to_csr()
        payload = {"n": g.n, "edges": sorted(
            (min(u, v), max(u, v)) for _, u, v in g.edges()
        )}
        want = hashlib.sha256(
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        assert csr.canonical_digest() == want

    def test_insertion_order_invariant(self):
        g1 = MultiGraph(3)
        g1.add_edge(0, 1)
        g1.add_edge(1, 2)
        g2 = MultiGraph(3)
        g2.add_edge(1, 2)
        g2.add_edge(0, 1)
        assert g1.to_csr().canonical_digest() == g2.to_csr().canonical_digest()

    def test_tombstone_invariant(self):
        g1 = MultiGraph(3)
        g1.add_edge(0, 1)
        g1.add_edge(1, 2)
        g2 = MultiGraph(3)
        g2.add_edge(0, 1)
        doomed = g2.add_edge(0, 2)
        g2.add_edge(1, 2)
        g2.remove_edge(doomed)
        assert g1.to_csr().canonical_digest() == g2.to_csr().canonical_digest()

    def test_extra_payload_changes_digest(self):
        csr = diamond().to_csr()
        assert csr.canonical_digest() != csr.canonical_digest({"in": [(0, 1)]})

    def test_parallel_edges_distinct(self):
        g1 = MultiGraph(2)
        g1.add_edge(0, 1)
        g2 = MultiGraph(2)
        g2.add_edge(0, 1)
        g2.add_edge(0, 1)
        assert g1.to_csr().canonical_digest() != g2.to_csr().canonical_digest()


class TestFromGenerators:
    def test_random_graph_round_trip(self):
        g = gen.random_gnp(30, 0.2, seed=3, ensure_connected=True)
        csr = g.to_csr()
        assert csr.n == 30
        assert int(csr.degrees().sum()) == csr.num_half_edges
        edges = {(min(u, v), max(u, v), e) for e, u, v in g.edges()}
        flat = set(zip(csr.us.tolist(), csr.vs.tolist(), csr.eids.tolist()))
        assert flat == edges


#: one edit per tuple: (kind, a, b), read modulo the graph's current size
edits = st.lists(
    st.tuples(st.sampled_from(("add", "add", "remove", "restore", "grow")),
              st.integers(0, 63), st.integers(0, 63)),
    max_size=40,
)


def apply_edit(g: MultiGraph, kind: str, a: int, b: int) -> None:
    if kind == "grow":
        g.add_nodes(1)
    elif kind == "add" and g.n >= 2 and a % g.n != b % g.n:
        g.add_edge(a % g.n, b % g.n)
    elif kind == "remove" and g.num_edge_slots and g.has_edge_id(a % g.num_edge_slots):
        g.remove_edge(a % g.num_edge_slots)
    elif kind == "restore" and g.num_edge_slots:
        g.restore_edge(a % g.num_edge_slots)


class TestAgainstReference:
    """Parallel edges, tombstones, restored ids, isolated nodes, n = 0, 1."""

    @given(st.integers(0, 6), edits)
    @settings(max_examples=200, deadline=None)
    def test_arrays_and_components_match(self, n, seq):
        g = MultiGraph(n)
        for edit in seq:
            apply_edit(g, *edit)
        assert g.components() == components_reference(g)
        assert g._csr_cache is None  # connectivity never builds a snapshot
        csr = g.to_csr()
        for name, want in csr_arrays_reference(g).items():
            got = getattr(csr, name)
            assert got.dtype == np.int64, name
            np.testing.assert_array_equal(got, want, err_msg=name)

    def test_in_block_order_is_edge_id_order(self):
        # node 0's half-edges in id order, whichever endpoint it is
        g = MultiGraph.from_edges(4, [(0, 3), (2, 0), (0, 1), (1, 0), (3, 0)])
        csr = g.to_csr()
        assert csr.edge_ids[:csr.indptr[1]].tolist() == [0, 1, 2, 3, 4]
        assert csr.neighbors[:csr.indptr[1]].tolist() == [3, 2, 1, 1, 3]
