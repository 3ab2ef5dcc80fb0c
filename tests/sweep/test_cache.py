"""Canonical-hash feasibility cache: key invariance and hit fidelity.

Property-tested: the canonical multigraph hash must be invariant under
edge-insertion order, node-preserving copies, and remove/restore
tombstone churn — and a cache hit must return a report identical to a
cold :func:`classify_network` call.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow import classify_network
from repro.graphs.multigraph import MultiGraph
from repro.network import NetworkSpec, RevelationPolicy
from repro.sweep import (
    FeasibilityCache,
    canonical_graph_key,
    canonical_spec_key,
    shared_cache,
)


@st.composite
def edge_lists(draw):
    n = draw(st.integers(2, 8))
    m = draw(st.integers(1, 14))
    edges = [
        tuple(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                            unique=True)))
        for _ in range(m)
    ]
    return n, edges


class TestGraphKey:
    @given(data=edge_lists(), order_seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_invariant_to_insertion_order(self, data, order_seed):
        n, edges = data
        shuffled = list(edges)
        np.random.default_rng(order_seed).shuffle(shuffled)
        a = MultiGraph.from_edges(n, edges)
        b = MultiGraph.from_edges(n, shuffled)
        assert canonical_graph_key(a) == canonical_graph_key(b)

    @given(data=edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_invariant_to_copies_and_orientation(self, data):
        n, edges = data
        a = MultiGraph.from_edges(n, edges)
        b = MultiGraph.from_edges(n, [(v, u) for u, v in edges])
        assert canonical_graph_key(a) == canonical_graph_key(a.copy())
        assert canonical_graph_key(a) == canonical_graph_key(b)

    @given(data=edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_tombstones_do_not_leak_into_key(self, data):
        """remove+restore churn changes edge-id bookkeeping, not the key."""
        n, edges = data
        a = MultiGraph.from_edges(n, edges)
        b = MultiGraph.from_edges(n, edges)
        eid = b.add_edge(*edges[0])
        b.remove_edge(eid)
        assert canonical_graph_key(a) == canonical_graph_key(b)

    @given(data=edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_sensitive_to_extra_edges_and_nodes(self, data):
        n, edges = data
        base = MultiGraph.from_edges(n, edges)
        extra = MultiGraph.from_edges(n, edges + [edges[0]])  # +1 multiplicity
        wider = MultiGraph.from_edges(n + 1, edges)
        assert canonical_graph_key(base) != canonical_graph_key(extra)
        assert canonical_graph_key(base) != canonical_graph_key(wider)


def _line_spec(in_rate=1, out_rate=1, **spec_kwargs):
    g = MultiGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (1, 2)])
    return NetworkSpec.classical(g, {0: in_rate}, {3: out_rate})


class TestSpecKey:
    def test_simulation_only_knobs_share_a_key(self):
        """Retention / revelation / injection semantics never touch G*."""
        g = MultiGraph.from_edges(3, [(0, 1), (1, 2)])
        classical = NetworkSpec.classical(g, {0: 1}, {2: 1})
        lying = NetworkSpec.generalized(
            g, {0: 1}, {2: 1}, retention=4,
            revelation=RevelationPolicy.ALWAYS_R,
        )
        assert canonical_spec_key(classical) == canonical_spec_key(lying)

    def test_rates_change_the_key(self):
        assert canonical_spec_key(_line_spec(1, 1)) != canonical_spec_key(
            _line_spec(1, 2))
        assert canonical_spec_key(_line_spec(1, 1)) != canonical_spec_key(
            _line_spec(2, 2))


def _report_fields(report):
    """FeasibilityReport with the ndarray-bearing cut flattened to lists
    (dataclass == would hit numpy's ambiguous-truth on MinCut.side)."""
    return (
        report.network_class,
        report.arrival_rate,
        report.max_flow_value,
        report.f_star,
        report.certified_epsilon,
        report.cut_kind,
        report.unique_min_cut,
        report.min_cut.source_side,
        sorted(report.min_cut.arcs),
        report.min_cut.capacity,
    )


@st.composite
def small_specs(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    from repro.graphs import generators as gen

    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9))
    g = gen.random_gnp(n, 0.5, seed=seed, ensure_connected=True)
    nodes = rng.permutation(n)
    return NetworkSpec.classical(
        g,
        {int(nodes[0]): int(rng.integers(1, 3))},
        {int(nodes[-1]): int(rng.integers(1, 3))},
    )


class TestFeasibilityCache:
    @given(spec=small_specs())
    @settings(max_examples=25, deadline=None)
    def test_hit_equals_cold_classification(self, spec):
        cache = FeasibilityCache()
        cold = classify_network(spec.extended())
        miss = cache.classify(spec)
        hit = cache.classify(spec)
        assert cache.misses == 1 and cache.hits == 1
        assert _report_fields(miss) == _report_fields(cold)
        assert _report_fields(hit) == _report_fields(cold)

    def test_hit_across_equivalent_specs(self):
        """Insertion order and copies hit the same entry."""
        g1 = MultiGraph.from_edges(3, [(0, 1), (1, 2)])
        g2 = MultiGraph.from_edges(3, [(1, 2), (0, 1)])
        cache = FeasibilityCache()
        cache.classify(NetworkSpec.classical(g1, {0: 1}, {2: 1}))
        cache.classify(NetworkSpec.classical(g2, {0: 1}, {2: 1}))
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.size == 1

    def test_classify_ray_and_region_entries_stay_disjoint(self):
        """One spec, three kinds of entry: none answers for another, and
        the region entry is built from the banked ray entry."""
        cache = FeasibilityCache()
        spec = _line_spec()
        report = cache.classify(spec)
        envelope = cache.envelope(spec)
        region = cache.region(spec)
        assert (cache.size, cache.misses, cache.hits) == (3, 3, 1)
        assert region.envelope is envelope
        assert region.network_class is report.network_class
        assert cache.classify(spec) is report
        assert cache.envelope(spec) is envelope
        assert cache.region(spec) is region
        assert (cache.size, cache.misses, cache.hits) == (3, 3, 4)

    def test_clear_and_stats(self):
        cache = FeasibilityCache()
        assert cache.hit_rate == 0.0
        cache.classify(_line_spec())
        cache.classify(_line_spec())
        assert cache.hit_rate == pytest.approx(0.5)
        cache.clear()
        assert (cache.hits, cache.misses, cache.size) == (0, 0, 0)

    def test_shared_cache_is_process_global(self):
        before = shared_cache().size
        shared_cache().classify(_line_spec(out_rate=3))
        shared_cache().classify(_line_spec(out_rate=3))
        assert shared_cache().size >= before
        assert shared_cache() is shared_cache()


class TestThreadSafety:
    def test_hammer_from_many_threads_stays_consistent(self):
        """8 threads × shared cache over a handful of distinct specs: every
        lookup returns the right report, counters reconcile exactly, and
        the bounded table never exceeds its limit."""
        import threading

        specs = [_line_spec(in_rate=i, out_rate=j)
                 for i in (1, 2) for j in (1, 2, 3)]
        expected = {canonical_spec_key(s): _report_fields(
            classify_network(s.extended())) for s in specs}
        cache = FeasibilityCache(max_entries=4)  # force eviction churn
        errors = []

        def worker(tid):
            rng = np.random.default_rng(tid)
            try:
                for _ in range(150):
                    spec = specs[int(rng.integers(len(specs)))]
                    report = cache.classify(spec)
                    assert (_report_fields(report)
                            == expected[canonical_spec_key(spec)])
            except Exception as exc:  # noqa: BLE001 - re-raised on main thread
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # every lookup is accounted for: hits + misses == total calls, and
        # the lock keeps the counters from losing increments
        assert cache.hits + cache.misses == 8 * 150
        assert cache.size <= 4

    def test_concurrent_clear_does_not_corrupt(self):
        import threading

        cache = FeasibilityCache()
        stop = threading.Event()

        def clearer():
            while not stop.is_set():
                cache.clear()

        t = threading.Thread(target=clearer)
        t.start()
        try:
            for _ in range(100):
                report = cache.classify(_line_spec())
                assert report.network_class is not None
        finally:
            stop.set()
            t.join()
