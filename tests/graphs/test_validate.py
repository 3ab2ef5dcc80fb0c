"""Graph-audit and reachability-report tests."""

import pytest

from repro.errors import GraphError
from repro.graphs import MultiGraph
from repro.graphs import generators as gen
from repro.graphs.validate import audit_graph, reachability_report
from repro.network import NetworkSpec


class TestAuditGraph:
    @pytest.mark.parametrize("builder", [
        lambda: gen.path(5),
        lambda: gen.grid(3, 4),
        lambda: gen.random_multigraph(6, 20, seed=0),
        lambda: gen.paper_figure_graph()[0],
        lambda: MultiGraph(3),
    ])
    def test_healthy_graphs_pass(self, builder):
        audit_graph(builder())

    def test_passes_after_mutations(self):
        g = gen.cycle(6)
        g.remove_edge(2)
        g.restore_edge(2)
        g.remove_edge(0)
        g.add_edge(0, 3)
        audit_graph(g)

    def test_detects_corrupted_edge_table(self):
        g = gen.path(3)
        g._eu[0] = 7  # corrupt an endpoint behind the API's back
        g._csr_cache = None
        with pytest.raises(GraphError):
            audit_graph(g)

    def test_detects_stale_adjacency(self):
        g = gen.path(3)
        g.to_csr()              # build the cache
        g._alive[0] = False     # kill an edge without invalidating
        g._m_alive -= 1
        with pytest.raises(GraphError):
            audit_graph(g)


class TestReachabilityReport:
    def test_connected_workload(self):
        g, sources, sinks = gen.paper_figure_graph()
        spec = NetworkSpec.classical(g, {s: 1 for s in sources}, {d: 1 for d in sinks})
        rep = reachability_report(spec)
        assert rep.workload_sound
        assert rep.fully_connected
        for s in sources:
            assert rep.reach[s] == frozenset(sinks)

    def test_stranded_source(self):
        g = MultiGraph(4)
        g.add_edge(0, 1)  # node 2 (a source) is isolated from sink 1
        g.add_edge(2, 3)
        spec = NetworkSpec.classical(g, {0: 1, 2: 1}, {1: 1})
        rep = reachability_report(spec)
        assert rep.stranded_sources == (2,)
        assert not rep.workload_sound

    def test_stranded_sink(self):
        g = MultiGraph(4)
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        spec = NetworkSpec.classical(g, {0: 1}, {1: 1, 3: 1})
        rep = reachability_report(spec)
        assert rep.stranded_sinks == (3,)
        assert not rep.workload_sound

    def test_partial_reach_not_fully_connected(self):
        # two disjoint source-sink pairs: sound but not fully connected
        g = MultiGraph(4)
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        spec = NetworkSpec.classical(g, {0: 1, 2: 1}, {1: 1, 3: 1})
        rep = reachability_report(spec)
        assert rep.workload_sound
        assert not rep.fully_connected

    def test_no_terminals(self):
        spec = NetworkSpec.classical(gen.path(3), {}, {})
        rep = reachability_report(spec)
        assert rep.workload_sound
        assert rep.reach == {}
