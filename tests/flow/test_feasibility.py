"""Definitions 3–4 classification tests."""

from fractions import Fraction

import pytest

from repro.errors import FlowError
from repro.flow import NetworkClass, classify_network, classify_region
from repro.flow.feasibility import certification_epsilon
from repro.graphs import MultiGraph, build_extended_graph
from repro.graphs import generators as gen
from repro.network import NetworkSpec


def ext_of(graph, in_rates, out_rates):
    return build_extended_graph(graph, in_rates, out_rates)


class TestClassification:
    def test_unit_path_is_saturated(self):
        # in = 1 on a degree-1 source over unit links: feasible, but the
        # source's single edge leaves no slack for (1+eps) scaling
        rep = classify_network(ext_of(gen.path(4), {0: 1}, {3: 2}))
        assert rep.network_class is NetworkClass.SATURATED
        assert rep.feasible and not rep.unsaturated
        assert rep.arrival_rate == 1
        assert rep.max_flow_value == 1

    def test_unsaturated_parallel_paths(self):
        # two disjoint unit paths but in = 1: strict slack -> unsaturated
        g, s, d = gen.parallel_paths(2, 3)
        rep = classify_network(ext_of(g, {s: 1}, {d: 2}))
        assert rep.network_class is NetworkClass.UNSATURATED
        assert rep.feasible and rep.unsaturated
        assert rep.certified_epsilon > 0

    def test_saturated_path(self):
        # out == in: feasible but no slack
        rep = classify_network(ext_of(gen.path(4), {0: 1}, {3: 1}))
        assert rep.network_class is NetworkClass.SATURATED
        assert rep.feasible and not rep.unsaturated
        assert rep.certified_epsilon is None

    def test_infeasible_overloaded_source(self):
        # in = 3 but the source has degree 1: only 1 packet/step can leave
        rep = classify_network(ext_of(gen.path(4), {0: 3}, {3: 5}))
        assert rep.network_class is NetworkClass.INFEASIBLE
        assert not rep.feasible
        assert rep.max_flow_value == 1

    def test_infeasible_bottleneck(self):
        g, entries, exits = gen.bottleneck_gadget(3, 3, 1)
        rep = classify_network(ext_of(g, {v: 1 for v in entries}, {v: 1 for v in exits}))
        assert rep.network_class is NetworkClass.INFEASIBLE
        assert rep.max_flow_value == 1
        assert rep.arrival_rate == 3

    def test_unsaturated_bottleneck_with_slack(self):
        # sources with doubled entry links and a wide bridge -> slack everywhere
        g, entries, exits = gen.bottleneck_gadget(2, 4, 4)
        left_hub = len(entries)
        for v in entries:
            g.add_edge(v, left_hub)  # second parallel entry link
        rep = classify_network(ext_of(g, {v: 1 for v in entries}, {v: 1 for v in exits}))
        assert rep.network_class is NetworkClass.UNSATURATED

    def test_f_star_ignores_source_caps(self):
        g, s, d = gen.parallel_paths(3, 2)
        # in(s) = 1 but three disjoint paths exist: f* = 3
        ext = ext_of(g, {s: 1}, {d: 3})
        assert classify_region(ext).f_star == 3
        rep = classify_network(ext)
        assert rep.f_star == 3
        assert rep.max_flow_value == 1

    def test_multigraph_capacity_counts(self):
        g = MultiGraph(2)
        g.add_edge(0, 1)
        g.add_edge(0, 1)
        rep = classify_network(ext_of(g, {0: 2}, {1: 2}))
        assert rep.feasible  # two parallel unit links carry 2/step

    def test_saturated_at_virtual_sink(self):
        # feasible with exactly-matching out rate: the virtual sink cut binds
        from repro.flow import CutKind
        from repro.flow.mincut import all_min_cut_kinds
        from repro.flow.residual import FlowProblem

        ext = ext_of(gen.path(3), {0: 1}, {2: 1})
        kinds = all_min_cut_kinds(FlowProblem.from_extended(ext))
        assert CutKind.VIRTUAL_SINK in kinds


class TestEpsilonMachinery:
    def test_certification_epsilon_positive_and_small(self):
        ext = ext_of(gen.path(4), {0: 1}, {3: 2})
        eps = certification_epsilon(ext)
        assert 0 < eps < 1

    def test_margin_zero_for_saturated(self):
        ext = ext_of(gen.path(4), {0: 1}, {3: 1})
        assert classify_region(ext).margin == 0

    def test_margin_zero_on_unit_path(self):
        # degree-1 source on unit links: no (1+eps) scaling is feasible
        ext = ext_of(gen.path(4), {0: 1}, {3: 2})
        assert classify_region(ext).margin == 0

    def test_margin_wide_network(self):
        g, s, d = gen.parallel_paths(2, 2)
        ext = ext_of(g, {s: 1}, {d: 2})
        m = classify_region(ext).margin
        # two disjoint unit paths, in = 1 -> can scale up to 2: margin ~ 1
        assert m >= Fraction(63, 64)

    def test_margin_requires_injections(self):
        ext = ext_of(gen.path(3), {}, {2: 1})
        with pytest.raises(FlowError):
            classify_region(ext)

    def test_consistency_classifier_vs_margin(self):
        cases = [
            (gen.path(4), {0: 1}, {3: 2}),
            (gen.path(4), {0: 1}, {3: 1}),
            (gen.cycle(5), {0: 2}, {2: 2}),
            (gen.cycle(5), {0: 2}, {2: 3}),
        ]
        for g, ins, outs in cases:
            ext = ext_of(g, ins, outs)
            rep = classify_network(ext)
            m = classify_region(ext).margin
            if rep.network_class is NetworkClass.UNSATURATED:
                assert m > 0
            elif rep.network_class is NetworkClass.SATURATED:
                assert m == 0


class TestSpecIntegration:
    def test_spec_extended_roundtrip(self):
        g, sources, sinks = gen.paper_figure_graph()
        spec = NetworkSpec.classical(g, {s: 1 for s in sources}, {d: 2 for d in sinks})
        rep = classify_network(spec.extended())
        assert rep.feasible
        assert rep.arrival_rate == spec.arrival_rate

    def test_unsaturated_cycle_two_sinks(self):
        g = gen.cycle(6)
        spec = NetworkSpec.classical(g, {0: 1}, {3: 2})
        rep = classify_network(spec.extended())
        # cycle gives 2 disjoint unit paths from 0 to 3, in = 1 -> slack
        assert rep.network_class is NetworkClass.UNSATURATED
