"""Min-cut extraction and Section V cut taxonomy tests."""

import pytest

from repro.errors import FlowError
from repro.flow import CutKind, classify_cut, is_unique_min_cut, max_flow, min_cut
from repro.flow.mincut import all_min_cut_kinds
from repro.flow.residual import FlowProblem
from repro.graphs import build_extended_graph
from repro.graphs import generators as gen


def problem(n, arcs, s, t):
    tails, heads, caps = zip(*arcs) if arcs else ((), (), ())
    return FlowProblem(n=n, tails=list(tails), heads=list(heads),
                       capacities=list(caps), source=s, sink=t)


class TestMinCutExtraction:
    def test_bottleneck_cut(self):
        p = problem(3, [(0, 1, 5), (1, 2, 3)], 0, 2)
        r = max_flow(p)
        cut = min_cut(r)
        assert cut.capacity == 3
        assert cut.source_side == [0, 1]
        assert cut.sink_side == [2]
        assert cut.arcs == (1,)

    def test_cut_at_source(self):
        p = problem(3, [(0, 1, 2), (1, 2, 5)], 0, 2)
        cut = min_cut(max_flow(p))
        assert cut.source_side == [0]

    def test_min_vs_max_side(self):
        # two equal bottlenecks in series -> min cut not unique
        p = problem(4, [(0, 1, 1), (1, 2, 5), (2, 3, 1)], 0, 3)
        r = max_flow(p)
        small = min_cut(r, side="min")
        big = min_cut(r, side="max")
        assert small.source_side == [0]
        assert big.source_side == [0, 1, 2]
        assert small.capacity == big.capacity == 1
        assert not is_unique_min_cut(r)

    def test_unique_cut_detected(self):
        p = problem(3, [(0, 1, 1), (0, 1, 1), (1, 2, 1)], 0, 2)
        r = max_flow(p)
        assert is_unique_min_cut(r)

    def test_bad_side_argument(self):
        p = problem(2, [(0, 1, 1)], 0, 1)
        with pytest.raises(FlowError):
            min_cut(max_flow(p), side="middle")


class TestCutTaxonomy:
    """The three Section V cases on extended graphs."""

    def _ext_problem(self, graph, in_rates, out_rates):
        ext = build_extended_graph(graph, in_rates, out_rates)
        return ext, FlowProblem.from_extended(ext)

    def test_trivial_source_cut_unsaturated_net(self):
        # path with generous out-rate: only binding cut is at s*
        g = gen.path(3)
        ext, p = self._ext_problem(g, {0: 1}, {2: 3})
        r = max_flow(p)
        cut = min_cut(r)
        assert classify_cut(cut, p.source, p.sink) is CutKind.TRIVIAL_SOURCE
        assert cut.source_side == [p.source]

    def test_virtual_sink_cut_saturated_net(self):
        # out(d) == in(s): the sink cut is also minimum
        g = gen.path(3)
        ext, p = self._ext_problem(g, {0: 1}, {2: 1})
        kinds = all_min_cut_kinds(p)
        assert CutKind.TRIVIAL_SOURCE in kinds
        assert CutKind.VIRTUAL_SINK in kinds

    def test_interior_cut(self):
        # bottleneck strictly inside the graph: 3 sources into 1-wide bridge
        g, entries, exits = gen.bottleneck_gadget(3, 3, 1)
        ext, p = self._ext_problem(g, {v: 1 for v in entries}, {v: 1 for v in exits})
        r = max_flow(p)
        assert r.value == 1  # bridge limits everything
        cut = min_cut(r, side="max")
        kind = classify_cut(cut, p.source, p.sink)
        assert kind is CutKind.INTERIOR

    def test_classify_rejects_inconsistent_cut(self):
        p = problem(3, [(0, 1, 1), (1, 2, 1)], 0, 2)
        r = max_flow(p)
        cut = min_cut(r)
        # tamper: flip the mask so the source is excluded
        bad = type(cut)(side=~cut.side, arcs=cut.arcs, capacity=cut.capacity)
        with pytest.raises(FlowError):
            classify_cut(bad, p.source, p.sink)
