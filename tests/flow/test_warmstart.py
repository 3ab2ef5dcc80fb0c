"""Differential correctness of the parametric warm-start engine.

The load-bearing property: after any schedule of capacity changes — up,
down, or to 0 — the warm engine must be *indistinguishable* from a cold
solve of the current problem — same exact-Fraction flow value, same
canonical min cut, same cut kind, same uniqueness verdict.  The engine
is Dinic on the residual; the cold solve it is checked against is each
oracle engine of ``tests/flow/engines.py`` in turn.  Hypothesis drives
random problems through random schedules and compares at every step, not
just the last.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.errors import FlowError
from repro.flow import (
    CutKind,
    FlowProblem,
    NetworkClass,
    ParametricMaxFlow,
    classify_cut,
    classify_network,
    is_unique_min_cut,
    min_cut,
    source_arc_updates,
)
from repro.flow.dinic import augment_residual
from repro.flow.feasibility import classify_network_cold
from repro.flow.maxflow import max_flow
from repro.flow.parametric import _Ladder
from repro.flow.residual import Residual
from repro.graphs import build_extended_graph
from repro.graphs import generators as gen
from repro.obs.metrics import get_registry
from tests.flow.engines import ENGINES, cold_engine


def _cap(rng):
    if rng.random() < 0.3:
        return Fraction(0)
    return Fraction(int(rng.integers(0, 9)), int(rng.integers(1, 4)))


@st.composite
def problems_with_schedules(draw):
    """A Fraction-capacity FlowProblem plus a mixed capacity schedule.

    Besides random arcs, every problem has an arc out of the source, one
    into the sink, one into the source, one out of the sink, a self-loop
    and a parallel twin of the source arc.  Every step sets one of those
    and a few random arcs to any capacity >= 0: up, down, or to 0.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = draw(st.integers(3, 9))
    s, t = 0, n - 1
    k = draw(st.integers(0, 10))
    tails = [int(rng.integers(0, n)) for _ in range(k)]
    heads = [int(rng.integers(0, n)) for _ in range(k)]
    w = int(rng.integers(0, n))
    special = list(range(k, k + 6))
    # s -> x, x -> t, y -> s, t -> z, w -> w, and a twin of s -> x
    x, y, z = (int(v) for v in rng.integers(1, n, size=3))
    tails += [s, x, y, t, w, s]
    heads += [x, t, s, z, w, x]
    m = len(tails)
    problem = FlowProblem(n=n, tails=tails, heads=heads,
                          capacities=[_cap(rng) for _ in range(m)],
                          source=s, sink=t)
    steps = []
    for _ in range(draw(st.integers(1, 5))):
        arcs = {special[int(rng.integers(0, 6))]}
        arcs.update(int(j) for j in rng.choice(m, size=int(rng.integers(0, 4)),
                                               replace=False))
        steps.append({j: _cap(rng) for j in sorted(arcs)})
    return problem, steps


def _with_caps(problem, caps):
    return FlowProblem(n=problem.n, tails=problem.tails, heads=problem.heads,
                       capacities=list(caps), source=problem.source,
                       sink=problem.sink)


class TestDifferentialSchedules:
    @pytest.mark.parametrize("algorithm", sorted(ENGINES))
    @given(case=problems_with_schedules())
    @settings(max_examples=30, deadline=None)
    def test_every_step_matches_cold_solve(self, algorithm, case):
        problem, steps = case
        engine = ParametricMaxFlow(problem)
        caps = list(problem.capacities)
        for updates in steps:
            caps = [updates.get(j, c) for j, c in enumerate(caps)]
            engine.set_arc_capacities(updates)
            cold = ENGINES[algorithm](_with_caps(problem, caps))
            warm = engine.result
            # exact Fraction equality, no tolerance
            assert warm.value == cold.value == engine.value
            assert list(warm.problem.capacities) == caps
            warm.check()  # capacity + conservation on the warm residual
            # the canonical (source-side-reachability) min cut is an
            # invariant of the problem, not of which max flow was found
            wc, cc = min_cut(warm), min_cut(cold)
            assert wc.capacity == cc.capacity
            assert list(wc.arcs) == list(cc.arcs)
            assert list(np.nonzero(wc.side)[0]) == list(np.nonzero(cc.side)[0])
            assert (classify_cut(wc, warm.problem.source, warm.problem.sink)
                    == classify_cut(cc, cold.problem.source, cold.problem.sink))
            assert is_unique_min_cut(warm) == is_unique_min_cut(cold)


@st.composite
def random_networks(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    n = draw(st.integers(4, 10))
    p = draw(st.floats(0.25, 0.7))
    g = gen.random_gnp(n, p, seed=seed, ensure_connected=True)
    rng = np.random.default_rng(seed)
    nodes = rng.permutation(n)
    k = draw(st.integers(1, 3))
    in_rates = {int(nodes[i]): Fraction(int(rng.integers(1, 5)),
                                        int(rng.integers(1, 3)))
                for i in range(k)}
    out_rates = {int(nodes[-(j + 1)]): Fraction(int(rng.integers(1, 5)))
                 for j in range(draw(st.integers(1, 3)))}
    return build_extended_graph(g, in_rates, out_rates)


class TestClassifyEquivalence:
    @pytest.mark.parametrize("algorithm", sorted(ENGINES))
    @given(ext=random_networks())
    @settings(max_examples=15, deadline=None)
    def test_warm_classify_equals_cold_classify(self, algorithm, ext):
        warm = classify_network(ext)
        with cold_engine(algorithm):
            cold = classify_network_cold(ext)
        assert warm.network_class == cold.network_class
        assert warm.arrival_rate == cold.arrival_rate
        assert warm.max_flow_value == cold.max_flow_value
        assert warm.f_star == cold.f_star
        assert warm.certified_epsilon == cold.certified_epsilon
        assert warm.cut_kind == cold.cut_kind
        assert warm.unique_min_cut == cold.unique_min_cut
        assert list(warm.min_cut.arcs) == list(cold.min_cut.arcs)
        assert warm.min_cut.capacity == cold.min_cut.capacity

    @pytest.mark.parametrize("algorithm", sorted(ENGINES))
    def test_no_injections_equals_cold(self, algorithm):
        g = gen.random_gnp(7, 0.5, seed=5, ensure_connected=True)
        ext = build_extended_graph(g, {}, {6: Fraction(3, 2)})
        # no parametric arcs: every read of the ladder is its λ = 0 base
        ladder = _Ladder(ext, ext.in_rates)
        base = ladder.rung(Fraction(0))
        assert ladder.rung(Fraction(1)) is base
        assert ladder.rung(ladder.lam_end) is base
        assert ladder.probes == 0
        warm = classify_network(ext)
        with cold_engine(algorithm):
            cold = classify_network_cold(ext)
        assert warm.network_class is cold.network_class is NetworkClass.UNSATURATED
        assert warm.certified_epsilon == cold.certified_epsilon == 1
        assert (warm.arrival_rate, warm.max_flow_value, warm.f_star) == (0, 0, 0)
        assert (cold.arrival_rate, cold.max_flow_value, cold.f_star) == (0, 0, 0)
        assert warm.cut_kind is cold.cut_kind is CutKind.TRIVIAL_SOURCE
        assert warm.unique_min_cut == cold.unique_min_cut
        assert warm.min_cut.side.tolist() == cold.min_cut.side.tolist()
        assert list(warm.min_cut.arcs) == list(cold.min_cut.arcs)
        assert warm.min_cut.capacity == cold.min_cut.capacity


class TestScale:
    """``ParametricMaxFlow.scale(k)``: every capacity, residual and the value
    times ``k > 0``, with the flow still maximum and every cut kept."""

    @pytest.mark.parametrize("algorithm", sorted(ENGINES))
    @given(case=problems_with_schedules(), k=st.integers(1, 12))
    @settings(max_examples=15, deadline=None)
    def test_integer_scale_then_schedule_matches_cold(self, algorithm, case, k):
        problem, steps = case
        engine = ParametricMaxFlow(problem)
        # one warm step first, so the scale meets a repaired, re-augmented flow
        engine.set_arc_capacities(steps[0])
        value = engine.value
        side = min_cut(engine.result).side.tolist()
        engine.scale(k)
        assert engine.value == k * value
        engine.result.check()
        assert min_cut(engine.result).side.tolist() == side
        caps = list(engine.problem.capacities)
        for updates in steps[1:]:
            updates = {j: k * c for j, c in updates.items()}
            caps = [updates.get(j, c) for j, c in enumerate(caps)]
            engine.set_arc_capacities(updates)
            cold = ENGINES[algorithm](_with_caps(problem, caps))
            warm = engine.result
            assert warm.value == cold.value
            warm.check()
            wc, cc = min_cut(warm), min_cut(cold)
            assert list(wc.arcs) == list(cc.arcs)
            assert wc.side.tolist() == cc.side.tolist()
            assert is_unique_min_cut(warm) == is_unique_min_cut(cold)

    def _problem(self):
        # s=0 -> 1 -> t=3 carries min(6, 3), s -> 2 -> t carries min(4, 6)
        return FlowProblem(n=4, tails=(0, 0, 1, 2), heads=(1, 2, 3, 3),
                           capacities=(6, 4, 3, 6), source=0, sink=3)

    def test_unit_fraction_scale_leaves_an_exact_fraction_engine(self):
        engine = ParametricMaxFlow(self._problem())
        assert engine.value == 7
        engine.scale(Fraction(1, 6))
        assert engine.value == Fraction(7, 6)
        assert all(type(c) is Fraction for c in engine.problem.capacities)
        assert all(type(f) is Fraction for f in engine.result.flows)
        engine.result.check()
        # later steps stay exact: lowering 1 -> t below its flow of 1/2
        assert engine.set_arc_capacities({2: Fraction(1, 3)}) == 1
        engine.result.check()
        cold = max_flow(_with_caps(self._problem(),
                                   [1, Fraction(2, 3), Fraction(1, 3), 1]))
        assert cold.value == engine.value

    @pytest.mark.parametrize("k", [0, -2, Fraction(-1, 3)],
                             ids=["zero", "negative", "negative_fraction"])
    def test_non_positive_factor_rejected(self, k):
        engine = ParametricMaxFlow(self._problem())
        with pytest.raises(FlowError, match="positive"):
            engine.scale(k)
        assert engine.value == 7
        assert list(engine.problem.capacities) == [6, 4, 3, 6]
        engine.result.check()


class TestEngineBasics:
    def _problem(self):
        return FlowProblem(
            n=4, tails=(0, 0, 1, 2), heads=(1, 2, 3, 3),
            capacities=(Fraction(2), Fraction(2), Fraction(2), Fraction(2)),
            source=0, sink=3,
        )

    def test_arc_index_out_of_range(self):
        engine = ParametricMaxFlow(self._problem())
        with pytest.raises(FlowError, match="out of range"):
            engine.set_arc_capacities({9: Fraction(5)})

    def test_negative_capacity_rejected(self):
        engine = ParametricMaxFlow(self._problem())
        with pytest.raises(FlowError, match="negative capacity"):
            engine.set_arc_capacities({0: Fraction(5), 1: Fraction(-1)})
        # validation runs before any update, so the engine is untouched
        assert engine.value == Fraction(4)
        assert list(engine.problem.capacities) == [Fraction(2)] * 4
        engine.result.check()

    def test_noop_step_keeps_value(self):
        engine = ParametricMaxFlow(self._problem())
        before = engine.value
        assert engine.set_arc_capacities({0: Fraction(2)}) == before

    def test_lowering_reroutes_excess(self):
        # s=0 -> a=1 -> b=2 -> t=3 carries all 2 units; the detour
        # a -> c=4 -> b takes the unit cut from a -> b, value unchanged
        problem = FlowProblem(
            n=5, tails=(0, 1, 2, 1, 4), heads=(1, 2, 3, 4, 2),
            capacities=(2, 2, 2, 2, 2), source=0, sink=3,
        )
        engine = ParametricMaxFlow(problem)
        assert engine.result.flows == (2, 2, 2, 0, 0)
        assert engine.set_arc_capacities({1: 1}) == 2
        assert engine.result.flows == (2, 1, 2, 1, 1)
        engine.result.check()

    def test_lowering_cancels_excess_on_a_single_path(self):
        # one path s=0 -> a=1 -> b=2 -> t=3: nothing can reroute, so the
        # 2 units cut from a -> b are cancelled back to s and from t
        problem = FlowProblem(
            n=4, tails=(0, 1, 2), heads=(1, 2, 3),
            capacities=(3, 3, 3), source=0, sink=3,
        )
        engine = ParametricMaxFlow(problem)
        assert engine.set_arc_capacities({1: 1}) == 1
        assert engine.result.flows == (1, 1, 1)
        engine.result.check()
        # and back up: the raise re-augments to the full path again
        assert engine.set_arc_capacities({1: 3}) == 3

    def test_fork_isolates_state(self):
        engine = ParametricMaxFlow(self._problem())
        fork = engine.fork()
        # 0->1 and 1->3 raised to 5: that path carries 5, 0->2->3 still 2
        fork.set_arc_capacities({0: Fraction(5), 2: Fraction(5)})
        assert fork.value == Fraction(7)
        assert engine.value == Fraction(4)
        engine.result.check()
        fork.result.check()

    def test_lowering_on_a_fork_leaves_parent_unchanged(self):
        engine = ParametricMaxFlow(self._problem())
        flows = engine.result.flows
        fork = engine.fork()
        # cut 0->1 below its flow and close 2->3: the fork cancels both paths
        assert fork.set_arc_capacities({0: Fraction(1), 3: Fraction(0)}) == 1
        fork.result.check()
        assert engine.value == Fraction(4)
        assert engine.result.flows == flows
        assert list(engine.problem.capacities) == [Fraction(2)] * 4
        engine.result.check()

    def test_problem_property_tracks_capacities(self):
        engine = ParametricMaxFlow(self._problem())
        engine.set_arc_capacities({0: Fraction(7), 3: Fraction(1)})
        assert engine.problem.capacities[0] == Fraction(7)
        assert engine.problem.capacities[3] == Fraction(1)

    def test_augment_target_gain_is_a_hard_cap(self):
        # 0 -> 1 -> 2 with capacity 5; between interior endpoints and
        # capped at 2, exactly 2 units move
        problem = FlowProblem(n=4, tails=(0, 1, 2), heads=(1, 2, 3),
                              capacities=(5, 5, 5), source=0, sink=3)
        res = Residual(problem)
        gained, _, augmentations, pushes = augment_residual(
            res, source=0, sink=2, target_gain=2)
        assert (gained, augmentations, pushes) == (2, 1, 2)
        assert res.flows() == [2, 2, 0]

    def test_source_arc_updates_maps_nodes_to_arcs(self):
        g = gen.random_gnp(6, 0.5, seed=3, ensure_connected=True)
        ext = build_extended_graph(g, {0: 2, 1: 3}, {5: 4})
        updates = source_arc_updates(ext, {0: Fraction(9)})
        assert len(updates) == 1
        (j, cap), = updates.items()
        assert cap == Fraction(9)
        assert int(ext.tails[j]) == ext.s_star
        assert int(ext.heads[j]) == 0


class TestOneColdSolveGuard:
    """Lint-level guard: classify_network pays exactly one cold solve.

    The whole point of the ladder is that the λ = 1 read, the ε-probe and
    the f* read are parametric forks of the trivial λ = 0 base, not fresh
    solves — ``repro_flow_solves_total`` (only incremented by the cold
    entry points) must advance by exactly 1 per classify call, while the
    warm-step counter advances instead.  Both count under the one
    engine's ``algorithm`` label.
    """

    def _total(self, name):
        counter = get_registry().counter(name, "", ("algorithm",))
        return sum(inst.value for _labels, inst in counter._series())

    def _count(self, name, label):
        counter = get_registry().counter(name, "", ("algorithm",))
        return counter.labels(algorithm=label).value

    @pytest.mark.parametrize("label", ["dinic"])
    def test_classify_is_one_cold_solve(self, label):
        g = gen.random_gnp(10, 0.4, seed=11, ensure_connected=True)
        ext = build_extended_graph(g, {0: Fraction(3, 2), 1: Fraction(1)},
                                   {8: Fraction(2), 9: Fraction(2)})
        names = ("repro_flow_solves_total", "repro_flow_warm_solves_total")
        prev = obs.configure(metrics=True)
        try:
            for _call in range(3):
                totals = [self._total(name) for name in names]
                labelled = [self._count(name, label) for name in names]
                report = classify_network(ext)
                # λ = 1 is a warm fork of the λ = 0 base; feasible
                # networks then take the ε-probe and f* rungs, an
                # infeasible one goes straight to f*
                expected = [1, 3 if report.feasible else 2]
                assert [self._total(name) - before
                        for name, before in zip(names, totals)] == expected
                assert [self._count(name, label) - before
                        for name, before in zip(names, labelled)] == expected
        finally:
            obs.configure(**prev)

    def test_warm_counters_labelled_by_algorithm(self):
        g = gen.random_gnp(8, 0.5, seed=4, ensure_connected=True)
        ext = build_extended_graph(g, {0: 2}, {7: 3})
        prev = obs.configure(metrics=True)
        try:
            classify_network(ext)
            reg = get_registry()
            warm = reg.counter("repro_flow_warm_solves_total", "", ("algorithm",))
            assert warm.labels(algorithm="dinic").value >= 1
            arcs = reg.counter("repro_flow_warm_augment_arcs_total", "",
                               ("algorithm",))
            assert arcs.labels(algorithm="dinic").value >= 0
        finally:
            obs.configure(**prev)
