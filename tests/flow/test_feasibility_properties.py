"""Property-based feasibility tests: the three classifiers (rational
certificate, binary search, LP) must agree on random instances."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow import NetworkClass, classify_network, classify_region
from repro.graphs import build_extended_graph
from repro.graphs import generators as gen
from tests.flow.lp_oracle import lp_unsaturation_margin


@st.composite
def random_instances(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    n = draw(st.integers(4, 10))
    p = draw(st.floats(0.3, 0.8))
    g = gen.random_gnp(n, p, seed=seed, ensure_connected=True)
    rng = np.random.default_rng(seed)
    nodes = rng.permutation(n)
    in_rates = {int(nodes[0]): int(rng.integers(1, 3))}
    if draw(st.booleans()):
        in_rates[int(nodes[1])] = 1
    out_rates = {int(nodes[-1]): int(rng.integers(1, 4))}
    return build_extended_graph(g, in_rates, out_rates)


class TestClassifierAgreement:
    @given(random_instances())
    @settings(max_examples=30, deadline=None)
    def test_classification_vs_margin(self, ext):
        rep = classify_network(ext)
        margin = classify_region(ext).margin
        if rep.network_class is NetworkClass.UNSATURATED:
            assert margin > 0
            assert rep.certified_epsilon is not None
            assert rep.certified_epsilon <= margin
        elif rep.network_class is NetworkClass.SATURATED:
            assert margin == 0
            assert rep.certified_epsilon is None
        else:
            assert rep.max_flow_value < rep.arrival_rate

    @given(random_instances())
    @settings(max_examples=25, deadline=None)
    def test_margin_vs_lp(self, ext):
        rep = classify_network(ext)
        if not rep.feasible:
            return
        margin = float(classify_region(ext).margin)
        lp = lp_unsaturation_margin(ext)
        assert lp == pytest.approx(margin, abs=2 / 1024)

    @given(random_instances())
    @settings(max_examples=30, deadline=None)
    def test_invariants(self, ext):
        rep = classify_network(ext)
        # f* relaxes source capacities, so it can only be >= the max flow
        assert rep.f_star >= rep.max_flow_value
        # the max flow can never exceed the injected rate
        assert rep.max_flow_value <= rep.arrival_rate
        # feasible <=> the max flow saturates the arrival rate
        assert rep.feasible == (rep.max_flow_value == rep.arrival_rate)
        # cut duality: the reported min cut carries the max-flow value
        assert rep.min_cut.capacity == rep.max_flow_value
