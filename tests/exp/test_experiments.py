"""Integration tests: every registered experiment runs and reproduces its
claim in fast mode.

These overlap with the benchmark harness on purpose — the benchmarks time
the experiments, these gate correctness in the plain test suite.  Each
experiment runs once: the claim and rendering tests share its result.
"""

import functools

import pytest

from repro.errors import ExperimentError
from repro.exp import REGISTRY, ExperimentResult, get_experiment, render

ALL_IDS = sorted(REGISTRY)


@functools.cache
def fast_result(exp_id: str) -> ExperimentResult:
    """The experiment's fast-mode run at seed 0, computed once per session."""
    return get_experiment(exp_id)(fast=True, seed=0)


class TestRegistry:
    def test_expected_inventory(self):
        assert ALL_IDS == [f"e{i:02d}" for i in range(1, 24)] + [
            "f01", "f02", "f03", "f04",
        ]

    def test_unknown_experiment(self):
        with pytest.raises(ExperimentError):
            get_experiment("e99")

    def test_duplicate_registration_rejected(self):
        from repro.exp.common import register

        with pytest.raises(ExperimentError):
            register("e01", "dup")(lambda fast=True, seed=0: None)


@pytest.mark.parametrize("exp_id", ALL_IDS)
class TestEveryExperiment:
    def test_runs_and_claim_holds(self, exp_id):
        result = fast_result(exp_id)
        assert isinstance(result, ExperimentResult)
        assert result.exp_id == exp_id
        assert result.rows, "experiment produced no table rows"
        assert result.passed, f"{exp_id}: paper claim did not reproduce"

    def test_renders(self, exp_id):
        result = fast_result(exp_id)
        text = render(result)
        assert result.title in text
        assert "claim held: YES" in text


class TestSeedsVary:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_e03_robust_to_seed(self, seed):
        assert get_experiment("e03")(fast=True, seed=seed).passed

    @pytest.mark.parametrize("seed", [1, 2])
    def test_e13_robust_to_seed(self, seed):
        assert get_experiment("e13")(fast=True, seed=seed).passed


class TestWorkloadCertification:
    def test_suites_classify_as_promised(self):
        from repro.exp import workloads
        from repro.flow import NetworkClass, classify_network

        for name, spec in workloads.unsaturated_suite():
            got = classify_network(spec.extended()).network_class
            assert got is NetworkClass.UNSATURATED, name
        for name, spec in workloads.saturated_suite():
            got = classify_network(spec.extended()).network_class
            assert got is NetworkClass.SATURATED, name
        for name, spec in workloads.infeasible_suite():
            got = classify_network(spec.extended()).network_class
            assert got is NetworkClass.INFEASIBLE, name

    def test_bottleneck_spec_crossover(self):
        from repro.exp.workloads import bottleneck_spec
        from repro.flow import classify_network

        for k in (1, 4, 5):
            rep = classify_network(bottleneck_spec(k).extended())
            assert rep.feasible == (k <= 4)

    def test_bottleneck_spec_validation(self):
        from repro.exp.workloads import bottleneck_spec

        with pytest.raises(ExperimentError):
            bottleneck_spec(0)

    def test_expect_class_catches_mismatch(self):
        from repro.exp.workloads import expect_class
        from repro.flow import NetworkClass
        from repro.graphs import generators as gen
        from repro.network import NetworkSpec

        spec = NetworkSpec.classical(gen.path(3), {0: 1}, {2: 1})
        with pytest.raises(ExperimentError):
            expect_class(spec, NetworkClass.UNSATURATED)
