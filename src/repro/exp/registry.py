"""The experiment registry with every experiment in it.

Each experiment module registers its ``run`` callable in
:data:`~repro.exp.common.REGISTRY` when it is imported, and this module
imports all of them.  :mod:`repro.exp` resolves its exports here, so a
process that asks for the registry sees every experiment, while one that
imports a single module (``repro.exp.workloads``) loads only that module.
"""

from importlib import import_module

from repro.exp.common import REGISTRY, ExperimentResult, get_experiment, render

__all__ = ["REGISTRY", "ExperimentResult", "get_experiment", "render"]

_EXPERIMENTS = (
    "e01_property1_growth_bound",
    "e02_property2_decrease",
    "e03_stability_region",
    "e04_infeasible_divergence",
    "e05_conjecture1_domination",
    "e06_rgeneralized_stability",
    "e07_cut_decomposition",
    "e08_conjecture2_bursts",
    "e09_conjecture3_uniform",
    "e10_conjecture4_dynamic",
    "e11_conjecture5_interference",
    "e12_baseline_comparison",
    "e13_tiebreak_ablation",
    "e14_loss_ablation",
    "e15_warmup_scaling",
    "e16_engine_ablation",
    "e17_random_region_map",
    "e18_drain_rate",
    "e19_goldberg_tarjan_link",
    "e20_source_fairness",
    "e21_asynchrony",
    "e22_latency_load",
    "e23_mobility_region",
    "f01_model_figure",
    "f02_extended_figure",
    "f03_cut_figure",
    "f04_generalized_figure",
)

for _module in _EXPERIMENTS:
    import_module(f"{__package__}.{_module}")
