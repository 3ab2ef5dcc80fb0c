"""Experiment harness: one module per paper artifact.

Figures F1–F4 are programmatic reconstructions of the paper's model
figures; experiments E1–E14 empirically validate every theorem, lemma,
property, conjecture and inline remark.  Each module registers a ``run``
callable in :data:`REGISTRY`; run any of them as
``python -m repro.exp.e03_stability_region`` or through the CLI
(``python -m repro list`` / ``python -m repro run e03``).
"""

from repro._exports import lazy_exports

_EXPORTS = {
    ".registry": ("REGISTRY", "ExperimentResult", "get_experiment", "render"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
