"""Shared experiment scaffolding.

Every experiment is a function ``run(fast: bool = True, seed: int = 0) ->
ExperimentResult`` registered under a stable id.  ``fast=True`` shrinks
horizons so the full suite finishes in seconds (the benchmark harness and
integration tests use it); ``fast=False`` is the long, report-quality
configuration used to fill EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.analysis.report import format_series, format_table
from repro.errors import ExperimentError

__all__ = ["ExperimentResult", "REGISTRY", "register", "get_experiment", "render", "main_for"]


@dataclass(frozen=True)
class ExperimentResult:
    """Outcome of one experiment.

    ``passed`` records whether the paper's qualitative claim held in this
    run — the "shape" check, not a numeric match (the paper reports no
    numbers).
    """

    exp_id: str
    title: str
    claim: str
    rows: tuple[Mapping[str, Any], ...]
    series: Mapping[str, Sequence[float]] = field(default_factory=dict)
    conclusion: str = ""
    passed: bool = True


RunFn = Callable[..., ExperimentResult]
REGISTRY: dict[str, tuple[str, RunFn]] = {}


def register(exp_id: str, title: str) -> Callable[[RunFn], RunFn]:
    """Decorator registering an experiment ``run`` function."""

    def deco(fn: RunFn) -> RunFn:
        if exp_id in REGISTRY:
            # running a module as __main__ re-executes its decorator when
            # repro.exp.registry already registered it; the identical title
            # identifies that benign case — anything else is a clash
            if REGISTRY[exp_id][0] != title:
                raise ExperimentError(f"duplicate experiment id {exp_id!r}")
        REGISTRY[exp_id] = (title, fn)
        return fn

    return deco


def get_experiment(exp_id: str) -> RunFn:
    try:
        return REGISTRY[exp_id][1]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {exp_id!r}; available: {sorted(REGISTRY)}"
        ) from None


def render(result: ExperimentResult) -> str:
    """Human-readable report of one experiment."""
    lines = [
        f"== {result.exp_id}: {result.title} ==",
        f"claim: {result.claim}",
        "",
        format_table(list(result.rows)),
    ]
    for name, values in result.series.items():
        lines.append(format_series(name, list(values)))
    if result.conclusion:
        lines.append("")
        lines.append(f"conclusion: {result.conclusion}")
    lines.append(f"claim held: {'YES' if result.passed else 'NO'}")
    return "\n".join(lines)


def main_for(run: RunFn) -> None:
    """``python -m repro.exp.<module>`` entry point body."""
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--full", action="store_true", help="long report-quality run")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    print(render(run(fast=not args.full, seed=args.seed)))
