"""The max-flow front end: one engine, Dinic's algorithm."""

from __future__ import annotations

from repro.flow.dinic import dinic
from repro.flow.residual import FlowProblem, FlowResult

__all__ = ["max_flow"]


def max_flow(problem: FlowProblem) -> FlowResult:
    """Solve ``problem`` from scratch with Dinic's algorithm.

    Every other flow question of the stack (the parametric ladder, the
    mobility timeline) starts from one such cold solve and continues warm
    on its residual (:class:`~repro.flow.warmstart.ParametricMaxFlow`).
    """
    return dinic(problem)
