"""The cold max-flow engines the tests check the one production engine against.

The library solves every flow question with Dinic (:func:`repro.flow.max_flow`
cold, :class:`~repro.flow.ParametricMaxFlow` warm).  Edmonds–Karp and the two
push-relabel variants (``tests/flow/edmonds_karp.py``,
``tests/flow/push_relabel.py``) share no augmentation code with it, so they
stay here as independent cold oracles under their old engine names:

* :data:`ENGINES` maps each name to a ``FlowProblem -> FlowResult`` solver;
* :func:`cold_engine` runs the library's cold paths
  (:func:`~repro.flow.feasibility.classify_network_cold`,
  :func:`~repro.flow.feasibility.max_unsaturation_margin_cold`,
  ``feasible_flow``, ``f_star``) on one of them.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable
from unittest import mock

from repro.flow.maxflow import max_flow
from repro.flow.residual import FlowProblem, FlowResult
from tests.flow.edmonds_karp import edmonds_karp
from tests.flow.push_relabel import push_relabel

__all__ = ["ENGINES", "cold_engine"]

ENGINES: dict[str, Callable[[FlowProblem], FlowResult]] = {
    "dinic": max_flow,
    "edmonds_karp": edmonds_karp,
    "push_relabel": lambda p: push_relabel(p, "highest"),
    "push_relabel_fifo": lambda p: push_relabel(p, "fifo"),
}


@contextmanager
def cold_engine(name: str):
    """Solve the cold paths of :mod:`repro.flow.feasibility` with engine ``name``."""
    with mock.patch("repro.flow.feasibility.max_flow", ENGINES[name]):
        yield
