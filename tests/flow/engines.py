"""The cold max-flow engines the tests check the one production engine against.

The library solves every flow question with Dinic (:func:`repro.flow.max_flow`
cold, :class:`~repro.flow.ParametricMaxFlow` warm).  Edmonds–Karp and the two
push-relabel variants (``tests/flow/edmonds_karp.py``,
``tests/flow/push_relabel.py``) share no augmentation code with it, so they
stay here as independent cold oracles under their old engine names:

* :data:`ENGINES` maps each name to a ``FlowProblem -> FlowResult`` solver;
* :func:`cold_engine` runs the library's cold paths
  (:func:`~repro.flow.feasibility.classify_network_cold`,
  ``feasible_flow``) and the bisection oracle
  :func:`max_unsaturation_margin_cold` on one of them;
* :func:`max_unsaturation_margin_cold` bisects the exact margin
  ``classify_region(ext).margin`` with cold solves.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from typing import Callable
from unittest import mock

from repro.errors import FlowError
from repro.flow import feasibility
from repro.flow.maxflow import max_flow
from repro.flow.residual import FlowProblem, FlowResult
from tests.flow.edmonds_karp import edmonds_karp
from tests.flow.push_relabel import push_relabel

__all__ = ["ENGINES", "cold_engine", "max_unsaturation_margin_cold"]

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


def max_unsaturation_margin_cold(ext, *, tol: Fraction = Fraction(1, 1024)) -> Fraction:
    """Largest ε (to within ``tol``) by bisection, every probe a cold solve.

    The differential oracle and benchmark baseline of the exact margin
    ``classify_region(ext).margin``: binary search on exact rationals, so
    the returned value is a certified *lower* bound of the exact margin
    and ``returned + tol`` an upper bound.  The exponential bracket gives
    up at ``2**20`` (essentially unbounded slack) and returns its last
    feasible ε.  Returns 0 for saturated/infeasible networks.  Each probe
    solves through ``repro.flow.feasibility.max_flow``, the name
    :func:`cold_engine` patches.
    """
    arrival = sum((Fraction(r) for r in ext.in_rates.values()), start=Fraction(0))
    if arrival <= 0:
        raise FlowError("margin undefined for a network with no injections")

    def feasible_at(eps: Fraction) -> bool:
        caps = {v: (1 + eps) * Fraction(r) for v, r in ext.in_rates.items()}
        res = feasibility.max_flow(
            feasibility._exact_problem(ext, source_cap_override=caps))
        return res.value == (1 + eps) * arrival

    if not feasible_at(Fraction(0)):
        return Fraction(0)
    lo = Fraction(0)
    # exponential search for an infeasible upper bracket
    hi = Fraction(1)
    while feasible_at(hi):
        lo = hi
        hi *= 2
        if hi > 2**20:  # pathological: essentially unbounded slack
            return lo
    while hi - lo > tol:
        mid = Fraction(lo + hi, 2)
        if feasible_at(mid):
            lo = mid
        else:
            hi = mid
    return lo
