"""Feasibility classification of S-D-networks (Definitions 3 and 4).

* **Feasible** (Def. 3): there is an ``s*``-``d*`` flow in ``G*`` with
  ``Φ(s*, s) = in(s)`` for every source — equivalently, the max flow
  saturates every virtual source arc, i.e. equals the arrival rate
  ``Σ in(s)``.
* **Unsaturated** (Def. 4): still feasible when every source capacity is
  scaled to ``(1 + ε) in(s)`` for some ``ε > 0``.  By convexity of the
  feasible-ε set it suffices to test one sufficiently small rational ε
  (see :func:`certification_epsilon`), which we do with exact
  :class:`fractions.Fraction` arithmetic — no floating-point doubt.
* **f*** : the max-flow value once the virtual source arcs get infinite
  capacity — the divergence threshold of Theorem 1's converse.

Everything here consumes an :class:`~repro.graphs.extended.ExtendedGraph`
(built by :func:`repro.graphs.extended.build_extended_graph`) or a
:class:`~repro.network.spec.NetworkSpec` via its ``extended()`` helper.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Optional

import numpy as np

from repro.errors import FlowError
from repro.flow.maxflow import max_flow
from repro.flow.mincut import CutKind, MinCut, classify_cut, is_unique_min_cut, min_cut
from repro.flow.parametric import BreakpointEnvelope, _Ladder, breakpoint_envelope
from repro.flow.residual import FlowProblem, FlowResult
from repro.numeric import common_denominator
from repro.obs.spans import span

__all__ = [
    "NetworkClass",
    "FeasibilityReport",
    "RegionReport",
    "classify_network",
    "classify_network_cold",
    "classify_region",
    "f_star",
    "feasible_flow",
    "certification_epsilon",
    "max_unsaturation_margin",
    "max_unsaturation_margin_cold",
]


class NetworkClass(Enum):
    """Stability-region classification of an S-D-network."""

    INFEASIBLE = "infeasible"    # arrival rate exceeds what any method can route
    SATURATED = "saturated"      # feasible, but with zero slack (ε = 0 only)
    UNSATURATED = "unsaturated"  # feasible with strictly positive slack


@dataclass(frozen=True)
class FeasibilityReport:
    """Everything the experiments need to know about a network's flow regime."""

    network_class: NetworkClass
    arrival_rate: object             # Σ in(v), exact
    max_flow_value: object           # max s*-d* flow with capacities in(v)
    f_star: object                   # max s*-d* flow with infinite source caps
    certified_epsilon: Optional[Fraction]  # the ε > 0 used to certify 'unsaturated'
    min_cut: MinCut
    cut_kind: CutKind
    unique_min_cut: bool

    @property
    def feasible(self) -> bool:
        return self.network_class is not NetworkClass.INFEASIBLE

    @property
    def unsaturated(self) -> bool:
        return self.network_class is NetworkClass.UNSATURATED


def _exact_problem(ext, *, source_cap_override=None) -> FlowProblem:
    """Build a FlowProblem with all capacities coerced to Fractions."""
    p = FlowProblem.from_extended(ext, source_cap_override=source_cap_override)
    return replace(p, capacities=[Fraction(c) for c in p.capacities])


def feasible_flow(ext) -> FlowResult:
    """Max ``s*``-``d*`` flow of ``G*`` with the nominal source capacities."""
    return max_flow(_exact_problem(ext))


def f_star(ext) -> object:
    """Max flow with *infinite* capacity on the ``(s*, v)`` arcs.

    "Infinite" is implemented as total sink capacity + 1, which no s*-d*
    flow can exceed, so the relaxation is exact.
    """
    big = sum(ext.out_rates.values(), start=Fraction(0)) + 1
    override = {v: big for v in ext.in_rates}
    result = max_flow(_exact_problem(ext, source_cap_override=override))
    return result.value


def certification_epsilon(ext) -> Fraction:
    """An ε > 0 small enough that 'feasible at this ε' ⇔ 'unsaturated'.

    An a-priori bound that needs no flow solve, so the classify hot path
    can use it; the exact *maximal* certifying slack is
    :attr:`RegionReport.margin`.

    Max-flow/min-cut duality makes the scaled max-flow value
    ``v(ε) = min_C [(1 + ε)·inCross(C) + rest(C)]`` over cuts ``C``.  The
    network is unsaturated iff every cut with ``inCross(C) < Σin`` has
    strictly more capacity than the arrival rate, and the binding threshold
    is ``min_C (cap₀(C) − Σin) / (Σin − inCross(C))``.  With ``L`` the lcm
    of all capacity denominators, every cut capacity is a multiple of
    ``1/L``, so the threshold is at least ``1 / (L · (⌊Σin⌋ + 1))``; any ε
    strictly below that decides Definition 4.  Convexity (interpolate with
    a feasible ε = 0 flow) gives the converse: feasible at any ε' > 0
    implies feasible at every smaller positive ε.
    """
    arrival = sum((Fraction(r) for r in ext.in_rates.values()), start=Fraction(0))
    if arrival <= 0:
        return Fraction(1)  # no injections: vacuously unsaturated at any ε
    L = common_denominator(list(ext.capacities) + [arrival])
    return Fraction(1, 2 * L * (int(arrival) + 2))


def classify_network(ext) -> FeasibilityReport:
    """Full Definitions 3–4 classification of an extended graph ``G*``.

    Three reads of one parametric ladder along the nominal injection ray
    (:mod:`repro.flow.parametric`), after its one cold solve at λ = 0.
    ``λ = 1`` gives the max-flow value and the min-cut facts: they depend
    only on residual reachability, the same for every maximum flow, so
    they equal :func:`classify_network_cold`'s.  ``λ = 1 + ε``
    (:func:`certification_epsilon`) gives the Definition 4 verdict of a
    feasible network, and the plateau ``λ`` gives ``f*``.  The rungs run
    on scaled integers, or on exact ``Fraction`` past the magnitude guard
    (recorded in ``repro_core_fraction_fallbacks_total``).
    """
    with span("flow.classify", algorithm="dinic") as sp:
        arrival = sum((Fraction(r) for r in ext.in_rates.values()), start=Fraction(0))
        eps = certification_epsilon(ext)
        ladder = _Ladder(ext, ext.in_rates)
        nominal = ladder.rung(Fraction(1))
        result = nominal.engine.result
        cut = min_cut(result)
        kind = classify_cut(cut, result.problem)
        unique = is_unique_min_cut(result)
        # by duality the cut's capacity is v(1), which leaves the ladder exact
        cut = MinCut(side=cut.side, arcs=cut.arcs, capacity=nominal.value)

        if nominal.value < arrival:
            network_class = NetworkClass.INFEASIBLE
        elif ladder.rung(1 + eps).value == (1 + eps) * arrival:
            network_class = NetworkClass.UNSATURATED
        else:
            network_class = NetworkClass.SATURATED
        plateau = ladder.rung(ladder.lam_end)
        # every rung of this ladder is the base or one classify read
        sp.set("fastpath", not ladder.fell_back)

        return FeasibilityReport(
            network_class=network_class,
            arrival_rate=arrival,
            max_flow_value=nominal.value,
            f_star=plateau.value,
            certified_epsilon=eps if network_class is NetworkClass.UNSATURATED else None,
            min_cut=cut,
            cut_kind=kind,
            unique_min_cut=unique,
        )


def classify_network_cold(ext) -> FeasibilityReport:
    """The pre-warm-start classifier: three independent cold solves.

    Kept as the differential/benchmark twin of :func:`classify_network` —
    same verdicts, no residual reuse.
    """
    arrival = sum((Fraction(r) for r in ext.in_rates.values()), start=Fraction(0))
    base = feasible_flow(ext)
    cut = min_cut(base)
    problem = base.problem
    kind = classify_cut(cut, problem)
    unique = is_unique_min_cut(base)
    fs = f_star(ext)

    if base.value < arrival:
        return FeasibilityReport(
            network_class=NetworkClass.INFEASIBLE,
            arrival_rate=arrival,
            max_flow_value=base.value,
            f_star=fs,
            certified_epsilon=None,
            min_cut=cut,
            cut_kind=kind,
            unique_min_cut=unique,
        )

    eps = certification_epsilon(ext)
    scaled_caps = {v: (1 + eps) * Fraction(r) for v, r in ext.in_rates.items()}
    scaled = max_flow(_exact_problem(ext, source_cap_override=scaled_caps))
    unsaturated = scaled.value == (1 + eps) * arrival

    return FeasibilityReport(
        network_class=NetworkClass.UNSATURATED if unsaturated else NetworkClass.SATURATED,
        arrival_rate=arrival,
        max_flow_value=base.value,
        f_star=fs,
        certified_epsilon=eps if unsaturated else None,
        min_cut=cut,
        cut_kind=kind,
        unique_min_cut=unique,
    )


def max_unsaturation_margin(ext) -> Fraction:
    """The *exact* largest ε with ``(1 + ε) in`` still feasible.

    This is the ε of Definition 4 maximised: ``λ* − 1`` along the nominal
    injection ray, with λ* the exact critical scalar from the parametric
    breakpoint envelope (:func:`~repro.flow.parametric.critical_lambda`) —
    a :class:`~fractions.Fraction`, not a bisection bracket.  Returns 0
    for saturated/infeasible networks.  One cold solve per call; every
    envelope evaluation is a warm parametric step.  The all-cold
    bisection :func:`max_unsaturation_margin_cold` is its oracle.
    """
    arrival = sum((Fraction(r) for r in ext.in_rates.values()), start=Fraction(0))
    if arrival <= 0:
        raise FlowError("margin undefined for a network with no injections")
    env = breakpoint_envelope(ext)
    return max(Fraction(0), env.lambda_star - 1)


def max_unsaturation_margin_cold(ext, *, tol: Fraction = Fraction(1, 1024)) -> Fraction:
    """Largest ε (to within ``tol``) by bisection, every probe a cold solve.

    The differential oracle and benchmark baseline of
    :func:`max_unsaturation_margin`: binary search on exact rationals, so
    the returned value is a certified *lower* bound of the exact margin
    and ``returned + tol`` an upper bound.  The exponential bracket gives
    up at ``2**20`` (essentially unbounded slack) and returns its last
    feasible ε.  Returns 0 for saturated/infeasible networks.
    """
    arrival = sum((Fraction(r) for r in ext.in_rates.values()), start=Fraction(0))
    if arrival <= 0:
        raise FlowError("margin undefined for a network with no injections")

    def feasible_at(eps: Fraction) -> bool:
        caps = {v: (1 + eps) * Fraction(r) for v, r in ext.in_rates.items()}
        res = max_flow(_exact_problem(ext, source_cap_override=caps))
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


@dataclass(frozen=True)
class RegionReport:
    """A stability verdict derived from the exact breakpoint envelope.

    The envelope-native sibling of :class:`FeasibilityReport`: one
    parametric solve yields the class, the exact critical scalar
    ``lambda_star`` along the nominal injection ray, the exact margin
    (``max(0, λ* − 1)``, Definition 4 maximised), the max-flow value at
    the nominal rates, ``f_star``, and a min cut binding at λ = 1.
    Uniqueness of the min cut is *not* probed (it needs extra solves the
    one-solve path deliberately avoids) — use :func:`classify_network`
    when you need it.
    """

    network_class: NetworkClass
    arrival_rate: Fraction
    max_flow_value: Fraction
    f_star: Fraction
    lambda_star: Fraction
    margin: Fraction
    min_cut: MinCut
    cut_kind: CutKind
    envelope: BreakpointEnvelope

    @property
    def feasible(self) -> bool:
        return self.network_class is not NetworkClass.INFEASIBLE

    @property
    def unsaturated(self) -> bool:
        return self.network_class is NetworkClass.UNSATURATED

    @property
    def certified_epsilon(self) -> Optional[Fraction]:
        """The maximal certifying slack — exact, unlike the a-priori bound."""
        return self.margin if self.margin > 0 else None


def classify_region(ext, *, envelope: BreakpointEnvelope | None = None) -> RegionReport:
    """Classify a network from one parametric envelope solve.

    The verdict is a pure function of the exact critical scalar: λ* > 1
    means unsaturated (positive slack), λ* = 1 saturated (feasible at the
    nominal rates — the feasible set along a ray is closed — but with
    zero slack), λ* < 1 infeasible.  The envelope runs on the same ladder
    as :func:`classify_network` (one cold solve, the trivial λ = 0 base,
    then warm probes) but resolves all of it, so ``lambda_star`` and
    ``margin`` are exact Fractions.

    Pass a precomputed ``envelope`` (along the nominal injection ray) to
    skip the solve entirely, e.g. from the feasibility cache.
    """
    if envelope is None:
        envelope = breakpoint_envelope(ext)
    arrival = envelope.arrival_slope
    lambda_star = envelope.lambda_star
    if lambda_star > 1:
        network_class = NetworkClass.UNSATURATED
    elif lambda_star == 1:
        network_class = NetworkClass.SATURATED
    else:
        network_class = NetworkClass.INFEASIBLE

    # The binding cut at λ = 1: the segment containing 1 (the later one
    # when 1 is a breakpoint, so an infeasibility certificate for any
    # scale-up when λ* = 1).  Its capacity at λ = 1 is the max-flow value
    # at the nominal rates, by duality.
    seg = envelope.segment_at(Fraction(1))
    side = np.zeros(ext.n, dtype=bool)
    side[list(seg.cut_side)] = True
    max_flow_value = seg.value_at(Fraction(1))
    cut = MinCut(side=side, arcs=tuple(seg.cut_arcs), capacity=max_flow_value)
    a_size = len(seg.cut_side)
    if a_size == 1:
        cut_kind = CutKind.TRIVIAL_SOURCE
    elif a_size == ext.n - 1:
        cut_kind = CutKind.VIRTUAL_SINK
    else:
        cut_kind = CutKind.INTERIOR

    return RegionReport(
        network_class=network_class,
        arrival_rate=arrival,
        max_flow_value=max_flow_value,
        f_star=envelope.f_star,
        lambda_star=lambda_star,
        margin=max(Fraction(0), lambda_star - 1),
        min_cut=cut,
        cut_kind=cut_kind,
        envelope=envelope,
    )
