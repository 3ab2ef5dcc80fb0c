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

The exact slack ε* = max(0, λ* − 1), the frontier λ* and f* are read off
one parametric breakpoint envelope by :func:`classify_region`.

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
    "feasible_flow",
    "certification_epsilon",
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


def _f_star(ext) -> object:
    """:func:`classify_network_cold`'s ``f*``: max flow with *infinite*
    capacity on the ``(s*, v)`` arcs, one cold solve.

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
        kind = classify_cut(cut, result.problem.source, result.problem.sink)
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
    kind = classify_cut(cut, problem.source, problem.sink)
    unique = is_unique_min_cut(base)
    fs = _f_star(ext)

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


@dataclass(frozen=True)
class RegionReport:
    """A stability verdict derived from the exact breakpoint envelope.

    The envelope-native sibling of :class:`FeasibilityReport`: one
    parametric solve yields the class, the exact critical scalar
    ``lambda_star`` along the nominal injection ray, the exact margin
    (``max(0, λ* − 1)``, Definition 4 maximised), the max-flow value at
    the nominal rates, ``f_star``, and a min cut binding at λ = 1.
    ``margin`` is the exact maximal certifying slack; the a-priori
    :func:`certification_epsilon` that :class:`FeasibilityReport` carries
    is a different, smaller number.  Uniqueness of the min cut is *not*
    probed (it needs extra solves the one-solve path deliberately avoids)
    — use :func:`classify_network` when you need it.
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
    skip the solve entirely, e.g. from the feasibility cache.  A network
    with no injections has no ray and raises
    :class:`~repro.errors.FlowError`.
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

    return RegionReport(
        network_class=network_class,
        arrival_rate=arrival,
        max_flow_value=max_flow_value,
        f_star=envelope.f_star,
        lambda_star=lambda_star,
        margin=max(Fraction(0), lambda_star - 1),
        min_cut=cut,
        cut_kind=classify_cut(cut, ext.s_star, ext.d_star),
        envelope=envelope,
    )
