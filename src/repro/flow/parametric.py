"""The flow stack's one parametric chain, and the breakpoint envelope on it.

The feasibility question behind every stability verdict is parametric:
scale the source-arc capacities along a *ray* ``λ · d(v)`` (``d`` a
non-negative direction in rate space, by default the nominal injection
rates) and ask for which ``λ`` the max ``s*``-``d*`` flow still carries
the full scaled injection.  Max-flow/min-cut duality makes the value

    v(λ) = min over cuts C of [ λ · inCross_d(C) + rest(C) ]

a minimum of finitely many lines — concave, piecewise linear, with at
most ``n − 2`` breakpoints (Gallo–Grigoriadis–Tarjan).  Every reading of
it comes from one ladder of warm
:class:`~repro.flow.warmstart.ParametricMaxFlow` engines on scaled
integers: one cold solve at ``λ = 0`` (trivial — every source arc is
closed), then every new ``λ`` forks the nearest smaller one.
:func:`~repro.flow.feasibility.classify_network` reads three rungs;
:func:`breakpoint_envelope` resolves the entire envelope by
Eisner–Severance divide and conquer, for the exact critical scalar

    λ* = sup { λ ≥ 0 : v(λ) = λ · Σd }

as a :class:`~fractions.Fraction` — the feasibility frontier along the
ray — instead of a bisection bracket.
:func:`~repro.flow.feasibility.classify_region` reads the exact margin
and ``f*`` off it, and the region experiments ride on it.  No floats
enter.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, NamedTuple, Optional

import numpy as np

from repro.flow.residual import FlowError, FlowProblem, Number
from repro.flow.warmstart import ParametricMaxFlow, source_arc_updates
from repro.graphs.extended import ExtendedGraph
from repro.numeric import INT_SCALE_LIMIT, note_fraction_fallback, try_scale
from repro.obs.metrics import get_registry
from repro.obs.spans import span

__all__ = [
    "EnvelopeSegment",
    "BreakpointEnvelope",
    "breakpoint_envelope",
]


@dataclass(frozen=True)
class EnvelopeSegment:
    """One linear piece of the min-cut envelope, with its certificate.

    On ``[lo, hi]`` (``hi is None`` means ``+∞``) the min-cut value is
    ``slope · λ + intercept``, and ``cut_side`` / ``cut_arcs`` name a cut
    achieving it for *every* λ in the segment: ``cut_side`` is the
    source-side node set (always contains ``s*``, never ``d*``) and
    ``cut_arcs`` the crossing arc indices into the extended graph.
    """

    lo: Fraction
    hi: Optional[Fraction]
    slope: Fraction
    intercept: Fraction
    cut_side: tuple[int, ...]
    cut_arcs: tuple[int, ...]

    def value_at(self, lam) -> Fraction:
        return self.slope * Fraction(lam) + self.intercept


@dataclass(frozen=True)
class BreakpointEnvelope:
    """The exact piecewise-linear min-cut envelope along one ray.

    ``segments`` tile ``[0, ∞)`` in order; adjacent segments meet at the
    ``breakpoints``.  ``lambda_star`` is the exact feasibility frontier:
    the ray point ``λ · direction`` is routable iff ``0 ≤ λ ≤ lambda_star``
    (the feasible set along a ray is closed — interpolate flows).
    """

    direction: tuple[tuple[int, Fraction], ...]
    arrival_slope: Fraction          # Σ d(v): slope of the demand line λ·Σd
    segments: tuple[EnvelopeSegment, ...]
    lambda_star: Fraction
    cold_solves: int
    probes: int
    warm_steps: int

    @property
    def breakpoints(self) -> tuple[Fraction, ...]:
        """Interior kinks of v(λ), in increasing order (≤ n − 2 of them)."""
        return tuple(seg.lo for seg in self.segments[1:])

    @property
    def f_star(self) -> Fraction:
        """Plateau value: max flow with unbounded source capacity."""
        return self.segments[-1].intercept

    def segment_at(self, lam) -> EnvelopeSegment:
        """The segment containing ``lam`` (the later one at a breakpoint)."""
        lam = Fraction(lam)
        if lam < 0:
            raise FlowError(f"envelope is defined on λ ≥ 0, got {lam}")
        los = [seg.lo for seg in self.segments]
        return self.segments[bisect_right(los, lam) - 1]

    def value_at(self, lam) -> Fraction:
        """Exact min-cut (= max-flow) value at ``λ = lam``."""
        return self.segment_at(lam).value_at(lam)

    def feasible_at(self, lam) -> bool:
        """Is the scaled injection ``lam · direction`` routable?"""
        lam = Fraction(lam)
        return 0 <= lam <= self.lambda_star


def _normalize_direction(ext: ExtendedGraph, direction) -> dict[int, Fraction]:
    """Validate a ray and coerce it to ``{node: Fraction d(v) > 0}``."""
    if direction is None:
        direction = ext.in_rates
    if not direction:
        raise FlowError(
            "breakpoint envelope needs a direction with at least one "
            "positive entry (a network with no injections has no ray)"
        )
    out: dict[int, Fraction] = {}
    for v, rate in direction.items():
        d = Fraction(rate)
        if d < 0:
            raise FlowError(f"direction rate for node {v} is negative: {d}")
        if v not in ext.in_rates:
            raise FlowError(
                f"direction names node {v}, which has no (s*, v) injection arc"
            )
        if d > 0:
            out[v] = d
    if not out:
        raise FlowError("direction has no positive entries")
    return out


class _Rung(NamedTuple):
    """A solved λ: its engine runs at ``scale`` × the true capacities
    (``None``: the rung left the integer path and runs on ``Fraction``)."""

    engine: ParametricMaxFlow
    scale: Optional[int]

    @property
    def value(self) -> Fraction:
        return Fraction(self.engine.value, self.scale or 1)


class _Ladder:
    """Solved λ values (rungs) along one ray, each with its warm engine.

    The one cold solve is the λ = 0 base.  :meth:`rung` forks the engine of
    the largest solved ``λ' ≤ λ`` and raises the parametric arcs to
    ``λ · d``, a pure raise with no flow to repair.  With ``D`` the common
    denominator of the fixed capacities and the ray, a rung at ``λ = p/q``
    runs at a scale ``S``, a multiple of ``D·q``: the fork of a parent at
    ``S'`` is first multiplied by ``lcm(S', D·q) / S'``.  A rung whose
    scale or capacities would pass ``INT_SCALE_LIMIT`` leaves for exact
    ``Fraction`` with its forks; the ladder counts one fallback in all.
    """

    def __init__(self, ext: ExtendedGraph, direction: Mapping[int, Number]) -> None:
        # λ = 0: injection nodes outside the ray keep their source arcs
        # closed for every λ, so 0 is their fixed capacity
        problem = FlowProblem.from_extended(
            ext, source_cap_override=dict.fromkeys(ext.in_rates, 0))
        self._tails, self._heads = problem.tails, problem.heads
        ray = {j: Fraction(d) for j, d in
               source_arc_updates(ext, direction).items() if d}
        # beyond λ_end every parametric arc carries more than any flow can
        # (total sink capacity + 1), so v(λ_end) is the plateau value f*
        self.lam_end = (Fraction(sum(map(Fraction, ext.out_rates.values())) + 1,
                                 min(ray.values())) if ray else Fraction(0))
        self.probes = 0
        batch = [*problem.capacities, *ray.values()]
        scaled = try_scale(batch)
        self.fell_back = scaled is None
        if scaled is None:
            note_fraction_fallback()
            scaled = ([Fraction(c) for c in batch], None)
        values, scale = scaled
        # fixed capacities and ray rates, both times D (D = 1 on Fraction)
        self._den = scale or 1
        self._fixed, rates = values[:problem.num_arcs], values[problem.num_arcs:]
        self._rates = dict(zip(ray, rates))
        self._max_fixed = max(self._fixed, default=0)
        self._max_rate = max(rates, default=0)
        base = ParametricMaxFlow(FlowProblem._trusted(
            n=problem.n, tails=problem.tails, heads=problem.heads,
            capacities=self._fixed, source=problem.source, sink=problem.sink,
        ))
        self._lams: list[Fraction] = [Fraction(0)]
        self._rungs: list[_Rung] = [_Rung(base, scale)]

    def rung(self, lam: Fraction) -> _Rung:
        """The rung at ``lam``, solved by a warm fork if it is new."""
        i = bisect_right(self._lams, lam) - 1
        if self._lams[i] == lam or not self._rates:
            return self._rungs[i]
        parent = self._rungs[i]
        engine = parent.engine.fork()
        scale = parent.scale
        if scale is not None:
            dq = self._den * lam.denominator
            scale = lcm(scale, dq)
            unit = scale // dq * lam.numerator
            if max(scale, self._max_fixed * (scale // self._den),
                   unit * self._max_rate) > INT_SCALE_LIMIT:
                # past the guard: this rung and its forks run on Fraction
                engine.scale(Fraction(1, parent.scale))
                if not self.fell_back:
                    note_fraction_fallback()
                self.fell_back, scale = True, None
            elif scale != parent.scale:
                engine.scale(scale // parent.scale)
        if scale is None:
            caps = {j: Fraction(lam * r, self._den) for j, r in self._rates.items()}
        else:
            caps = {j: unit * r for j, r in self._rates.items()}
        engine.set_arc_capacities(caps)
        self.probes += 1
        rung = _Rung(engine, scale)
        self._lams.insert(i + 1, lam)
        self._rungs.insert(i + 1, rung)
        return rung

    def probe(self, lam: Fraction) -> tuple[Fraction, tuple[int, ...]]:
        """Exact v(lam) plus the min-side cut mask (node tuple)."""
        rung = self.rung(lam)
        mask = rung.engine.result.source_side()
        return rung.value, tuple(np.flatnonzero(mask).tolist())

    def line_of(self, side: tuple[int, ...],
                ) -> tuple[Fraction, Fraction, tuple[int, ...]]:
        """(slope, intercept, crossing arcs) of the cut named by ``side``.

        Computed from the side mask directly — never from
        :func:`~repro.flow.mincut.min_cut`'s arc list, which drops
        zero-capacity arcs and so would lose every parametric arc at λ = 0.
        """
        in_side = set(side)
        rates, fixed = self._rates, self._fixed
        crossing = tuple(j for j, (u, v) in enumerate(zip(self._tails, self._heads))
                         if u in in_side and v not in in_side
                         and (j in rates or fixed[j] > 0))
        slope = sum(rates.get(j, 0) for j in crossing)
        intercept = sum(fixed[j] for j in crossing if j not in rates)
        return Fraction(slope, self._den), Fraction(intercept, self._den), crossing


def breakpoint_envelope(ext: ExtendedGraph, direction=None) -> BreakpointEnvelope:
    """Compute the exact min-cut envelope of ``v(λ)`` along a ray.

    ``direction`` maps injection nodes to non-negative rates (defaults to
    ``ext.in_rates``); nodes absent from it keep their source arcs closed
    for every λ.  Returns the full :class:`BreakpointEnvelope` — exact
    breakpoints, a min-cut certificate per segment, and the critical
    scalar ``lambda_star`` — after exactly one cold solve; every other
    evaluation is a warm re-augmentation.
    """
    direction = _normalize_direction(ext, direction)
    arrival_slope = sum(direction.values(), start=Fraction(0))

    with span("flow.envelope", algorithm="dinic"):
        ladder = _Ladder(ext, direction)

        # Tangent at λ = 0: the min cut is exactly {s*} (all parametric
        # arcs closed, so no residual arc leaves s*), giving the demand
        # line itself: v ≥ 0 = λ·Σd at the origin with slope Σd.
        v0, side0 = ladder.probe(Fraction(0))
        assert v0 == 0, "λ=0 instance must have zero max flow"
        line0 = ladder.line_of(side0)
        assert line0[0] == arrival_slope and line0[1] == 0, (
            "cut at λ=0 must be the demand line", line0)

        # Tangent on the plateau: beyond λ_end every parametric arc's
        # capacity exceeds any possible flow, so the binding cut excludes
        # all of them — slope 0.
        lam_end = ladder.lam_end
        v_end, side_end = ladder.probe(lam_end)
        line_end = ladder.line_of(side_end)
        if line_end[0] != 0:
            raise FlowError(
                f"plateau cut still crosses parametric arcs at λ={lam_end}"
            )

        pieces: list[tuple[Fraction, Fraction,
                           tuple[Fraction, Fraction, tuple[int, ...]],
                           tuple[int, ...]]] = []

        # Resolve the envelope on each interval [lo, hi] given tangents at
        # its ends.  Concavity plus tangency does all the work: the two
        # tangent lines intersect at a unique λ_x in [lo, hi]; if the
        # envelope meets their pointwise minimum there, λ_x is a breakpoint
        # and each tangent is the envelope on its side (the envelope is
        # wedged between chord and tangent); otherwise the probe at λ_x
        # yields a strictly lower tangent, and both halves are resolved in
        # turn.  An explicit stack, left half on top, keeps the pieces in
        # increasing λ (a self-calling closure would hold the ladder in a
        # reference cycle until the cyclic collector ran).
        stack = [(Fraction(0), line0, side0, lam_end, line_end, side_end)]
        while stack:
            lo, line_lo, side_lo, hi, line_hi, side_hi = stack.pop()
            if line_lo[0] == line_hi[0]:
                # Equal slopes with both tangent ⇒ same line (concavity
                # forbids two parallel tangents with different intercepts
                # touching on one interval unless they coincide).
                pieces.append((lo, hi, line_lo, side_lo))
                continue
            lam_x = Fraction(line_hi[1] - line_lo[1], line_lo[0] - line_hi[0])
            if lam_x == lo:
                pieces.append((lo, hi, line_hi, side_hi))
                continue
            if lam_x == hi:
                pieces.append((lo, hi, line_lo, side_lo))
                continue
            v_x, side_x = ladder.probe(lam_x)
            if v_x == line_lo[0] * lam_x + line_lo[1]:
                pieces.append((lo, lam_x, line_lo, side_lo))
                pieces.append((lam_x, hi, line_hi, side_hi))
                continue
            line_x = ladder.line_of(side_x)
            assert line_x[0] * lam_x + line_x[1] == v_x, "cut does not certify probe"
            stack.append((lam_x, line_x, side_x, hi, line_hi, side_hi))
            stack.append((lo, line_lo, side_lo, lam_x, line_x, side_x))

        # Merge adjacent pieces that carry the same line, then stretch the
        # final (slope-0 plateau) piece to +∞.
        segments: list[EnvelopeSegment] = []
        for lo, hi, line, side in pieces:
            if segments and (segments[-1].slope, segments[-1].intercept) == line[:2]:
                prev = segments[-1]
                segments[-1] = EnvelopeSegment(prev.lo, hi, prev.slope,
                                               prev.intercept, prev.cut_side,
                                               prev.cut_arcs)
            else:
                segments.append(EnvelopeSegment(lo, hi, line[0], line[1],
                                                side, line[2]))
        last = segments[-1]
        assert last.slope == 0, "final envelope segment must be the plateau"
        segments[-1] = EnvelopeSegment(last.lo, None, last.slope,
                                       last.intercept, last.cut_side,
                                       last.cut_arcs)

        # λ* = sup { λ : v(λ) = λ·Σd }: the first (smallest-λ) crossing of
        # the demand line with a strictly-shallower envelope line.  The
        # plateau has slope 0 < Σd, so the minimum is over a non-empty set
        # and λ* is always finite.
        lambda_star = min(
            Fraction(seg.intercept, arrival_slope - seg.slope)
            for seg in segments if seg.slope < arrival_slope
        )

    reg = get_registry()
    if reg.enabled:
        lbl = {"algorithm": "dinic"}
        reg.counter("repro_flow_envelope_solves_total",
                    "Breakpoint-envelope computations (one cold solve each).",
                    ("algorithm",)).labels(**lbl).inc()
        reg.counter("repro_flow_envelope_probes_total",
                    "Warm parametric probes spent building envelopes.",
                    ("algorithm",)).labels(**lbl).inc(ladder.probes)

    return BreakpointEnvelope(
        direction=tuple(sorted(direction.items())),
        arrival_slope=arrival_slope,
        segments=tuple(segments),
        lambda_star=lambda_star,
        cold_solves=1,
        probes=ladder.probes,
        warm_steps=ladder.probes,
    )
