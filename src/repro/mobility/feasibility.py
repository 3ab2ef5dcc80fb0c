"""Feasibility tracked *through* a mobility trace.

Per snapshot the question is the paper's Definition 3 on that instant's
radio graph: does a flow exist in ``G*`` routing the full arrival rate
``Σ in(v)``?  This is the hypothesis of the paper's Conjecture 4 (LGG on
a dynamic network that always admits a feasible flow), checked snapshot
by snapshot.  Solving each snapshot from scratch repeats almost all the
flow work — consecutive snapshots share most of their links — so
:func:`feasibility_timeline` runs one warm
:class:`repro.flow.warmstart.ParametricMaxFlow` chain per trace:

* **One arc universe.**  All snapshots are posed on a single
  :class:`~repro.flow.residual.FlowProblem` whose edge arcs cover every
  pair that is *ever* a link in the trace (two opposite unit arcs per
  pair), plus the usual ``(s*, v)`` / ``(v, d*)`` rate arcs.  A link
  absent from a snapshot is an arc of capacity 0.
* **Exact integers.**  The unit link capacity, the rate capacities and
  the arrival are scaled once to a common denominator ``D``
  (:func:`repro.numeric.try_scale`), so the chain runs on plain ints —
  ``D = 1`` for integer rates.  When the magnitude guard declines, the
  same chain runs on :class:`fractions.Fraction` with ``D = 1``, counted
  in ``repro_core_fraction_fallbacks_total``.  Entries report values
  unscaled, as exact Fractions.
* **One chain.**  Snapshot 0 is the only cold solve.  Every later
  snapshot repairs the one before it: the pairs that left close (both
  arcs to 0), the pairs that joined open (both arcs to ``D``), all in one
  :meth:`~repro.flow.warmstart.ParametricMaxFlow.set_arc_capacities`
  step, which reroutes or cancels the flow of closed links and then
  re-augments.

The cold-solve-per-snapshot oracle (:func:`feasibility_timeline_cold`)
runs on exact ``Fraction`` capacities, so the differential test in
``tests/mobility/test_feasibility.py`` checks the integer scaling as well
as the warm chain.  The warm/cold split is exported through
:mod:`repro.obs` (``repro_mobility_steps_total``,
``repro_mobility_solves_total{mode}``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

import numpy as np

from repro.errors import SpecError
from repro.flow.maxflow import max_flow
from repro.flow.residual import FlowProblem
from repro.flow.warmstart import ParametricMaxFlow
from repro.mobility.trace import MobilityTrace
from repro.numeric import note_fraction_fallback, try_scale, unscale
from repro.obs.metrics import get_registry
from repro.obs.spans import span

__all__ = [
    "TimelineEntry",
    "FeasibilityTimeline",
    "feasibility_timeline",
    "feasibility_timeline_cold",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class TimelineEntry:
    """Feasibility verdict for one snapshot of the trace."""

    t: int
    links: int                 # |link set| of the snapshot
    delta: int                 # pairs changed since the previous snapshot
    mode: str                  # "warm" (repair + re-augment) or "cold"
    max_flow_value: Fraction   # == arrival iff feasible (value never exceeds it)
    feasible: bool


@dataclass(frozen=True)
class FeasibilityTimeline:
    """Per-snapshot feasibility of a mobility trace, plus solve accounting."""

    arrival: Fraction
    entries: tuple[TimelineEntry, ...]
    warm_solves: int
    cold_solves: int

    @property
    def always_feasible(self) -> bool:
        return all(e.feasible for e in self.entries)

    @property
    def feasible_fraction(self) -> float:
        return sum(e.feasible for e in self.entries) / len(self.entries)

    def first_infeasible(self) -> Optional[int]:
        """Step index of the first infeasible snapshot, or ``None``."""
        for e in self.entries:
            if not e.feasible:
                return e.t
        return None

    def __len__(self) -> int:
        return len(self.entries)


def _coerce_rates(rates: Mapping[int, object], n: int, label: str) -> dict[int, Fraction]:
    clean: dict[int, Fraction] = {}
    for v, r in sorted(rates.items()):
        if not (0 <= int(v) < n):
            raise SpecError(f"{label}_rates references unknown node {v} (n={n})")
        f = Fraction(r)
        if f < 0:
            raise SpecError(f"{label}({v}) = {r} is negative")
        if f > 0:
            clean[int(v)] = f
    return clean


class _UniverseProblem:
    """The fixed arc universe all snapshots of one trace are posed on.

    Arc layout mirrors :class:`~repro.graphs.extended.ExtendedGraph`: two
    opposite unit arcs per universe pair (``2k`` / ``2k + 1`` for pair
    ``k``), then the ``(s*, v)`` arcs, then the ``(v, d*)`` arcs.  A
    snapshot's link set is its unpacked row of the trace
    (:meth:`~repro.mobility.trace.MobilityTrace.linked`): one bool per
    universe pair.
    """

    def __init__(self, trace: MobilityTrace,
                 in_rates: Mapping[int, object],
                 out_rates: Mapping[int, object]) -> None:
        n = trace.n
        self.in_rates = _coerce_rates(in_rates, n, "in")
        self.out_rates = _coerce_rates(out_rates, n, "out")
        self.arrival = sum(self.in_rates.values(), start=_ZERO)
        self.s_star, self.d_star = n, n + 1
        lo, hi = np.divmod(trace.universe_keys, n)
        tails = np.column_stack((lo, hi)).ravel().tolist()
        heads = np.column_stack((hi, lo)).ravel().tolist()
        for v in self.in_rates:
            tails.append(self.s_star)
            heads.append(v)
        for v in self.out_rates:
            tails.append(v)
            heads.append(self.d_star)
        self.n_star = n + 2
        self.tails = tails
        self.heads = heads
        self.rate_caps = list(self.in_rates.values()) + list(self.out_rates.values())

    def problem(self, present: np.ndarray, unit, rate_caps) -> FlowProblem:
        """The instance whose edge arcs carry capacity ``unit`` on the
        pairs ``present`` marks (one bool per universe pair) and 0 (of
        ``unit``'s type) elsewhere."""
        zero = unit - unit
        caps = [unit if c else zero for c in np.repeat(present, 2).tolist()]
        caps.extend(rate_caps)
        return FlowProblem(
            n=self.n_star, tails=self.tails, heads=self.heads,
            capacities=caps, source=self.s_star, sink=self.d_star,
        )


def _note_solve(mode: str) -> None:
    reg = get_registry()
    if reg.enabled:
        reg.counter("repro_mobility_solves_total",
                    "Flow solves answering mobility snapshots, by warm/cold mode.",
                    ("mode",)).labels(mode=mode).inc()


def _note_steps(k: int) -> None:
    reg = get_registry()
    if reg.enabled:
        reg.counter("repro_mobility_steps_total",
                    "Mobility snapshots whose feasibility was evaluated.").inc(k)


def feasibility_timeline(
    trace: MobilityTrace,
    in_rates: Mapping[int, object],
    out_rates: Mapping[int, object],
) -> FeasibilityTimeline:
    """Incremental per-snapshot Definition-3 feasibility of a trace.

    Snapshot 0 is cold-solved; each later snapshot is one warm step from
    the previous one, closing the pairs that left and opening the pairs
    that joined.  Exact arithmetic throughout — the result is
    entry-for-entry identical to :func:`feasibility_timeline_cold`.
    """
    uni = _UniverseProblem(trace, in_rates, out_rates)
    batch = [_ONE, *uni.rate_caps, uni.arrival]
    scaled = try_scale(batch)
    if scaled is None:
        note_fraction_fallback()
        values, den = batch, 1
    else:
        values, den = scaled
    unit, rate_caps, arrival_d = values[0], values[1:-1], values[-1]
    entries: list[TimelineEntry] = []
    with span("mobility.timeline", snapshots=len(trace)):
        present = trace.linked(0)
        engine = ParametricMaxFlow(uni.problem(present, unit, rate_caps))
        value, delta, mode = engine.value, int(np.count_nonzero(present)), "cold"
        for s, t in enumerate(trace.times):
            if s:
                now = trace.linked(s)
                changed = np.flatnonzero(now != present)
                # a pair that left closes both its arcs, one that joined
                # opens them; the engine repairs the flow of closed links
                updates = {}
                for k, on in zip(changed.tolist(), now[changed].tolist()):
                    updates[2 * k] = updates[2 * k + 1] = unit if on else 0
                value = engine.set_arc_capacities(updates, target_value=arrival_d)
                delta, mode, present = len(changed), "warm", now
            _note_solve(mode)
            entries.append(TimelineEntry(
                t=t, links=int(np.count_nonzero(present)), delta=delta, mode=mode,
                max_flow_value=unscale(value, den), feasible=(value == arrival_d),
            ))
    _note_steps(len(entries))
    return FeasibilityTimeline(
        arrival=uni.arrival, entries=tuple(entries),
        warm_solves=len(entries) - 1, cold_solves=1,
    )


def feasibility_timeline_cold(
    trace: MobilityTrace,
    in_rates: Mapping[int, object],
    out_rates: Mapping[int, object],
) -> FeasibilityTimeline:
    """The differential oracle: one independent cold solve per snapshot.

    Same universe problem, no residual reuse, and exact ``Fraction``
    capacities instead of scaled integers — :func:`feasibility_timeline`
    must match it entry for entry.
    """
    uni = _UniverseProblem(trace, in_rates, out_rates)
    arrival = uni.arrival
    entries: list[TimelineEntry] = []
    for s, t in enumerate(trace.times):
        present = trace.linked(s)
        value = max_flow(uni.problem(present, _ONE, uni.rate_caps)).value
        links = int(np.count_nonzero(present))
        _note_solve("cold")
        entries.append(TimelineEntry(
            t=t, links=links, delta=links, mode="cold",
            max_flow_value=value, feasible=(value == arrival),
        ))
    _note_steps(len(entries))
    return FeasibilityTimeline(
        arrival=arrival, entries=tuple(entries),
        warm_solves=0, cold_solves=len(entries),
    )
