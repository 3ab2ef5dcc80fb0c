"""Warm-started parametric max-flow over capacity changes in both directions.

The flow stack keeps solving the *same* network while only some arc
capacities move: every rung of the parametric ladder
(:mod:`repro.flow.parametric`, behind classify and the envelope) raises
the virtual ``(s*, v)`` arcs of ``G*``, and the mobility timeline opens
and closes link arcs from one snapshot to the next.  Solving each from
scratch repeats all the flow work; this module solves the first problem
once (the only *cold* solve) and repairs the flow in place for every
later capacity vector:

* a **raised** arc only gains forward residual — the carried flow stays
  feasible;
* a **lowered** arc whose flow fits the new capacity only loses forward
  residual.  One that carries more flow ``f`` than its new capacity ``c``
  is cut down to ``c``, which leaves excess ``f − c`` at its tail ``u``
  and the same deficit at its head ``v``.  The excess is rerouted
  ``u → v`` through the residual graph as far as it fits; the part ``r``
  that does not fit is cancelled along residual paths ``u → s`` and
  ``t → v`` and the value drops by ``r``.  Lowered arcs are repaired one
  at a time: with a single excess/deficit pair and a maximal reroute,
  flow decomposition guarantees that both cancel paths carry ``r``, so a
  shortfall raises :class:`~repro.errors.FlowError` as a broken
  invariant.  All three pushes are Dinic phases
  (:func:`repro.flow.dinic.augment_residual` with ``source``/``sink`` and
  a hard ``target_gain`` cap);
* then re-augment once from the repaired flow with Dinic on the
  residual: Dinic's phase loop never assumes a zero initial flow, so
  :func:`~repro.flow.dinic.augment_residual` continues from the carried
  flow, and a ``target_value`` stops it early.

Everything is exact: capacities stay whatever number type the problem
uses (scaled integers or :class:`fractions.Fraction`), and each step's
:class:`~repro.flow.residual.FlowResult` supports ``min_cut`` /
``is_unique_min_cut`` unchanged because warm-started residuals are
indistinguishable from cold ones.

:meth:`ParametricMaxFlow.fork` checkpoints the engine in O(m) (the
residual shares its immutable topology arrays), which is what lets the
ladder start every rung from the nearest solved parameter value, and
:meth:`ParametricMaxFlow.scale` moves a fork onto a finer common
denominator (or back to ``Fraction``) without disturbing its flow.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import FlowError
from repro.flow.dinic import augment_residual
from repro.flow.maxflow import max_flow
from repro.flow.residual import FlowProblem, FlowResult, Number
from repro.obs.metrics import get_registry
from repro.obs.spans import span

__all__ = ["ParametricMaxFlow", "source_arc_updates"]


def source_arc_updates(ext, override: Mapping[int, Number]) -> dict[int, Number]:
    """Map a ``{base node: new capacity}`` override onto arc indices of ``G*``.

    The arc order of :meth:`FlowProblem.from_extended` mirrors the arc
    order of the :class:`~repro.graphs.extended.ExtendedGraph`, so the
    indices address both representations.
    """
    from repro.graphs.extended import ArcKind  # local import avoids a cycle

    updates: dict[int, Number] = {}
    for i, (kind, ref) in enumerate(zip(ext.kinds, ext.refs)):
        if kind is ArcKind.SOURCE and int(ref) in override:
            updates[i] = override[int(ref)]
    return updates


class ParametricMaxFlow:
    """One cold solve, then incremental answers to capacity changes.

    >>> engine = ParametricMaxFlow(problem)          # cold solve (Dinic)
    >>> value = engine.set_arc_capacities({3: 7})    # warm: repair + re-augment
    >>> checkpoint = engine.fork()                   # O(m) state snapshot

    :meth:`set_arc_capacities` returns the new max-flow value; the full
    :class:`FlowResult` (for ``min_cut`` / ``is_unique_min_cut`` / flow
    recovery) is materialised lazily by :attr:`result`, so value-only
    steps skip the O(m) snapshot cost.  Successive results *share* the
    engine's live residual, so extract cuts from a step's result before
    advancing to the next step — or :meth:`fork` first.
    """

    __slots__ = ("_res", "_value", "_result", "warm_steps", "warm_arc_pushes")

    def __init__(self, problem: FlowProblem) -> None:
        with span("flow.solve", algorithm="dinic", kind="cold"):
            base = max_flow(problem)  # the one and only cold solve
        self._res = base.residual
        self._value = base.value
        self._result = base
        self.warm_steps = 0
        self.warm_arc_pushes = 0

    # -- state ---------------------------------------------------------
    @property
    def problem(self) -> FlowProblem:
        """The problem at the current parameter value (updated capacities)."""
        return self._res.problem

    @property
    def value(self) -> Number:
        return self._value

    @property
    def result(self) -> FlowResult:
        """The :class:`FlowResult` at the current parameter value.

        Materialised lazily: the per-arc flow snapshot is O(m), which
        value-only parameter sweeps never need to pay.
        """
        if self._result is None:
            self._result = FlowResult(
                problem=self._res.problem,
                value=self._value,
                flows=tuple(self._res.flows()),
                residual=self._res,
            )
        return self._result

    def fork(self) -> "ParametricMaxFlow":
        """An independent engine sharing nothing mutable with this one.

        O(m): the residual array is copied, the topology arrays are
        aliased.  Used by the parametric ladder to
        solve a new rung without disturbing the one it starts from.
        """
        clone = object.__new__(ParametricMaxFlow)
        clone._res = self._res.fork()
        clone._value = self._value
        clone.warm_steps = self.warm_steps
        clone.warm_arc_pushes = self.warm_arc_pushes
        clone._result = None
        return clone

    def scale(self, k: Number) -> None:
        """Multiply every capacity, every residual entry and the value by ``k > 0``.

        That keeps a maximum flow maximum and every min cut a min cut
        (reachability sees only which residuals are positive).
        ``k = Fraction(1, S)`` turns an engine scaled by ``S`` into an exact
        ``Fraction`` one.  ``k <= 0`` raises :class:`FlowError`.
        """
        if not k > 0:
            raise FlowError(f"scale factor must be positive, got {k}")
        res = self._res
        p = res.problem
        res.residual = [r * k for r in res.residual]
        res.problem = FlowProblem._trusted(
            n=p.n, tails=p.tails, heads=p.heads,
            capacities=[c * k for c in p.capacities],
            source=p.source, sink=p.sink,
        )
        self._value = self._value * k
        self._result = None

    # -- the parametric step -------------------------------------------
    def set_arc_capacities(
        self, new_caps: Mapping[int, Number], *, target_value: Number | None = None,
    ) -> Number:
        """Advance to ``new_caps`` (``{arc index: capacity}``) and re-solve warm.

        Returns the new max-flow value.  Capacities may rise or fall (see
        the module docstring for how a lowered arc's flow is repaired);
        a negative capacity raises :class:`FlowError`.  Arcs not
        mentioned keep their capacity.

        ``target_value`` is an optional early-stop certificate: a value the
        caller has *proved* no flow can exceed (the mobility timeline uses
        the total source-arc capacity).
        Augmentation stops as soon as the flow reaches it, skipping the
        final no-path search; a flow can never overshoot a capacity
        bound, so the result stays exact.
        """
        with span("flow.solve", algorithm="dinic", kind="warm"):
            return self._set_arc_capacities(new_caps, target_value=target_value)

    def _set_arc_capacities(
        self, new_caps: Mapping[int, Number], *, target_value: Number | None = None,
    ) -> Number:
        res = self._res
        p = res.problem
        caps = list(p.capacities)
        residual = res.residual
        m = len(caps)
        # validate everything before touching the residual, so a rejected
        # step leaves the engine as it was
        for j, c in new_caps.items():
            if not 0 <= j < m:
                raise FlowError(f"arc index {j} out of range (m={m})")
            if c < 0:
                raise FlowError(f"arc {j} has negative capacity {c}")
        overflowing: list[int] = []  # lowered below their flow: repaired below
        changed = False
        for j, c in new_caps.items():
            old = caps[j]
            if c > old:
                residual[2 * j] += c - old
            elif c < old:
                flow = residual[2 * j + 1]
                if flow <= c:
                    residual[2 * j] = c - flow
                else:
                    overflowing.append(j)
            else:
                continue
            caps[j] = c
            changed = True
        # topology and endpoints are unchanged and the new capacities were
        # validated above, so skip __post_init__'s O(m) re-check
        res.problem = FlowProblem._trusted(
            n=p.n, tails=p.tails, heads=p.heads,
            capacities=caps, source=p.source, sink=p.sink,
        )

        arc_pushes = 0
        for j in overflowing:
            arc_pushes += self._lower_arc(j, caps[j])

        gained: Number = 0
        if changed:
            target_gain = None
            if target_value is not None:
                target_gain = target_value - self._value
            gained, _, _, pushes = augment_residual(res, target_gain=target_gain)
            arc_pushes += pushes

        self._value = self._value + gained
        self.warm_steps += 1
        self.warm_arc_pushes += arc_pushes

        reg = get_registry()
        if reg.enabled:
            lbl = {"algorithm": "dinic"}
            reg.counter("repro_flow_warm_solves_total",
                        "Warm-started parametric max-flow steps.",
                        ("algorithm",)).labels(**lbl).inc()
            reg.counter("repro_flow_warm_augment_arcs_total",
                        "Residual arcs pushed while repairing and re-augmenting "
                        "warm steps.",
                        ("algorithm",)).labels(**lbl).inc(arc_pushes)

        self._result = None  # rebuilt on demand by .result
        return self._value

    def _lower_arc(self, j: int, cap: Number) -> int:
        """Cut arc ``j``'s flow down to ``cap``, keeping a valid flow.

        The arc still has its old capacity in the residual graph; the
        repairs of earlier arcs may have moved its flow since.  Returns
        the residual-arc pushes spent and lowers :attr:`value` by whatever
        excess could not be rerouted around the arc.
        """
        res = self._res
        residual = res.residual
        flow = residual[2 * j + 1]
        if flow <= cap:
            residual[2 * j] = cap - flow
            return 0
        residual[2 * j] = 0
        residual[2 * j + 1] = cap
        p = res.problem
        u, v = p.tails[j], p.heads[j]
        if u == v:  # a self-loop's flow never crosses a node boundary
            return 0
        excess = flow - cap
        moved, _, _, pushes = augment_residual(res, source=u, sink=v,
                                               target_gain=excess)
        r = excess - moved
        if r:
            for a, b in ((u, p.source), (p.sink, v)):
                if a == b:
                    continue
                got, _, _, k = augment_residual(res, source=a, sink=b, target_gain=r)
                pushes += k
                if got != r:
                    raise FlowError(
                        f"lowering arc {j}: cancel path {a} -> {b} carried "
                        f"{got} of {r}; the carried flow was not valid"
                    )
            self._value = self._value - r
        return pushes
