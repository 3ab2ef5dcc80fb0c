"""Linear-programming formulations of the flow problems (scipy oracle).

Definition 4 speaks of *fractional* flows, so alongside the combinatorial
solvers the tests keep the direct LP formulations:

* :func:`lp_max_flow` — the max-flow LP on a :class:`FlowProblem`
  (conservation equalities + capacity box constraints);
* :func:`lp_unsaturation_margin` — the ε of Definition 4 *directly* as an
  LP: maximise ε subject to a feasible flow saturating every virtual
  source arc at ``(1 + ε) in(v)``.

Both are differential oracles only: the combinatorial solvers and the
exact margin must agree with them to LP tolerance.  They live with the
tests so that importing :mod:`repro` never loads ``scipy.optimize``.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from repro.errors import FlowError
from repro.flow.residual import FlowProblem
from repro.graphs.extended import ArcKind, ExtendedGraph

__all__ = ["lp_max_flow", "lp_unsaturation_margin"]


def lp_max_flow(problem: FlowProblem) -> tuple[float, np.ndarray]:
    """Solve the max-flow LP; returns ``(value, per-arc flows)``.

    Formulation: variables ``f_j ∈ [0, cap_j]``; flow conservation at every
    node except source and sink; maximise net flow out of the source.
    """
    m = problem.num_arcs
    if m == 0:
        return 0.0, np.zeros(0)
    caps = np.array([float(c) for c in problem.capacities])
    tails = np.asarray(problem.tails)
    heads = np.asarray(problem.heads)

    # objective: maximise sum(out of source) - sum(into source)
    c = np.zeros(m)
    c[tails == problem.source] -= 1.0
    c[heads == problem.source] += 1.0

    interior = [v for v in range(problem.n) if v not in (problem.source, problem.sink)]
    a_eq = np.zeros((len(interior), m))
    for row, v in enumerate(interior):
        a_eq[row, tails == v] -= 1.0
        a_eq[row, heads == v] += 1.0
    b_eq = np.zeros(len(interior))

    res = linprog(
        c,
        A_eq=a_eq if len(interior) else None,
        b_eq=b_eq if len(interior) else None,
        bounds=list(zip(np.zeros(m), caps)),
        method="highs",
    )
    if not res.success:  # pragma: no cover - LP of this shape always solves
        raise FlowError(f"max-flow LP failed: {res.message}")
    return -res.fun, res.x


def lp_unsaturation_margin(ext: ExtendedGraph, *, max_margin: float = 1e6) -> float:
    """Definition 4's best ε, solved directly as one LP.

    Variables: per-arc flows ``f_j`` plus the scalar ``ε``.  Constraints:

    * conservation at every base node,
    * ``f_j ≤ cap_j`` on non-source arcs,
    * ``f_j = (1 + ε) · in(v)`` on each ``(s*, v)`` arc (saturation),
    * ``ε ≥ 0`` (capped at ``max_margin`` so unbounded-slack instances —
      no injections constrained by the graph — stay finite).

    Objective: maximise ε.  Returns 0.0 for saturated networks and a
    negative-free float otherwise; raises on infeasible networks (the LP
    has no solution with ε ≥ 0 there is *not* true — ε = 0 requires plain
    feasibility, so infeasibility surfaces as LP infeasibility).
    """
    problem = FlowProblem.from_extended(ext)
    m = problem.num_arcs
    tails = np.asarray(problem.tails)
    heads = np.asarray(problem.heads)
    caps = np.array([float(c) for c in problem.capacities])

    n_var = m + 1  # flows + epsilon
    eps_idx = m

    c = np.zeros(n_var)
    c[eps_idx] = -1.0  # maximise epsilon

    # conservation at base nodes only (s* and d* are the LP's terminals)
    interior = [v for v in range(problem.n) if v not in (problem.source, problem.sink)]
    a_eq = np.zeros((len(interior), n_var))
    for row, v in enumerate(interior):
        a_eq[row, np.nonzero(tails == v)[0]] -= 1.0
        a_eq[row, np.nonzero(heads == v)[0]] += 1.0
    b_eq = np.zeros(len(interior))

    # saturation of source arcs: f_j - in(v) * eps = in(v)
    src_rows = []
    src_rhs = []
    source_arcs = set()
    for j, (kind, ref) in enumerate(zip(ext.kinds, ext.refs)):
        if kind is ArcKind.SOURCE:
            source_arcs.add(j)
            rate = float(ext.in_rates[int(ref)])
            row = np.zeros(n_var)
            row[j] = 1.0
            row[eps_idx] = -rate
            src_rows.append(row)
            src_rhs.append(rate)
    if not src_rows:
        raise FlowError("margin undefined for a network with no injections")
    a_eq = np.vstack([a_eq, np.array(src_rows)]) if len(interior) else np.array(src_rows)
    b_eq = np.concatenate([b_eq, np.array(src_rhs)]) if len(interior) else np.array(src_rhs)

    bounds = []
    for j in range(m):
        if j in source_arcs:
            bounds.append((0.0, None))  # governed by the saturation equality
        else:
            bounds.append((0.0, caps[j]))
    bounds.append((0.0, max_margin))

    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if not res.success:
        raise FlowError(
            "unsaturation LP infeasible — the network is not feasible at all "
            "(Definition 3 fails)"
        )
    return float(res.x[eps_idx])
