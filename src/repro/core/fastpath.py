"""Pure-integer time-batched kernel for classical LGG runs.

On the classical model (exact injection, truthful revelation, ``R = 0``,
no losses / interference / topology dynamics, every node active) a run is
a completely deterministic integer recurrence, yet the stage pipeline pays
tens of microseconds per step shuffling numpy scaffolding through it.
This module runs the recurrence in plain Python integers instead:

* neighbour lists are pre-sorted **once** by the tie-break key (Algorithm 1
  orders ``Γ(u)`` by revealed queue, then by the pluggable tie key — a
  stable sort on the queue alone therefore reproduces the full composite
  order), and re-sorted per step only when the sender's packet budget
  actually truncates the eligible list;
* a run is a deterministic map of its boundary queue vector, so it is
  bounded exactly when that vector recurs.  Brent's cycle check saves the
  vector at steps 0, 1, 2, 4, ... and compares every later one with the
  last save; a match at step ``t`` against the save at ``s`` proves the
  run periodic with the minimal period ``t - s``, and the rest of the
  horizon is tiled from the last period instead of stepped.  The check
  costs one saved vector and one list comparison per step and never
  switches off; a divergent run simply never matches.

Bit-exactness against the stage pipeline is the contract: the differential
matrix in ``tests/numeric/test_fastpath.py`` asserts step-for-step
trajectory equality against the pipeline for single runs and ensembles.
One front end serves both: an eligible run of ``R`` replicas is fully
deterministic and replica-symmetric, so one kernel trajectory, booked into
every column of the engine's history, is the whole run.  Eligibility is
checked conservatively — any knob the kernel does not model routes the run
back to the pipeline (and ``SimulationConfig(numeric_fastpath=True)``
turns that silent fallback into an error for callers who *require* the
kernel).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.policies import LGGPolicy
from repro.core.tiebreak import TieBreak
from repro.errors import SimulationError
from repro.network.spec import RevelationPolicy
from repro.network.state import BIGINT_THRESHOLD
from repro.numeric import note_fastpath_steps

__all__ = [
    "ineligibility_reasons",
    "maybe_run",
]

_sumprod = getattr(math, "sumprod", None)
if _sumprod is None:  # pragma: no cover - Python < 3.12
    def _sumprod(p, q):
        return sum(a * b for a, b in zip(p, q))

_FAST_TIEBREAKS = (TieBreak.QUEUE_THEN_ID, TieBreak.QUEUE_THEN_REVERSED_ID)


# ----------------------------------------------------------------------
# eligibility
# ----------------------------------------------------------------------
def ineligibility_reasons(engine) -> list[str]:
    """Why a run cannot use the kernel (empty = it can).

    Besides the model knobs, the replicas must be *indistinguishable*: no
    loss or arrival process (the only randomness left after the knob
    checks) and identical starting queue vectors — then all ``R``
    trajectories coincide and one kernel run covers them.
    """
    from repro.arrivals.deterministic import DeterministicArrivals
    from repro.core.engine import Simulator
    from repro.core.ensemble import EnsembleSimulator

    spec, cfg = engine.spec, engine.config
    reasons = []
    if spec.retention != 0:
        reasons.append(f"retention R={spec.retention} (kernel models R=0)")
    if spec.revelation is not RevelationPolicy.TRUTHFUL:
        reasons.append(f"revelation policy {spec.revelation.value}")
    if not spec.exact_injection:
        reasons.append("pseudo-source (inexact) injection")
    if cfg.interference is not None:
        reasons.append("interference model")
    if cfg.topology is not None:
        reasons.append("topology schedule")
    if cfg.activation_prob != 1.0:
        reasons.append(f"activation_prob={cfg.activation_prob}")
    if cfg.record_events:
        reasons.append("per-step event records")
    if cfg.validate_every_step:
        reasons.append("per-step validation")
    if engine.trace is not None and engine.trace.enabled:
        reasons.append("tracing enabled")
    if type(engine) not in (Simulator, EnsembleSimulator):
        # subclasses (e.g. PacketSimulator) hang extra state off each
        # step or stage
        reasons.append(f"simulator subclass {type(engine).__name__}")
    policy = engine.policy
    if type(policy) is not LGGPolicy:
        reasons.append(f"policy {type(policy).__name__}")
    elif policy.tiebreak not in _FAST_TIEBREAKS:
        reasons.append(f"tie-break {policy.tiebreak.value}")
    if engine.losses is not None:
        reasons.append("loss model")
    arrivals = engine.arrivals
    if arrivals is not None and type(arrivals) is not DeterministicArrivals:
        reasons.append(f"arrival process {type(arrivals).__name__}")
    if not bool((engine.Q == engine.Q[0]).all()):
        reasons.append("replicas start from differing queue vectors")
    return reasons


# ----------------------------------------------------------------------
# the kernel
# ----------------------------------------------------------------------
def _presorted_neighbors(csr, reverse: bool) -> list[list[int]]:
    """Per-node receiver lists in tie-key order (one entry per half-edge)."""
    indptr = csr.indptr
    recv = csr.neighbors
    eids = csr.edge_ids
    stride = csr.num_edge_slots + 1
    nbrs: list[list[int]] = []
    for u in range(len(indptr) - 1):
        lo, hi = int(indptr[u]), int(indptr[u + 1])
        pairs = sorted(
            ((int(recv[i]) * stride + int(eids[i]), int(recv[i])) for i in range(lo, hi)),
            reverse=reverse,
        )
        nbrs.append([v for _, v in pairs])
    return nbrs


def _simulate(spec, csr, tiebreak, q0, steps: int, record_queues: bool):
    """Run ``steps`` classical LGG steps from ``q0`` in pure integers.

    Returns ``(q_final, inj_total, pots, tots, mxs, txs, dels, snaps,
    period)`` where the five series are per-step lists matching the
    trajectory's accounting (``lost`` is identically 0 and ``injected``
    identically ``inj_total`` on eligible runs), ``snaps`` is the optional
    list of post-step queue snapshots and ``period`` is the minimal period
    of the queue vector once it recurred (``None`` when it never did).
    """
    n = spec.n
    reverse = tiebreak is TieBreak.QUEUE_THEN_REVERSED_ID
    nbrs = _presorted_neighbors(csr, reverse)
    active = [u for u in range(n) if nbrs[u]]
    in_list = list(spec.in_rates.items())
    out_list = list(spec.out_rates.items())
    inj_total = sum(r for _, r in in_list)

    q = [int(x) for x in q0]
    pots: list[int] = []
    tots: list[int] = []
    mxs: list[int] = []
    txs: list[int] = []
    dels: list[int] = []
    snaps: Optional[list[np.ndarray]] = [] if record_queues else None

    # Brent: the boundary saved at step 0, 1, 2, 4, ... is compared with
    # every later boundary until the next save
    saved, saved_at, save_next = q[:], 0, 1
    period: Optional[int] = None
    stop = steps
    sumprod = _sumprod

    t = 0
    while t < stop:
        # injection: exactly in(v), every step (classical Section II)
        for v, r in in_list:
            q[v] += r
        # Algorithm 1 selection, applied synchronously
        delta = [0] * n
        tx = 0
        for u in active:
            qu = q[u]
            if qu <= 0:
                continue
            elig = [v for v in nbrs[u] if q[v] < qu]
            m = len(elig)
            if not m:
                continue
            if m > qu:
                # stable sort by revealed queue preserves the tie-key
                # pre-order, reproducing the pipeline's composite lexsort
                elig = sorted(elig, key=q.__getitem__)[:qu]
                m = qu
            delta[u] -= m
            for v in elig:
                delta[v] += 1
            tx += m
        if tx:
            q = [a + b for a, b in zip(q, delta)]
        # greedy extraction: min(out(v), q_v)
        dv = 0
        for v, r in out_list:
            qv = q[v]
            if qv > 0:
                e = r if r < qv else qv
                q[v] = qv - e
                dv += e
        pots.append(sumprod(q, q))
        tots.append(sum(q))
        mxs.append(max(q) if q else 0)
        txs.append(tx)
        dels.append(dv)
        if snaps is not None:
            snaps.append(np.array(q, dtype=np.int64))
        t += 1
        if period is None:
            if q == saved:
                # the step map is deterministic, so the run repeats its
                # last ``period`` steps from here on: step to a whole
                # number of periods before the horizon, tile the rest
                period = t - saved_at
                stop = t + (steps - t) % period
            elif t == save_next:
                saved, saved_at, save_next = q[:], t, 2 * t

    if period is not None:
        reps = (steps - stop) // period
        for series in (pots, tots, mxs, txs, dels):
            series.extend(series[-period:] * reps)
        if snaps is not None:
            snaps.extend(snaps[-period:] * reps)
    return q, inj_total, pots, tots, mxs, txs, dels, snaps, period


# ----------------------------------------------------------------------
# the engine front end
# ----------------------------------------------------------------------
def maybe_run(engine, steps: int) -> Optional[dict]:
    """Advance an engine by ``steps`` via the kernel if eligible.

    Mutates ``engine.Q`` / ``engine.history`` / ``engine.t`` exactly as
    ``steps`` pipeline iterations would (including
    :func:`network_state_rows`' int64-vs-bigint choice for ``P_t``) and
    returns what the run's ``sim.run`` span records of it:
    ``engine="kernel"``, plus ``period`` when the queue vector recurred
    and the rest of the horizon was tiled.  Returns ``None`` (and touches
    nothing) when the run is not kernel-eligible.
    """
    want = engine.config.numeric_fastpath
    if want is False or steps <= 0:
        return None
    reasons = ineligibility_reasons(engine)
    if reasons:
        if want is True:
            raise SimulationError(
                "numeric_fastpath=True but the run is not kernel-eligible: "
                + "; ".join(reasons)
            )
        return None
    history = engine.history
    q, inj_total, pots, tots, mxs, txs, dels, snaps, period = _simulate(
        engine.spec, engine._csr, engine.policy.tiebreak, engine.Q[0], steps,
        history.records_queues,
    )
    big = max(mxs) >= BIGINT_THRESHOLD
    history.extend({
        "potentials": np.array(pots, dtype=object if big else np.int64),
        "total_queued": tots,
        "max_queues": mxs,
        "injected": [inj_total] * steps,
        "transmitted": txs,
        "lost": [0] * steps,
        "delivered": dels,
    }, snaps)
    engine.Q[:] = q
    engine.t += steps
    note_fastpath_steps(steps)
    if period is None:
        return {"engine": "kernel"}
    return {"engine": "kernel", "period": period}
