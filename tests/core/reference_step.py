"""A per-node reference stepper: the oracle for the stage pipeline.

Section II's synchronous step for one run, written as plain loops over
nodes and transmissions, with Algorithm 1 taken from its line-by-line
transcription (:func:`tests.core.lgg_reference.lgg_select_reference`).
It shares no code with :mod:`repro.core.pipeline`; what it shares is the
*draw order*, the contract that makes a seeded run reproducible.  Per
step, from the run's one generator:

1. the arrival process's ``sample`` (classical runs draw nothing);
2. ``RANDOM`` revelation: one ``integers`` call over the lying terminals,
   only when there are any;
3. a ``QUEUE_THEN_RANDOM`` tie-break: one permutation;
4. ``activation_prob < 1``: one ``random(n)``, only when something was
   selected;
5. the loss model's ``sample`` over the transmissions, only when there
   are any;
6. ``RANDOM`` extraction: one ``random(n)``, every step.

Transmissions are kept in selection order (sender, revealed queue, tie
key) throughout, since draws 4–5 are applied in that order.
"""

from __future__ import annotations

import numpy as np

from repro._rng import as_generator
from repro.core.engine import ExtractionMode, LinkCapacityMode
from repro.network.spec import RevelationPolicy
from tests.core.lgg_reference import lgg_select_reference

SERIES = ("potentials", "total_queued", "max_queues",
          "injected", "transmitted", "lost", "delivered")


def _boundary(out: dict, q: list[int]) -> None:
    out["potentials"].append(sum(x * x for x in q))
    out["total_queued"].append(sum(q))
    out["max_queues"].append(max(q) if q else 0)


def _reveal(spec, q, rng) -> list[int]:
    ret, pol = spec.retention, spec.revelation
    if pol is RevelationPolicy.TRUTHFUL or ret == 0:
        return list(q)
    revealed = list(q)
    terminals = set(spec.terminals)
    liars = [v for v in range(spec.n) if v in terminals and q[v] <= ret]
    if not liars:
        return revealed
    if pol is RevelationPolicy.RANDOM:
        values = rng.integers(0, ret + 1, size=len(liars)).tolist()
    else:
        values = [ret if pol is RevelationPolicy.ALWAYS_R else 0] * len(liars)
    for v, x in zip(liars, values):
        revealed[v] = x
    return revealed


def _link_capacity(sends, q, mode) -> list:
    """Per contested link (or direction), keep the sender with the larger
    queue, then the lower id, then the earlier transmission."""
    def key(e, u, v):
        return (e, u < v) if mode is LinkCapacityMode.PER_DIRECTION else e

    best: dict = {}
    for i, (e, u, v) in enumerate(sends):
        rank = (-q[u], u, i)
        k = key(e, u, v)
        if k not in best or rank < best[k]:
            best[k] = rank
    winners = {rank[2] for rank in best.values()}
    return [s for i, s in enumerate(sends) if i in winners]


def _extract(spec, q, mode, rng) -> list[int]:
    out = spec.out_vector().tolist()
    ret = spec.retention
    greedy = [min(o, max(x, 0)) for o, x in zip(out, q)]
    if mode is ExtractionMode.GREEDY or ret == 0:
        return greedy
    mandated = [min(o, max(x - ret, 0)) for o, x in zip(out, q)]
    if mode is ExtractionMode.MANDATORY_MINIMUM:
        return mandated
    draws = rng.random(spec.n)
    ext = []
    for v in range(spec.n):
        span = greedy[v] - mandated[v]
        ext.append(mandated[v] + min(int(draws[v] * (span + 1)), span))
    return ext


def reference_run(spec, config, steps: int, *, arrivals=None, losses=None,
                  initial_queues=None) -> dict:
    """Run ``steps`` steps of one replica; returns the seven trajectory
    series (``potentials`` … ``delivered``) plus ``final_queues``.

    ``arrivals``/``losses`` are this replica's own process instances
    (``None``: exact ``in(v)`` injection, no losses); ``config`` supplies
    ``seed``, ``tiebreak``, ``extraction``, ``link_capacity`` and
    ``activation_prob``.
    """
    rng = as_generator(config.seed)
    n = spec.n
    in_vec = spec.in_vector().tolist()
    q = [0] * n if initial_queues is None else [int(x) for x in initial_queues]
    out = {name: [] for name in SERIES}
    _boundary(out, q)
    for t in range(steps):
        inj = in_vec if arrivals is None else arrivals.sample(t, rng).tolist()
        q = [a + b for a, b in zip(q, inj)]
        revealed = _reveal(spec, q, rng)
        sends = lgg_select_reference(
            spec.graph, np.array(q, dtype=np.int64), np.array(revealed, dtype=np.int64),
            tiebreak=config.tiebreak, rng=rng,
        )
        if config.activation_prob < 1.0 and sends:
            awake = rng.random(n) < config.activation_prob
            sends = [s for s in sends if awake[s[1]]]
        sends = _link_capacity(sends, q, config.link_capacity)
        lost = [False] * len(sends)
        if losses is not None and sends:
            e, u, v = (np.array(col, dtype=np.int64) for col in zip(*sends))
            lost = [bool(x) for x in losses.sample(e, u, v, t, rng)]
        for (_, u, v), dropped in zip(sends, lost):
            q[u] -= 1
            if not dropped:
                q[v] += 1
        ext = _extract(spec, q, config.extraction, rng)
        q = [a - b for a, b in zip(q, ext)]
        _boundary(out, q)
        out["injected"].append(sum(inj))
        out["transmitted"].append(len(sends))
        out["lost"].append(sum(lost))
        out["delivered"].append(sum(ext))
    out["final_queues"] = q
    return out
