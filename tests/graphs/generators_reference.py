"""Per-draw reference forms of the random generators that draw in bulk.

:func:`repro.graphs.generators.barabasi_albert`, ``watts_strogatz`` and
``connect_components`` draw through :func:`repro._rng.scalar_draws`;
``random_multigraph`` and the terminal rates of
:func:`repro.sweep.points.random_instance_spec` make one broadcast
``integers`` call; ``random_gnp`` decodes only its kept pair indices.
These are the loops they replaced, one numpy call per draw (and
``random_gnp`` over ``triu_indices``).  Production must build the same
graphs — edge ids, orientation, slot count — and leave a passed
Generator in the same state.
"""

from __future__ import annotations

import numpy as np

from repro._rng import as_generator, derive_seed
from repro.graphs.multigraph import MultiGraph


def random_gnp_reference(n, p, seed=None, *, ensure_connected=False):
    rng = as_generator(seed)
    tree = np.empty((0, 2), dtype=np.int64)
    if ensure_connected and n > 1:
        order = rng.permutation(n)
        tree = np.column_stack((order[1:], order[rng.integers(0, np.arange(1, n))]))
    edges = [tree]
    if p > 0:
        iu, jv = np.triu_indices(n, k=1)
        mask = rng.random(len(iu)) < p
        a, b = tree.min(axis=1), tree.max(axis=1)
        mask[a * (2 * n - a - 1) // 2 + b - a - 1] = False
        edges.append(np.column_stack((iu[mask], jv[mask])))
    return MultiGraph.from_edges(n, np.concatenate(edges))


def random_multigraph_reference(n, m, seed=None):
    rng = as_generator(seed)
    g = MultiGraph(n)
    for _ in range(m):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n - 1))
        if v >= u:
            v += 1
        g.add_edge(u, v)
    return g


def barabasi_albert_reference(n, m_attach, seed=None):
    rng = as_generator(seed)
    repeated: list[int] = []
    for leaf in range(1, m_attach + 1):
        repeated += (0, leaf)
    for new in range(m_attach + 1, n):
        targets: list[int] = []
        seen: set[int] = set()
        while len(targets) < m_attach:
            pick = repeated[int(rng.integers(0, len(repeated)))]
            if pick not in seen:
                seen.add(pick)
                targets.append(pick)
        for t in targets:
            repeated += (new, t)
    return MultiGraph.from_edges(n, np.array(repeated, dtype=np.int64).reshape(-1, 2))


def watts_strogatz_reference(n, k, beta, seed=None):
    rng = as_generator(seed)
    present: set[tuple[int, int]] = set()
    for u in range(n):
        for hop in range(1, k // 2 + 1):
            v = (u + hop) % n
            present.add((min(u, v), max(u, v)))
    edges = sorted(present)
    for idx, (u, v) in enumerate(edges):
        if beta > 0 and rng.random() < beta:
            for _ in range(4 * n):
                w = int(rng.integers(0, n))
                key = (min(u, w), max(u, w))
                if w != u and key not in present:
                    present.discard((u, v) if u < v else (v, u))
                    present.add(key)
                    edges[idx] = key
                    break
    return MultiGraph.from_edges(n, edges)


def connect_components_reference(g, seed=None):
    if g.n <= 1:
        return g
    rng = as_generator(seed)
    comps = g.components()
    giant = list(comps[0])
    for comp in comps[1:]:
        u = giant[int(rng.integers(0, len(giant)))]
        v = comp[int(rng.integers(0, len(comp)))]
        g.add_edge(u, v)
        giant.extend(comp)
    return g


def random_instance_spec_reference(params, seed):
    """``random_instance_spec`` with one ``integers`` call per terminal
    rate; the graph comes from the production family recipes."""
    from repro.errors import SweepError
    from repro.network import NetworkSpec
    from repro.sweep.points import _family_graph, _family_knobs, _param

    rng = as_generator(derive_seed(seed, "instance"))
    family = str(_param(params, "family", str, lambda: "gnp"))
    n = _param(params, "n", int, lambda: rng.integers(6, 14))
    if n < 2:
        raise SweepError(f"random instance needs n >= 2 nodes, got {n}")
    knobs = _family_knobs(family, n, params, rng)
    k_src = _param(params, "sources", int, lambda: rng.integers(1, 3))
    k_snk = _param(params, "sinks", int, lambda: rng.integers(1, 3))
    in_hi = _param(params, "in_rate", int, lambda: 2)
    out_hi = _param(params, "out_rate", int, lambda: 3)
    if in_hi < 1 or out_hi < 1:
        raise SweepError(
            f"rate ceilings must be >= 1, got in_rate={in_hi} out_rate={out_hi}"
        )
    if k_src < 1:
        raise SweepError(f"random instance needs sources >= 1, got {k_src}")
    if k_snk < 0:
        raise SweepError(f"random instance needs sinks >= 0, got {k_snk}")
    g = _family_graph(family, n, knobs, rng)
    n = g.n
    if k_src + k_snk > n:
        raise SweepError(f"cannot place {k_src} sources + {k_snk} sinks on {n} nodes")
    nodes = rng.permutation(n)
    in_rates = {int(nodes[i]): int(rng.integers(1, in_hi + 1)) for i in range(k_src)}
    out_rates = {int(nodes[-(j + 1)]): int(rng.integers(1, out_hi + 1))
                 for j in range(k_snk)}
    return NetworkSpec.classical(g, in_rates, out_rates)
