"""Per-row reference loops for the geometric link rule.

These are the row-by-row forms of :func:`repro.graphs.generators.radius_edges`
and of the closest cross-component pair search in
:func:`repro.graphs.generators.random_geometric` (``ensure_connected``).
Production runs one blocked vectorised pass over all pairs; these loops
are the oracle it must match bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro._rng import as_generator
from repro.graphs.multigraph import MultiGraph


def radius_edges_reference(points, radius: float) -> list[tuple[int, int]]:
    """Pairs ``(i, j)``, ``i < j``, with ``|p_j - p_i|² <= radius²``, sorted."""
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    r2 = radius * radius
    out: list[tuple[int, int]] = []
    for i in range(n - 1):
        d2 = np.sum((pts[i + 1 :] - pts[i]) ** 2, axis=1)
        for j in np.nonzero(d2 <= r2)[0]:
            out.append((i, int(i + 1 + j)))
    return out


def closest_cross_pair_reference(pts: np.ndarray, label: np.ndarray):
    """The lexicographically smallest ``(d², i, j)`` over pairs ``i < j``
    in different components (``label[i] != label[j]``), or ``None``."""
    n = len(pts)
    best = None
    for i in range(n - 1):
        d2 = np.sum((pts[i + 1 :] - pts[i]) ** 2, axis=1)
        cross = np.nonzero(label[i + 1 :] != label[i])[0]
        if len(cross):
            j = cross[int(np.argmin(d2[cross]))]
            cand = (float(d2[j]), i, int(i + 1 + j))
            if best is None or cand < best:
                best = cand
    return best


def random_geometric_reference(n: int, radius: float, seed,
                               *, ensure_connected: bool = False) -> MultiGraph:
    """:func:`~repro.graphs.generators.random_geometric` built from the loops
    above: same draws, same edge order, same bridges."""
    pts = as_generator(seed).random((n, 2))
    g = MultiGraph(n)
    for u, v in radius_edges_reference(pts, radius):
        g.add_edge(u, v)
    if ensure_connected and n > 1:
        while not g.is_connected():
            label = np.empty(n, dtype=np.int64)
            for c, comp in enumerate(g.components()):
                label[comp] = c
            _, i, j = closest_cross_pair_reference(pts, label)
            g.add_edge(i, j)
    return g
