"""Topology generators used across the experiments.

Each generator returns a bare :class:`~repro.graphs.multigraph.MultiGraph`;
sources/sinks/rates are layered on top by :mod:`repro.network.spec`.  Where
an experiment needs a canonical source/sink placement, companion helpers
here return a suggested ``(graph, sources, sinks)`` triple.

All stochastic generators take an explicit ``seed`` and are reproducible.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

import numpy as np

from repro._rng import SeedLike, as_generator, scalar_draws
from repro.errors import GraphError
from repro.graphs.multigraph import MultiGraph

__all__ = [
    "path",
    "cycle",
    "complete",
    "star",
    "grid",
    "torus",
    "binary_tree",
    "random_gnp",
    "random_regular",
    "random_geometric",
    "random_multigraph",
    "barbell",
    "wheel",
    "hypercube",
    "caterpillar",
    "random_tree",
    "ring_of_cliques",
    "bottleneck_gadget",
    "parallel_paths",
    "theta_graph",
    "paper_figure_graph",
    "barabasi_albert",
    "watts_strogatz",
    "kronecker",
    "configuration_model",
    "erdos_renyi_connected",
    "radius_edges",
    "radius_hits",
    "radius_keys",
    "connect_components",
]


def path(n: int) -> MultiGraph:
    """Path on ``n`` nodes: ``0 - 1 - ... - n-1``."""
    _require(n >= 1, f"path needs >= 1 node, got {n}")
    return MultiGraph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> MultiGraph:
    """Cycle on ``n >= 3`` nodes."""
    _require(n >= 3, f"cycle needs >= 3 nodes, got {n}")
    g = path(n)
    g.add_edge(n - 1, 0)
    return g


def complete(n: int) -> MultiGraph:
    """Complete graph ``K_n``."""
    _require(n >= 1, f"complete graph needs >= 1 node, got {n}")
    return MultiGraph.from_edges(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def star(leaves: int) -> MultiGraph:
    """Star: node 0 is the hub, nodes ``1..leaves`` are the spokes."""
    _require(leaves >= 1, f"star needs >= 1 leaf, got {leaves}")
    return MultiGraph.from_edges(leaves + 1, ((0, i) for i in range(1, leaves + 1)))


def grid(rows: int, cols: int) -> MultiGraph:
    """``rows x cols`` 4-neighbour mesh; node ``(r, c)`` is ``r * cols + c``."""
    _require(rows >= 1 and cols >= 1, f"grid needs positive dims, got {rows}x{cols}")
    g = MultiGraph(rows * cols)
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                g.add_edge(v, v + 1)
            if r + 1 < rows:
                g.add_edge(v, v + cols)
    return g


def torus(rows: int, cols: int) -> MultiGraph:
    """Grid with wrap-around links in both dimensions.

    Wrap links that would duplicate a mesh link (2-long dimensions) are
    still added — this is a *multigraph*, and the doubled capacity is the
    honest reading of a 2-cycle torus.
    """
    _require(rows >= 2 and cols >= 2, f"torus needs dims >= 2, got {rows}x{cols}")
    g = grid(rows, cols)
    for r in range(rows):
        g.add_edge(r * cols + (cols - 1), r * cols)
    for c in range(cols):
        g.add_edge((rows - 1) * cols + c, c)
    return g


def binary_tree(depth: int) -> MultiGraph:
    """Complete binary tree of the given depth (depth 0 = single node)."""
    _require(depth >= 0, f"depth must be >= 0, got {depth}")
    n = 2 ** (depth + 1) - 1
    g = MultiGraph(n)
    for i in range(n):
        left, right = 2 * i + 1, 2 * i + 2
        if left < n:
            g.add_edge(i, left)
        if right < n:
            g.add_edge(i, right)
    return g


def random_gnp(n: int, p: float, seed: SeedLike = None, *, ensure_connected: bool = False) -> MultiGraph:
    """Erdős–Rényi ``G(n, p)``.

    With ``ensure_connected`` a spanning random tree is added first so the
    result is always connected (useful for routing experiments where an
    isolated sink makes every arrival rate infeasible).
    """
    _require(n >= 1, f"G(n,p) needs >= 1 node, got {n}")
    _require(0.0 <= p <= 1.0, f"p must be in [0,1], got {p}")
    rng = as_generator(seed)
    tree = np.empty((0, 2), dtype=np.int64)
    if ensure_connected and n > 1:
        # node order[i] hangs off a uniform earlier node order[j], j < i
        order = rng.permutation(n)
        tree = np.column_stack((order[1:], order[rng.integers(0, np.arange(1, n))]))
    edges = [tree]
    if p > 0:
        # pair (a, b), a < b, sits at index starts[a] + b - a - 1 of the
        # row-major upper triangle
        starts = np.arange(n)
        starts = starts * (2 * n - starts - 1) // 2
        mask = rng.random(n * (n - 1) // 2) < p
        # the tree's pairs are edges already
        a, b = tree.min(axis=1), tree.max(axis=1)
        mask[starts[a] + b - a - 1] = False
        kept = np.flatnonzero(mask)
        rows = np.searchsorted(starts, kept, side="right") - 1
        edges.append(np.column_stack((rows, kept - starts[rows] + rows + 1)))
    return MultiGraph.from_edges(n, np.concatenate(edges))


def random_regular(n: int, d: int, seed: SeedLike = None, *, max_tries: int = 200) -> MultiGraph:
    """Random ``d``-regular simple graph via the pairing model with retries."""
    _require(n >= 1 and d >= 0, f"bad (n, d) = ({n}, {d})")
    _require(n * d % 2 == 0, f"n*d must be even, got n={n}, d={d}")
    _require(d < n, f"need d < n for a simple graph, got d={d}, n={n}")
    rng = as_generator(seed)
    stubs = np.repeat(np.arange(n), d)
    for _ in range(max_tries):
        perm = rng.permutation(len(stubs))
        shuffled = stubs[perm]
        pairs = shuffled.reshape(-1, 2)
        ok = True
        seen: set[tuple[int, int]] = set()
        for u, v in pairs:
            a, b = int(min(u, v)), int(max(u, v))
            if a == b or (a, b) in seen:
                ok = False
                break
            seen.add((a, b))
        if ok:
            return MultiGraph.from_edges(n, pairs)
    raise GraphError(f"failed to sample a simple {d}-regular graph on {n} nodes in {max_tries} tries")


#: Pair evaluations (point set × pair) per block of the all-pairs distance
#: pass behind :func:`radius_edges`.  Temporaries stay near 2 MB whatever
#: the point count or stack depth, never ``n²``- or ``S·n²``-sized; of
#: 2^14–2^17, 2^16 ran fastest on a 2-core x86_64 host (larger blocks fall
#: out of cache).
PAIR_BLOCK = 1 << 16


def _distance_blocks(stack: np.ndarray, per: int):
    """Squared distances of the pairs ``i < j`` in every point set of an
    ``(S, n, 2)`` stack, a block of rows at a time.

    Yields ``(i0, d2, upper)``: ``d2[s, a, c]`` is ``|p_j - p_i|²`` in point
    set ``s`` for ``i = i0 + a`` and ``j = i0 + 1 + c``, and the ``(b, m)``
    mask ``upper`` marks the entries with ``j > i``.  A block holds at most
    ``per`` entries (one row at least).  The arithmetic is the link rule's
    ``np.sum((p[j] - p[i]) ** 2)``: ``dx² + dy²``, bit for bit.
    """
    sets, n = stack.shape[:2]
    x = np.ascontiguousarray(stack[..., 0])
    y = np.ascontiguousarray(stack[..., 1])
    i0 = 0
    while i0 < n - 1:
        m = n - 1 - i0
        b = min(m, max(1, per // (max(sets, 1) * m)))
        d2 = x[:, None, i0 + 1:] - x[:, i0:i0 + b, None]
        d2 *= d2
        dy = y[:, None, i0 + 1:] - y[:, i0:i0 + b, None]
        dy *= dy
        d2 += dy
        yield i0, d2, np.arange(m) >= np.arange(b)[:, None]
        i0 += b


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    _require(pts.ndim >= 2 and pts.shape[-1] == 2,
             f"points must have shape (..., n, 2), got {pts.shape}")
    return pts


def radius_hits(points, radius: float):
    """The geometric link rule on a ``(…, n, 2)`` stack of point sets, a
    block of rows at a time.

    Yields ``(i0, hit)`` per block, in row order: ``hit[s, a, c]`` says
    whether the pair ``(i0 + a, i0 + 1 + c)`` links in point set ``s``
    (leading axes flattened in C order); entries with ``c < a`` are never
    set.  A pair links when its squared distance is ``<= radius²``
    (inclusive).  A block holds at most :data:`PAIR_BLOCK` entries (one
    row at least).
    """
    pts = _as_points(points)
    _require(radius > 0, f"radius must be positive, got {radius}")
    n = pts.shape[-2]
    stack = pts.reshape(math.prod(pts.shape[:-2]), n, 2)
    r2 = radius * radius
    for i0, d2, upper in _distance_blocks(stack, PAIR_BLOCK):
        yield i0, (d2 <= r2) & upper


def radius_keys(points, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """The geometric link rule on a ``(…, n, 2)`` stack of point sets, as
    flat integer arrays.

    Returns ``(keys, offsets)``.  Point set ``s`` (leading axes flattened
    in C order) links the pairs ``keys[offsets[s]:offsets[s + 1]]``,
    ascending, each ``(u, v)`` with ``u < v`` stored as ``u * n + v``.  A
    pair links when its squared distance is ``<= radius²`` (inclusive).
    Storage is 8 bytes per link plus 8 per point set.
    """
    pts = _as_points(points)
    n = pts.shape[-2]
    sets = math.prod(pts.shape[:-2])
    owners: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    keys: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    for i0, hit in radius_hits(pts, radius):
        s, a, c = np.nonzero(hit)
        owners.append(s)
        keys.append((i0 + a) * n + (i0 + 1 + c))
    owner = np.concatenate(owners)
    # blocks run in row order, so a stable sort by point set keeps each
    # set's keys ascending
    flat = np.concatenate(keys)[np.argsort(owner, kind="stable")]
    offsets = np.zeros(sets + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=sets), out=offsets[1:])
    return flat, offsets


def radius_edges(points, radius: float):
    """The geometric link rule as pair lists: node pairs within Euclidean
    distance ``radius`` (inclusive), as sorted ``(u, v)`` pairs with
    ``u < v``.  :func:`random_geometric` reads the flat keys of
    :func:`radius_keys` instead, and the mobility layer
    (:mod:`repro.mobility`) the hits of :func:`radius_hits`.

    ``points`` is one ``(n, 2)`` point set, or a ``(…, n, 2)`` stack of
    them; a stack gives nested lists, one pair list per point set.  One
    blocked pass over all pairs (:func:`radius_keys`) does the work.
    """
    pts = _as_points(points)
    keys, offsets = radius_keys(pts, radius)
    u, v = np.divmod(keys, max(pts.shape[-2], 1))
    pairs = list(zip(u.tolist(), v.tolist()))
    bounds = offsets.tolist()
    lists = [pairs[a:b] for a, b in zip(bounds, bounds[1:])]
    return _nest(lists, pts.shape[:-2])


def _nest(items: list, shape: tuple) -> list:
    """Regroup a flat per-point-set list along the stack's leading axes."""
    if not shape:
        return items[0]
    size = len(items) // shape[0] if shape[0] else 0
    return [_nest(items[k * size:(k + 1) * size], shape[1:]) for k in range(shape[0])]


def random_geometric(
    n: int, radius: float, seed: SeedLike = None, *, ensure_connected: bool = False
) -> MultiGraph:
    """Random geometric graph on the unit square (wireless-style topology).

    With ``ensure_connected`` (parity with :func:`random_gnp`), components
    are stitched together by bridging the geometrically *closest* pair of
    nodes across components — the natural repair for a radio topology, and
    the standard footgun guard for routing experiments where a disconnected
    initial placement makes every arrival rate infeasible.
    """
    _require(n >= 1, f"need >= 1 node, got {n}")
    _require(radius > 0, f"radius must be positive, got {radius}")
    rng = as_generator(seed)
    pts = rng.random((n, 2))
    keys, _ = radius_keys(pts, radius)
    g = MultiGraph.from_edges(n, np.column_stack(np.divmod(keys, n)))
    if ensure_connected and n > 1:
        while len(comps := g.components()) > 1:
            label = np.empty(n, dtype=np.int64)
            for c, comp in enumerate(comps):
                label[comp] = c
            # the lexicographically smallest (d², i, j) over cross pairs:
            # argmin keeps a block's first (row-major) pair, `<` the first block
            best = None
            for i0, d2, upper in _distance_blocks(pts[None], PAIR_BLOCK):
                d2 = d2[0].ravel()
                cross = np.flatnonzero(
                    upper & (label[i0:i0 + len(upper), None] != label[None, i0 + 1:])
                )
                if len(cross):
                    k = int(cross[np.argmin(d2[cross])])
                    a, c = divmod(k, upper.shape[1])
                    cand = (float(d2[k]), i0 + a, i0 + 1 + c)
                    if best is None or cand < best:
                        best = cand
            assert best is not None  # disconnected => a cross pair exists
            g.add_edge(best[1], best[2])
    return g


def random_multigraph(n: int, m: int, seed: SeedLike = None) -> MultiGraph:
    """``m`` edges drawn uniformly over node pairs, parallel edges kept."""
    _require(n >= 2, f"need >= 2 nodes, got {n}")
    _require(m >= 0, f"need >= 0 edges, got {m}")
    rng = as_generator(seed)
    # one broadcast draw makes the draws of a per-edge loop, in its order:
    # u among n nodes, then v among the other n - 1
    uv = rng.integers(0, np.tile((n, n - 1), m)).reshape(m, 2)
    uv[:, 1] += uv[:, 1] >= uv[:, 0]
    return MultiGraph.from_edges(n, uv)


def barbell(clique: int, bridge: int) -> MultiGraph:
    """Two ``K_clique`` cliques joined by a path of ``bridge`` interior nodes.

    The bridge is the canonical *interior min cut* used by the Section V-C
    decomposition experiments (E7).
    """
    _require(clique >= 2, f"cliques need >= 2 nodes, got {clique}")
    _require(bridge >= 0, f"bridge length must be >= 0, got {bridge}")
    n = 2 * clique + bridge
    g = MultiGraph(n)
    for i in range(clique):
        for j in range(i + 1, clique):
            g.add_edge(i, j)
            g.add_edge(clique + bridge + i, clique + bridge + j)
    chain = [clique - 1] + [clique + k for k in range(bridge)] + [clique + bridge]
    for a, b in zip(chain, chain[1:]):
        g.add_edge(a, b)
    return g


def wheel(spokes: int) -> MultiGraph:
    """Wheel: a ``spokes``-cycle (nodes ``1..spokes``) plus hub node 0."""
    _require(spokes >= 3, f"wheel needs >= 3 spokes, got {spokes}")
    g = MultiGraph(spokes + 1)
    for i in range(1, spokes + 1):
        g.add_edge(0, i)
        g.add_edge(i, 1 + (i % spokes))
    return g


def hypercube(dim: int) -> MultiGraph:
    """``dim``-dimensional hypercube ``Q_dim`` (node ids = bit patterns)."""
    _require(0 <= dim <= 16, f"dimension must be in [0, 16], got {dim}")
    n = 1 << dim
    g = MultiGraph(n)
    for v in range(n):
        for b in range(dim):
            w = v ^ (1 << b)
            if w > v:
                g.add_edge(v, w)
    return g


def caterpillar(spine: int, legs_per_node: int) -> MultiGraph:
    """Caterpillar tree: a ``spine``-path with ``legs_per_node`` leaves each.

    Spine nodes are ``0..spine-1``; leaves follow in spine order.
    """
    _require(spine >= 1, f"spine needs >= 1 node, got {spine}")
    _require(legs_per_node >= 0, f"legs must be >= 0, got {legs_per_node}")
    g = path(spine)
    for v in range(spine):
        for _ in range(legs_per_node):
            (leaf,) = g.add_nodes(1)
            g.add_edge(v, leaf)
    return g


def random_tree(n: int, seed: SeedLike = None) -> MultiGraph:
    """Uniform random labelled tree (random Prüfer sequence)."""
    _require(n >= 1, f"need >= 1 node, got {n}")
    if n <= 2:
        return path(n)
    rng = as_generator(seed)
    prufer = rng.integers(0, n, size=n - 2)
    degree = np.ones(n, dtype=np.int64)
    for v in prufer:
        degree[v] += 1
    g = MultiGraph(n)
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in prufer:
        leaf = heapq.heappop(leaves)
        g.add_edge(leaf, int(v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, int(v))
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    g.add_edge(u, w)
    return g


def ring_of_cliques(cliques: int, clique_size: int) -> MultiGraph:
    """``cliques`` copies of ``K_clique_size`` joined in a ring by single links.

    Each single inter-clique link is a width-1 cut — a topology with many
    interior min cuts, useful for the Section V machinery.
    """
    _require(cliques >= 3, f"need >= 3 cliques, got {cliques}")
    _require(clique_size >= 2, f"cliques need >= 2 nodes, got {clique_size}")
    n = cliques * clique_size
    g = MultiGraph(n)
    for c in range(cliques):
        base = c * clique_size
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                g.add_edge(base + i, base + j)
    for c in range(cliques):
        a = c * clique_size + (clique_size - 1)
        b = ((c + 1) % cliques) * clique_size
        g.add_edge(a, b)
    return g


def bottleneck_gadget(width_in: int, width_out: int, bottleneck: int) -> tuple[MultiGraph, list[int], list[int]]:
    """Layered gadget with a controllable min cut.

    Layout: ``width_in`` entry nodes, all joined to a left hub, ``bottleneck``
    parallel edges from the left hub to the right hub, right hub joined to
    ``width_out`` exit nodes.  The max source-to-sink flow is exactly
    ``min(width_in, bottleneck, width_out)`` per step when every entry node
    is a unit source and every exit node a unit sink.

    Returns ``(graph, entry_nodes, exit_nodes)``.
    """
    _require(width_in >= 1 and width_out >= 1 and bottleneck >= 1, "all widths must be >= 1")
    n = width_in + width_out + 2
    g = MultiGraph(n)
    left_hub = width_in
    right_hub = width_in + 1
    entries = list(range(width_in))
    exits = [width_in + 2 + k for k in range(width_out)]
    for v in entries:
        g.add_edge(v, left_hub)
    for _ in range(bottleneck):
        g.add_edge(left_hub, right_hub)
    for v in exits:
        g.add_edge(right_hub, v)
    return g, entries, exits


def parallel_paths(k: int, length: int) -> tuple[MultiGraph, int, int]:
    """``k`` disjoint paths of the given ``length`` sharing endpoints.

    Returns ``(graph, source_node, sink_node)``.  Max flow between the
    endpoints is ``k``; queue gradients build independently along each path,
    which makes the Property 1/2 certificates easy to visualise.
    """
    _require(k >= 1, f"need >= 1 path, got {k}")
    _require(length >= 1, f"paths need length >= 1, got {length}")
    # nodes: 0 = source endpoint, 1 = sink endpoint, then interior nodes
    n = 2 + k * (length - 1)
    g = MultiGraph(n)
    nxt = 2
    for _ in range(k):
        prev = 0
        for _ in range(length - 1):
            g.add_edge(prev, nxt)
            prev = nxt
            nxt += 1
        g.add_edge(prev, 1)
    return g, 0, 1


def theta_graph(lengths: Sequence[int]) -> tuple[MultiGraph, int, int]:
    """Generalised theta graph: internally disjoint paths of given lengths
    between two poles.  ``lengths[i] == 1`` contributes a parallel edge."""
    _require(len(lengths) >= 1, "need at least one path")
    g = MultiGraph(2)
    for L in lengths:
        _require(L >= 1, f"path lengths must be >= 1, got {L}")
        prev = 0
        for _ in range(L - 1):
            (new,) = g.add_nodes(1)
            g.add_edge(prev, new)
            prev = new
        g.add_edge(prev, 1)
    return g, 0, 1


def paper_figure_graph() -> tuple[MultiGraph, list[int], list[int]]:
    """A small S-D multigraph in the spirit of the paper's Fig. 1.

    Eight nodes, two sources, two sinks, one parallel edge, and an interior
    bottleneck; used by the figure-construction benches (F1–F4).
    Returns ``(graph, sources, sinks)``.
    """
    # 0, 1: sources    6, 7: sinks     2..5: relay mesh
    g = MultiGraph(8)
    g.add_edge(0, 2)
    g.add_edge(0, 3)
    g.add_edge(1, 3)
    g.add_edge(1, 3)  # parallel edge — it's a multigraph
    g.add_edge(2, 4)
    g.add_edge(3, 4)
    g.add_edge(3, 5)
    g.add_edge(4, 5)
    g.add_edge(4, 6)
    g.add_edge(5, 7)
    g.add_edge(5, 6)
    return g, [0, 1], [6, 7]


def barabasi_albert(n: int, m_attach: int, seed: SeedLike = None) -> MultiGraph:
    """Barabási–Albert preferential attachment (APGL's generator family).

    Starts from a star on ``m_attach + 1`` nodes (so every node has
    positive degree from the outset); each subsequent node attaches to
    ``m_attach`` *distinct* existing nodes sampled proportionally to
    degree.  Connected by construction; the result is a simple graph.
    """
    _require(m_attach >= 1, f"need m_attach >= 1, got {m_attach}")
    _require(n >= m_attach + 1,
             f"need n >= m_attach + 1 nodes, got n={n}, m_attach={m_attach}")
    _, integers = scalar_draws(as_generator(seed))
    # the edge list flattened, one entry per half-edge: sampling uniformly
    # from it is degree-biased.  It starts as the star on nodes
    # 0..m_attach with hub 0.
    repeated: list[int] = []
    for leaf in range(1, m_attach + 1):
        repeated += (0, leaf)
    for new in range(m_attach + 1, n):
        half_edges = len(repeated)
        # distinct picks in the order first drawn (a dict keeps that order)
        targets: dict[int, None] = {}
        while len(targets) < m_attach:
            targets[repeated[integers(half_edges)]] = None
        for t in targets:
            repeated += (new, t)
    return MultiGraph.from_edges(n, np.array(repeated, dtype=np.int64).reshape(-1, 2))


def watts_strogatz(n: int, k: int, beta: float, seed: SeedLike = None) -> MultiGraph:
    """Watts–Strogatz small world: ring lattice plus random rewiring.

    Each node starts linked to its ``k / 2`` nearest neighbours on each
    side (``k`` even, ``k < n``); every lattice edge is rewired with
    probability ``beta`` to a uniform non-duplicate, non-loop endpoint.
    Edge count is exactly ``n * k / 2`` for every ``beta``.
    """
    _require(n >= 3, f"need >= 3 nodes, got {n}")
    _require(k >= 2 and k % 2 == 0, f"k must be a positive even integer, got {k}")
    _require(k < n, f"need k < n, got k={k}, n={n}")
    _require(0.0 <= beta <= 1.0, f"beta must be in [0, 1], got {beta}")
    n = operator.index(n)  # the draws' bound must be a Python int
    # the ring lattice in sorted order: a pair (u, v), u < v, is a lattice
    # edge when v - u or n - (v - u) is at most k/2
    hops = (*range(1, k // 2 + 1), *range(n - k // 2, n))
    edges = [(u, u + h) for u in range(n) for h in hops if u + h < n]
    if beta > 0:
        random, integers = scalar_draws(as_generator(seed))
        present = set(edges)
        for idx, (u, v) in enumerate(edges):
            if random() < beta:
                # rewire the far endpoint, keeping u; reject loops/duplicates
                for _ in range(4 * n):
                    w = integers(n)
                    key = (u, w) if u < w else (w, u)
                    if w != u and key not in present:
                        present.discard((u, v))
                        present.add(key)
                        edges[idx] = key
                        break
    return MultiGraph.from_edges(n, np.array(edges, dtype=np.int64))


#: Default Kronecker initiator: a 3-node path with self-loops — the
#: classic seed whose powers produce hierarchical, heavy-tailed meshes.
KRONECKER_INITIATOR = ((1, 1, 0), (1, 1, 1), (0, 1, 1))


def kronecker(power: int, initiator: Sequence[Sequence[int]] = KRONECKER_INITIATOR) -> MultiGraph:
    """Deterministic Kronecker-power graph (APGL's ``KroneckerGenerator``).

    The adjacency of the result is the ``power``-fold Kronecker product of
    the 0/1 ``initiator`` matrix (symmetrised; self-loops in the initiator
    keep the product connected and are dropped from the final graph).
    Node count is ``k ** power`` for a ``k × k`` initiator.  Fully
    deterministic — the exact-regression workhorse of the family tests.
    """
    _require(power >= 1, f"need power >= 1, got {power}")
    base = np.asarray(initiator, dtype=np.int64)
    _require(base.ndim == 2 and base.shape[0] == base.shape[1] and base.shape[0] >= 2,
             f"initiator must be a square matrix of size >= 2, got {base.shape}")
    _require(bool(((base == 0) | (base == 1)).all()), "initiator entries must be 0/1")
    base = ((base + base.T) > 0).astype(np.int64)  # symmetrise
    mat = base
    for _ in range(power - 1):
        mat = np.kron(mat, base)
    iu, jv = np.nonzero(np.triu(mat, k=1))
    return MultiGraph.from_edges(mat.shape[0], np.column_stack((iu, jv)))


def configuration_model(
    degrees: Sequence[int], seed: SeedLike = None, *, max_tries: int = 200
) -> MultiGraph:
    """Configuration model: a uniform pairing of degree stubs.

    Parallel edges are *kept* — this is a multigraph library and parallel
    links mean doubled capacity, the honest reading — but self-loops are
    rejected (a node transmitting to itself has no meaning in the model),
    so stub pairings are resampled until loop-free.  The degree sum must
    be even; the resulting edge count is exactly ``sum(degrees) / 2``.
    """
    degs = [int(d) for d in degrees]
    _require(len(degs) >= 2, f"need >= 2 nodes, got {len(degs)}")
    _require(all(d >= 0 for d in degs), f"degrees must be >= 0, got {degs}")
    total = sum(degs)
    _require(total % 2 == 0, f"degree sum must be even, got {total}")
    rng = as_generator(seed)
    stubs = np.repeat(np.arange(len(degs)), degs)
    for _ in range(max_tries):
        pairs = stubs[rng.permutation(len(stubs))].reshape(-1, 2)
        if len(pairs) == 0 or (pairs[:, 0] != pairs[:, 1]).all():
            return MultiGraph.from_edges(len(degs), pairs)
    raise GraphError(
        f"failed to sample a loop-free stub pairing in {max_tries} tries "
        f"(degree sequence too concentrated?)"
    )


def erdos_renyi_connected(n: int, seed: SeedLike = None, *, max_tries: int = 50) -> MultiGraph:
    """Erdős–Rényi at ``p = 2 ln(n) / n`` — the "most likely connected"
    recipe (cs168 routing) — resampled until actually connected.

    Falls back to ``random_gnp(..., ensure_connected=True)`` at the same
    ``p`` if ``max_tries`` samples all come out disconnected (vanishingly
    rare at this density, but the guarantee should not be probabilistic).
    """
    _require(n >= 2, f"need >= 2 nodes, got {n}")
    p = min(1.0, 2.0 * math.log(n) / n)
    rng = as_generator(seed)
    for _ in range(max_tries):
        g = random_gnp(n, p, seed=int(rng.integers(0, 2**31 - 1)))
        if g.is_connected():
            return g
    return random_gnp(n, p, seed=int(rng.integers(0, 2**31 - 1)),
                      ensure_connected=True)


def connect_components(g: MultiGraph, seed: SeedLike = None) -> MultiGraph:
    """Mutate ``g`` in place, bridging components with random edges until
    connected; returns ``g`` for chaining.

    The generic repair for families without a connectivity guarantee
    (rewired small worlds, configuration models): one uniformly chosen
    node of each later component is linked to a uniformly chosen node of
    the running giant component.
    """
    if g.n <= 1:
        return g
    _, integers = scalar_draws(as_generator(seed))
    comps = g.components()
    giant = list(comps[0])
    for comp in comps[1:]:
        u = giant[integers(len(giant))]
        v = comp[integers(len(comp))]
        g.add_edge(u, v)
        giant.extend(comp)
    return g


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise GraphError(msg)
