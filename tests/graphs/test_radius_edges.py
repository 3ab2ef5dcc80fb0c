"""The geometric link rule: the blocked pass against the per-row oracle.

:func:`repro.graphs.generators.radius_edges` and the closest-pair bridge
search of ``random_geometric(ensure_connected=True)`` run one blocked
vectorised pass over all pairs; ``tests/graphs/radius_reference.py``
holds the per-row loops they replaced.  Outputs must be equal — same
pairs, same order, same bridges, same edge ids.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs import generators as gen
from repro.graphs.generators import PAIR_BLOCK, radius_edges, radius_keys

from tests.graphs.radius_reference import (
    radius_edges_reference,
    random_geometric_reference,
)

coords = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
radii = st.floats(min_value=1e-6, max_value=2.0, allow_nan=False)


def _points(draw, n, elements):
    return np.array([[draw(elements), draw(elements)] for _ in range(n)],
                    dtype=np.float64).reshape(n, 2)


@st.composite
def random_sets(draw):
    return _points(draw, draw(st.integers(0, 40)), coords), draw(radii)


@st.composite
def lattice_sets(draw):
    # points on the k/8 lattice with radii 1/8 .. 5/8: coordinates,
    # squared distances and r² are exact dyadics, so many pairs sit at
    # exactly the threshold (5/8 also along the 3-4-5 diagonal)
    n = draw(st.integers(0, 30))
    pts = _points(draw, n, st.integers(0, 8)) / 8
    return pts, draw(st.sampled_from([1 / 8, 2 / 8, 3 / 8, 4 / 8, 5 / 8]))


@st.composite
def coincident_sets(draw):
    # few distinct locations, each repeated: zero distances everywhere
    base = _points(draw, draw(st.integers(1, 4)), coords)
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=0, max_size=20))
    return base[picks].reshape(len(picks), 2), draw(radii)


class TestMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(random_sets())
    def test_random_points(self, case):
        pts, r = case
        assert radius_edges(pts, r) == radius_edges_reference(pts, r)

    @settings(max_examples=150, deadline=None)
    @given(lattice_sets())
    def test_lattice_points_threshold_inclusive(self, case):
        pts, r = case
        edges = radius_edges(pts, r)
        assert edges == radius_edges_reference(pts, r)
        on_threshold = {(i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))
                        if ((pts[j] - pts[i]) ** 2).sum() == r * r}
        assert on_threshold <= set(edges)

    def test_exact_threshold_example(self):
        pts = np.array([[0.0, 0.0], [0.375, 0.0], [0.0, 0.5], [1.0, 1.0]])
        assert radius_edges(pts, 0.375) == [(0, 1)]
        assert radius_edges(pts, 0.625) == [(0, 1), (0, 2), (1, 2)]

    @settings(max_examples=60, deadline=None)
    @given(coincident_sets())
    def test_coincident_points(self, case):
        pts, r = case
        assert radius_edges(pts, r) == radius_edges_reference(pts, r)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2), st.data())
    def test_tiny_point_sets(self, n, data):
        pts = _points(data.draw, n, coords)
        r = data.draw(radii)
        assert radius_edges(pts, r) == radius_edges_reference(pts, r)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 25), st.floats(min_value=math.sqrt(2), max_value=10),
           st.integers(0, 2**32 - 1))
    def test_radius_past_the_diagonal_links_everything(self, n, r, seed):
        pts = np.random.default_rng(seed).random((n, 2))
        edges = radius_edges(pts, r)
        assert edges == radius_edges_reference(pts, r)
        assert len(edges) == n * (n - 1) // 2

    def test_more_than_one_block(self):
        # 600 points are ~180k pairs: several blocks of the pair budget
        pts = np.random.default_rng(11).random((600, 2))
        assert 600 * 599 // 2 > 2 * PAIR_BLOCK
        for r in (0.02, 0.1):
            assert radius_edges(pts, r) == radius_edges_reference(pts, r)

    def test_stack_is_one_list_per_point_set(self):
        stack = np.random.default_rng(3).random((2, 5, 40, 2))
        got = radius_edges(stack, 0.3)
        assert got == [[radius_edges_reference(p, 0.3) for p in row] for row in stack]

    def test_stack_spanning_blocks_keeps_each_set_sorted(self):
        # 40 sets of 120 points: each block holds only a few rows
        stack = np.random.default_rng(4).random((40, 120, 2))
        assert 40 * 119 * 119 > PAIR_BLOCK
        keys, offsets = radius_keys(stack, 0.2)
        for s, pts in enumerate(stack):
            want = radius_edges_reference(pts, 0.2)
            got = keys[offsets[s]:offsets[s + 1]]
            assert [divmod(int(k), 120) for k in got] == want

    def test_validation(self):
        with pytest.raises(GraphError):
            radius_edges(np.zeros((3, 3)), 0.5)
        with pytest.raises(GraphError):
            radius_edges(np.zeros(4), 0.5)
        with pytest.raises(GraphError):
            radius_edges(np.zeros((3, 2)), 0.0)


class TestBridges:
    def test_ensure_connected_matches_reference_loop(self):
        # the geometric family of the region-map workload; bridging fires
        # on 47 of these 240 seeds (51 bridges)
        bridges = 0
        for seed in range(240):
            got = gen.random_geometric(80, 0.2, seed=seed, ensure_connected=True)
            want = random_geometric_reference(80, 0.2, seed, ensure_connected=True)
            assert list(got.edges()) == list(want.edges()), seed
            pts = np.random.default_rng(seed).random((80, 2))
            bridges += got.m - len(radius_edges_reference(pts, 0.2))
        assert bridges == 51

    def test_bridges_across_blocks(self):
        # 400 sparse points: the pair search spans more than one block,
        # and 23 bridges are needed
        got = gen.random_geometric(400, 0.06, seed=5, ensure_connected=True)
        want = random_geometric_reference(400, 0.06, 5, ensure_connected=True)
        assert got.is_connected()
        assert list(got.edges()) == list(want.edges())


class TestBoundedMemory:
    # an unblocked all-pairs pass over 3000 points allocates ~250 MB of
    # temporaries; the blocked pass stays two orders of magnitude below
    BOUND = 16 * 2**20

    def test_radius_edges_peak(self):
        pts = np.random.default_rng(0).random((3000, 2))
        tracemalloc.start()
        try:
            radius_edges(pts, 0.02)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < self.BOUND, peak
