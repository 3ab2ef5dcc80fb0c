"""MobilityTrace and MobilitySchedule tests: digests, link rule, replay."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SpecError
from repro.graphs.generators import PAIR_BLOCK, radius_edges, radius_keys
from repro.graphs.multigraph import MultiGraph
from repro.graphs.validate import audit_graph
from repro.mobility import (
    CircularOrbit,
    MobilitySchedule,
    MobilityTrace,
    RandomWaypoint,
    feasibility_timeline,
    feasibility_timeline_cold,
)

from tests.graphs.radius_reference import radius_edges_reference


def _trace(**kw):
    args = dict(model=RandomWaypoint(speed=0.12), n=9, radius=0.4,
                steps=24, seed=5)
    args.update(kw)
    model = args.pop("model")
    n = args.pop("n")
    return MobilityTrace.generate(model, n, **args)


class TestGenerate:
    def test_snapshot_count_and_times(self):
        tr = _trace(steps=10, snapshot_every=3)
        assert [s.t for s in tr] == [0, 3, 6, 9]

    def test_links_follow_radius_rule(self):
        tr = _trace()
        for snap in tr:
            assert snap.links == tuple(radius_edges(snap.positions, tr.radius))

    def test_positions_frozen(self):
        tr = _trace()
        with pytest.raises(ValueError):
            tr[0].positions[0, 0] = 0.5
        for arr in (tr.universe_keys, tr.rows, tr[0].keys):
            assert len(arr)
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_flat_storage(self):
        tr = _trace(steps=10, snapshot_every=3)
        universe = len(tr.universe_keys)
        assert tr.positions.shape == (4, tr.n, 2)
        assert tr.rows.shape == (4, -(-universe // 8)) and tr.rows.dtype == np.uint8
        assert (np.diff(tr.universe_keys) > 0).all()
        seen = np.zeros(universe, dtype=bool)
        for s, snap in enumerate(tr):
            assert np.shares_memory(snap.positions, tr.positions)
            assert (snap.positions == tr.positions[s]).all()
            want = radius_edges_reference(snap.positions, tr.radius)
            assert [divmod(int(k), tr.n) for k in snap.keys] == want
            assert snap.links == tuple(want)
            bits = np.unpackbits(tr.rows[s], count=universe).view(bool)
            assert (tr.universe_keys[bits] == snap.keys).all()
            seen |= bits
        # the universe holds exactly the pairs that link somewhere
        assert seen.all()
        assert tr[-1].t == tr[3].t == 9

    def test_storage_bounded_by_link_count(self):
        # an unblocked all-pairs pass over this (21, 1000, 2) stack would
        # allocate over 0.5 GB of temporaries; the blocked pass peaks under
        # 4 MB.  The links cost 8 bytes per universe pair plus a bit per
        # pair per snapshot, under the 8 bytes per link of one key each
        tracemalloc.start()
        try:
            tr = MobilityTrace.generate(RandomWaypoint(speed=0.02), 1000,
                                        radius=0.03, steps=20, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak
        universe = len(tr.universe_keys)
        links = sum(len(snap.keys) for snap in tr)
        assert links > 20_000
        stored = tr.universe_keys.nbytes + tr.rows.nbytes
        assert stored <= 8 * universe + len(tr) * -(-universe // 8) + 256
        assert stored <= 8 * links

    def test_validation(self):
        with pytest.raises(SpecError):
            _trace(n=1)
        with pytest.raises(SpecError):
            _trace(steps=-1)
        with pytest.raises(SpecError):
            _trace(snapshot_every=0)
        with pytest.raises(SpecError):
            _trace(radius=0)


class TestRowsDifferential:
    """Rows over the link universe against the sorted keys of the link rule."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 14), radius=st.floats(0.05, 1.5),
           speed=st.floats(0.01, 0.3), pause=st.integers(0, 3),
           steps=st.integers(0, 24), every=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_rows_match_radius_keys(self, n, radius, speed, pause, steps,
                                    every, seed):
        tr = MobilityTrace.generate(RandomWaypoint(speed=speed, pause=pause), n,
                                    radius=radius, steps=steps, seed=seed,
                                    snapshot_every=every)
        keys, offsets = radius_keys(tr.positions, radius)
        assert np.array_equal(tr.universe_keys, np.unique(keys))
        for s, snap in enumerate(tr):
            assert snap.keys.tolist() == keys[offsets[s]:offsets[s + 1]].tolist()
        rates = ({0: 1}, {n - 1: 2})
        warm, cold = feasibility_timeline(tr, *rates), feasibility_timeline_cold(tr, *rates)
        assert [(e.t, e.links, e.feasible, e.max_flow_value) for e in warm.entries] == \
               [(e.t, e.links, e.feasible, e.max_flow_value) for e in cold.entries]
        g, sched = tr.as_schedule()
        for snap in tr:
            sched.apply(g, snap.t)
            assert {(min(u, v), max(u, v)) for _, u, v in g.edges()} == set(snap.links)

    def test_rows_span_blocks(self):
        # 40 snapshots of 120 points take six blocks of the pair budget,
        # and four of them add a number of pairs that is no whole byte
        stack = np.random.default_rng(4).random((40, 120, 2))
        assert 40 * 119 * 119 > 4 * PAIR_BLOCK
        tr = MobilityTrace(0.2, range(40), stack)
        keys, offsets = radius_keys(stack, 0.2)
        assert np.array_equal(tr.universe_keys, np.unique(keys))
        for s, snap in enumerate(tr):
            assert np.array_equal(snap.keys, keys[offsets[s]:offsets[s + 1]])


class TestDigest:
    def test_bit_identical_across_runs(self):
        assert _trace().digest() == _trace().digest()

    # Digests printed by the tuple-per-link implementation the flat
    # storage replaced: positions, link order and the digest format are
    # pinned across storage changes.  RandomWaypoint only — its arithmetic
    # is IEEE-exact, while the orbit's cos/sin may differ in the last ulp
    # across CPUs.
    @pytest.mark.parametrize("kw, digest", [
        (dict(model=RandomWaypoint(speed=0.08), n=12, radius=0.4, steps=60,
              seed=2010),  # the CI mobility smoke's trace
         "40fbac5618d8a66e16700373c868fe71a7d5422b77f32ba78d91a4090ef8a842"),
        (dict(model=RandomWaypoint(speed=0.1, pause=3), n=10, radius=0.35,
              steps=40, seed=77),
         "3716ecd1f554cd1576c86aa923c6bddca30362621ae388eac89ccacddecee208"),
        (dict(model=RandomWaypoint(speed=0.06), n=14, radius=0.3, steps=50,
              seed=31, snapshot_every=5),
         "642051bb30baa8d4c0c4bfb3df75736df0598ecd38c6b0a232afd8b7159561cf"),
    ], ids=["ci_smoke", "pause", "snapshot_every"])
    def test_golden(self, kw, digest):
        assert _trace(**kw).digest() == digest

    def test_seed_sensitivity(self):
        assert _trace(seed=5).digest() != _trace(seed=6).digest()

    def test_radius_sensitivity(self):
        assert _trace(radius=0.4).digest() != _trace(radius=0.45).digest()

    def test_orbit_digest_seed_independent(self):
        a = _trace(model=CircularOrbit(omega=0.2), seed=1)
        b = _trace(model=CircularOrbit(omega=0.2), seed=2)
        assert a.digest() == b.digest()


class TestDerivedViews:
    def test_link_universe_covers_every_snapshot(self):
        tr = _trace()
        uni = set(tr.link_universe())
        for snap in tr:
            assert set(snap.links) <= uni

    def test_build_graph_matches_first_snapshot(self):
        tr = _trace()
        g = tr.build_graph()
        assert g.n == tr.n
        got = {tuple(sorted((u, v))) for _, u, v in g.edges()}
        assert got == set(tr[0].links)


class TestSchedule:
    def _live_pairs(self, g):
        return {tuple(sorted((u, v))) for _, u, v in g.edges()}

    def test_replays_every_snapshot_exactly(self):
        tr = _trace(steps=30)
        g, sched = tr.as_schedule()
        for snap in tr:
            sched.apply(g, snap.t)
            assert self._live_pairs(g) == set(snap.links)
            audit_graph(g)

    def test_stable_edge_ids_across_outages(self):
        # a pair that disappears and comes back must reuse its original id
        tr = _trace(steps=40)
        g, sched = tr.as_schedule()
        first_ids = {}
        for eid, u, v in g.edges():
            first_ids[tuple(sorted((u, v)))] = eid
        for snap in tr:
            sched.apply(g, snap.t)
            for eid, u, v in g.edges():
                pair = tuple(sorted((u, v)))
                if pair in first_ids:
                    assert eid == first_ids[pair]

    def test_non_snapshot_steps_report_no_change(self):
        tr = _trace(steps=12, snapshot_every=4)
        g, sched = tr.as_schedule()
        assert sched.apply(g, 0) is False  # t=0 already materialised
        assert sched.apply(g, 1) is False
        assert sched.apply(g, 3) is False

    def test_backbone_edges_untouched(self):
        # static edges outside the trace's radio pairs survive every apply
        tr = _trace(n=6, steps=20)
        g = MultiGraph(8)  # two extra infrastructure nodes
        backbone = [g.add_edge(6, 7), g.add_edge(0, 6)]
        for u, v in tr[0].links:
            g.add_edge(u, v)
        sched = MobilitySchedule(tr)
        for snap in tr:
            sched.apply(g, snap.t)
            for eid in backbone:
                assert g.has_edge_id(eid)

    def test_backbone_edges_past_the_trace_nodes_never_adopted(self):
        # (0, n + 2) has the pair key of (1, 2); only pairs of trace nodes
        # may be adopted as radio edges
        tr = _trace(n=6, radius=0.9, steps=6)
        assert (1, 2) in tr.link_universe()
        g = MultiGraph(10)
        backbone = g.add_edge(0, 8)
        sched = MobilitySchedule(tr)
        for snap in tr:
            sched.apply(g, snap.t)
            assert g.has_edge_id(backbone)
            assert self._live_pairs(g) - {(0, 8)} == set(snap.links)

    def test_graph_too_small_rejected(self):
        tr = _trace(n=9)
        with pytest.raises(SpecError):
            MobilitySchedule(tr).apply(MultiGraph(4), 0)

    def test_simulator_consumes_mobility_like_churn(self):
        # end-to-end: the engine runs a mobility schedule as its topology
        from repro.core import SimulationConfig, Simulator
        from repro.network import NetworkSpec

        tr = _trace(n=6, radius=0.8, steps=120, seed=3)
        g, sched = tr.as_schedule()
        spec = NetworkSpec.classical(g, {0: 1}, {5: 2})
        res = Simulator(
            spec, config=SimulationConfig(horizon=120, seed=0, topology=sched)
        ).run()
        assert res.delivered > 0
