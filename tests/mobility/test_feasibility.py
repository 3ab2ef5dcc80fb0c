"""Feasibility-timeline tests: the warm/cold differential and metrics."""

from fractions import Fraction

import pytest

from repro.errors import SpecError
from repro.mobility import (
    CircularOrbit,
    MobilityTrace,
    RandomWaypoint,
    VirtualForce,
    feasibility_timeline,
    feasibility_timeline_cold,
)
from repro.numeric import INT_SCALE_LIMIT, fraction_fallbacks_total, reset_counters


def _trace(model=None, n=8, radius=0.4, steps=20, seed=7, **kw):
    return MobilityTrace.generate(model or RandomWaypoint(speed=0.12), n,
                                  radius=radius, steps=steps, seed=seed, **kw)


def _churn_trace(**kw):
    # fast and sparse: dozens of links leave between consecutive snapshots
    return _trace(n=48, radius=0.30, steps=48, seed=3,
                  model=RandomWaypoint(speed=0.08), **kw)


def _blocks(tr, size):
    """``tr`` cut into runs of ``size`` consecutive snapshots, each a trace."""
    return [MobilityTrace(tr.radius, tr.times[i:i + size],
                          tr.positions[i:i + size])
            for i in range(0, len(tr), size)]


def _assert_identical(warm, cold):
    assert len(warm) == len(cold)
    assert warm.arrival == cold.arrival
    for a, b in zip(warm.entries, cold.entries):
        assert a.t == b.t
        assert a.feasible == b.feasible
        assert a.max_flow_value == b.max_flow_value
        assert type(a.max_flow_value) is Fraction


class TestDifferential:
    """The acceptance criterion: incremental == cold oracle, exactly."""

    # a chain may start cold at any snapshot: one chain per run of `block`
    # consecutive snapshots (64 covers the whole trace)
    @pytest.mark.parametrize("block", [1, 3, 8, 64])
    def test_matches_cold_oracle_any_block(self, block):
        for part in _blocks(_trace(), block):
            warm = feasibility_timeline(part, {0: 1}, {7: 2})
            assert (warm.cold_solves, warm.warm_solves) == (1, len(part) - 1)
            _assert_identical(
                warm, feasibility_timeline_cold(part, {0: 1}, {7: 2})
            )

    # the deleted cold fallback re-solved a snapshot from scratch once more
    # than `cutoff` pairs changed (None: never); now every such step is a
    # warm repair, on a trace whose steps change 200 to 300 pairs
    @pytest.mark.parametrize("cutoff", [0, 2, 256, None])
    def test_matches_cold_oracle_any_fallback(self, cutoff):
        tr = _churn_trace(snapshot_every=2)
        rates = ({0: 6, 1: 6}, {47: 12})
        warm = feasibility_timeline(tr, *rates)
        past = [e for e in warm.entries[1:]
                if cutoff is None or e.delta > cutoff]
        assert past and all(e.mode == "warm" for e in past)
        assert not all(e.feasible for e in warm.entries)
        _assert_identical(warm, feasibility_timeline_cold(tr, *rates))

    def test_matches_cold_oracle_on_link_churn(self):
        tr = _churn_trace()
        rates = ({0: 1, 1: 1}, {46: 2, 47: 1})
        warm = feasibility_timeline(tr, *rates)
        assert max(e.delta for e in warm.entries[1:]) > 50
        _assert_identical(warm, feasibility_timeline_cold(tr, *rates))

    @pytest.mark.parametrize("model", [
        RandomWaypoint(speed=0.05, pause=2),
        VirtualForce(),
        CircularOrbit(omega=0.3),
    ])
    def test_matches_cold_oracle_every_model(self, model):
        tr = _trace(model=model, seed=2)
        warm = feasibility_timeline(tr, {0: 1, 1: 1}, {6: 2, 7: 1})
        _assert_identical(
            warm, feasibility_timeline_cold(tr, {0: 1, 1: 1}, {6: 2, 7: 1})
        )

    def test_fractional_rates(self):
        # rates 1/3 and 1/2 scale by D = 6: still on integers, no fallback
        tr = _trace(steps=10)
        rates = ({0: Fraction(1, 3)}, {7: Fraction(1, 2)})
        reset_counters()
        warm = feasibility_timeline(tr, *rates)
        assert fraction_fallbacks_total() == 0
        assert Fraction(1, 3) in {e.max_flow_value for e in warm.entries}
        _assert_identical(warm, feasibility_timeline_cold(tr, *rates))

    def test_magnitude_guard_falls_back_exactly(self):
        # a denominator past INT_SCALE_LIMIT defeats common-denominator
        # scaling; the timeline must decline, count it, and stay exact
        big = INT_SCALE_LIMIT * 4 + 1
        tr = _trace(seed=9)
        rates = ({0: Fraction(1, big), 1: 2}, {7: 3})
        reset_counters()
        warm = feasibility_timeline(tr, *rates)
        assert fraction_fallbacks_total() == 1
        _assert_identical(warm, feasibility_timeline_cold(tr, *rates))


class TestSolveAccounting:
    def test_warm_solves_dominate_by_default(self):
        tr = _trace(steps=30)
        tl = feasibility_timeline(tr, {0: 1}, {7: 2})
        # one cold solve per trace; every later snapshot is a warm step
        assert tl.cold_solves == 1
        assert tl.warm_solves == len(tl) - 1

    def test_entries_carry_modes_and_deltas(self):
        tr = _churn_trace()
        tl = feasibility_timeline(tr, {0: 1}, {47: 2})
        assert (tl.cold_solves, tl.warm_solves) == (1, len(tl) - 1)
        assert [e.mode for e in tl.entries] == ["cold"] + ["warm"] * (len(tl) - 1)
        links = [set(snap.links) for snap in tr]
        assert tl.entries[0].delta == len(links[0])
        for e, before, after in zip(tl.entries[1:], links, links[1:]):
            assert e.links == len(after)
            assert e.delta == len(before ^ after)


class TestSemantics:
    def test_disconnected_snapshot_is_infeasible(self):
        # tiny radius: nodes are isolated, no flow can route
        tr = _trace(radius=0.01, steps=3)
        tl = feasibility_timeline(tr, {0: 1}, {7: 2})
        assert not tl.always_feasible
        assert tl.first_infeasible() == 0

    def test_complete_connectivity_is_feasible(self):
        # radius sqrt(2) covers the whole unit square
        tr = _trace(radius=1.5, steps=5)
        tl = feasibility_timeline(tr, {0: 1}, {7: 2})
        assert tl.always_feasible
        assert tl.first_infeasible() is None
        assert tl.feasible_fraction == 1.0

    def test_value_never_exceeds_arrival(self):
        tr = _trace(steps=15)
        tl = feasibility_timeline(tr, {0: 2, 1: 1}, {7: 4})
        for e in tl.entries:
            assert 0 <= e.max_flow_value <= tl.arrival

    def test_zero_arrival_trivially_feasible(self):
        tr = _trace(steps=4)
        tl = feasibility_timeline(tr, {}, {7: 2})
        assert tl.always_feasible and tl.arrival == 0

    def test_validation(self):
        tr = _trace(steps=4)
        with pytest.raises(SpecError):
            feasibility_timeline(tr, {99: 1}, {7: 2})
        with pytest.raises(SpecError):
            feasibility_timeline(tr, {0: -1}, {7: 2})


class TestMetrics:
    def test_warm_cold_split_exported(self):
        import repro.obs as obs
        from repro.obs.metrics import get_registry

        tr = _trace(steps=10)
        restore = obs.configure(metrics=True)
        try:
            get_registry().reset()
            tl = feasibility_timeline(tr, {0: 1}, {7: 2})
            snap = get_registry().snapshot()
        finally:
            obs.configure(**restore)

        steps = snap["repro_mobility_steps_total"]["series"][0]["value"]
        assert steps == len(tl)
        by_mode = {
            s["labels"]["mode"]: s["value"]
            for s in snap["repro_mobility_solves_total"]["series"]
        }
        assert by_mode.get("warm", 0) == tl.warm_solves
        assert by_mode.get("cold", 0) == tl.cold_solves
        assert by_mode.get("warm", 0) > 0 and by_mode.get("cold", 0) > 0

    def test_disabled_registry_records_nothing(self):
        from repro.obs.metrics import get_registry

        reg = get_registry()
        assert not reg.enabled  # tests run with metrics off by default

        def steps_count():
            fam = reg.snapshot().get("repro_mobility_steps_total")
            return fam["series"][0]["value"] if fam and fam["series"] else 0

        before = steps_count()
        tr = _trace(steps=4)
        feasibility_timeline(tr, {0: 1}, {7: 2})
        assert steps_count() == before
