"""Unit tests for the integer scaling layer (repro.numeric.exact)."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FlowError
from repro.numeric import (
    INT_SCALE_LIMIT,
    common_denominator,
    fastpath_steps_total,
    fraction_fallbacks_total,
    note_fastpath_steps,
    note_fraction_fallback,
    reset_counters,
    scale_int,
    try_scale,
    unscale,
)


class TestCommonDenominator:
    def test_integers_give_one(self):
        assert common_denominator([1, 2, 300]) == 1

    def test_lcm_of_denominators(self):
        assert common_denominator([Fraction(1, 4), Fraction(1, 6)]) == 12

    def test_empty_batch(self):
        assert common_denominator([]) == 1

    def test_mixed_ints_and_fractions(self):
        assert common_denominator([3, Fraction(5, 2), Fraction(7, 3)]) == 6


class TestScaleRoundTrip:
    def test_scale_int_is_exact(self):
        den = common_denominator([Fraction(3, 4), Fraction(5, 6)])
        assert scale_int(Fraction(3, 4), den) == 9
        assert scale_int(Fraction(5, 6), den) == 10

    def test_unscale_round_trips(self):
        values = [Fraction(3, 4), Fraction(5, 6), 7, Fraction(-1, 12)]
        scaled = try_scale(values)
        assert scaled is not None
        for v, s in zip(values, scaled.ints):
            assert unscale(s, scaled.denominator) == v

    def test_order_and_sign_preserved(self):
        values = sorted([Fraction(-1, 3), Fraction(0), Fraction(2, 7), 5])
        scaled = try_scale(values)
        assert scaled is not None
        assert list(scaled.ints) == sorted(scaled.ints)
        assert [s > 0 for s in scaled.ints] == [v > 0 for v in values]


class TestGuards:
    def test_huge_denominator_declines(self):
        assert try_scale([Fraction(1, (1 << 70) + 1)]) is None

    def test_huge_magnitude_declines(self):
        assert try_scale([(1 << 70), Fraction(1, 2)]) is None

    def test_limit_is_inclusive_boundary(self):
        assert try_scale([INT_SCALE_LIMIT + 1]) is None
        assert try_scale([INT_SCALE_LIMIT]) is not None

    def test_scale_int_rejects_non_multiple(self):
        with pytest.raises(FlowError):
            scale_int(Fraction(1, 3), 4)


class TestCounters:
    def test_module_counters_always_update(self):
        reset_counters()
        note_fastpath_steps(10)
        note_fastpath_steps(5)
        note_fraction_fallback()
        assert fastpath_steps_total() == 15
        assert fraction_fallbacks_total() == 1
        reset_counters()
        assert fastpath_steps_total() == 0
        assert fraction_fallbacks_total() == 0


def _fraction_route_denominator(values):
    """The all-``Fraction`` reference: every value through ``Fraction``."""
    return lcm(*[Fraction(v).denominator for v in values])


def _fraction_route_scale(values, limit=INT_SCALE_LIMIT):
    fracs = [Fraction(v) for v in values]
    den = _fraction_route_denominator(fracs)
    if den > limit:
        return None
    ints = [f.numerator * (den // f.denominator) for f in fracs]
    if any(abs(x) > limit for x in ints):
        return None
    return ints, den


_AT_GUARD = st.sampled_from([INT_SCALE_LIMIT, INT_SCALE_LIMIT + 1, -INT_SCALE_LIMIT,
                             -INT_SCALE_LIMIT - 1, INT_SCALE_LIMIT // 2,
                             INT_SCALE_LIMIT // 3 + 1])
_MIXED = st.one_of(
    st.integers(-1000, 1000),
    st.booleans(),
    _AT_GUARD,
    st.fractions(max_denominator=64),
    st.builds(Fraction, _AT_GUARD, st.integers(1, 12)),
    st.builds(Fraction, st.integers(-5, 5), st.sampled_from([(1 << 62) + 1, 3 << 60])),
)


class TestIntegerAwareRoute:
    """``common_denominator`` and ``try_scale`` skip the ``Fraction`` round
    trip for plain ints; every result and every decline must stay what the
    all-``Fraction`` route gives, including values at the guard."""

    @given(values=st.lists(_MIXED, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_fraction_route(self, values):
        assert common_denominator(values) == _fraction_route_denominator(values)
        scaled = try_scale(values)
        expected = _fraction_route_scale(values)
        if expected is None:
            assert scaled is None
        else:
            assert scaled is not None
            assert (scaled.ints, scaled.denominator) == expected
            assert all(type(x) is int for x in scaled.ints)

    @given(values=st.lists(_MIXED, max_size=12), limit=st.integers(1, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_matches_under_a_lowered_limit(self, values, limit):
        scaled = try_scale(values, limit=limit)
        expected = _fraction_route_scale(values, limit)
        assert (None if scaled is None else (scaled.ints, scaled.denominator)) == expected
