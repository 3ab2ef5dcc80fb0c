"""Pinned-parameter semantics of the stock sweep point functions.

Regression coverage for the ``_param`` falsy-value bug: ``if not raw``
treated every falsy pin — ``p=0``, ``in_rate=0``, ``n=0`` — as *unpinned*
and silently replaced it with a random draw, so a grid axis over
``p=[0.0, 0.3, 0.6]`` produced a corrupted first column.  Unpinned now
means exactly "absent, ``None``, or empty string" (ragged zipped axes pad
with ``""``).
"""

import pytest

from repro.errors import SweepError
from repro.sweep.points import _param, classify_point, random_instance_spec


class TestParamPinning:
    def test_absent_uses_default(self):
        assert _param({}, "n", int, lambda: 7) == 7

    def test_none_uses_default(self):
        assert _param({"n": None}, "n", int, lambda: 7) == 7

    def test_empty_string_uses_default(self):
        # a zipped axis shorter than its siblings pads with "" — that is
        # "unpinned", not "pinned to something uncastable"
        assert _param({"p": ""}, "p", float, lambda: 0.5) == 0.5

    def test_zero_int_is_pinned(self):
        assert _param({"in_rate": 0}, "in_rate", int, lambda: 99) == 0

    def test_zero_float_is_pinned(self):
        assert _param({"p": 0.0}, "p", float, lambda: 0.5) == 0.0

    def test_zero_string_is_pinned(self):
        # CLI axes arrive as strings: --axis p=0.0
        assert _param({"p": "0.0"}, "p", float, lambda: 0.5) == 0.0

    def test_false_is_pinned(self):
        assert _param({"flag": False}, "flag", int, lambda: 1) == 0

    def test_uncastable_raises_sweep_error(self):
        with pytest.raises(SweepError, match="not a valid int"):
            _param({"n": "abc"}, "n", int, lambda: 7)


class TestRandomInstanceSpecPins:
    def test_p_zero_pins_density(self):
        # p=0 + ensure_connected yields exactly a spanning tree; before the
        # fix the pin was dropped and p was drawn from [0.25, 0.6).
        spec = random_instance_spec({"p": 0.0, "n": 10}, seed=123)
        assert spec.n == 10
        assert spec.graph.m == spec.n - 1

    def test_p_zero_deterministic_across_param_spelling(self):
        # "0.0" (CLI string) and 0.0 (literal) pin identically
        a = random_instance_spec({"p": "0.0", "n": 10}, seed=5)
        b = random_instance_spec({"p": 0.0, "n": 10}, seed=5)
        assert a.graph.m == b.graph.m == 9

    def test_in_rate_zero_rejected_not_crashed(self):
        # rng.integers(1, 0 + 1) would raise a raw numpy ValueError;
        # pinning a zero ceiling must be a one-line SweepError instead
        with pytest.raises(SweepError, match="rate ceilings"):
            random_instance_spec({"in_rate": 0}, seed=1)

    def test_sources_zero_rejected_not_crashed(self):
        # with no sources the envelope has no injection ray to walk; the
        # pin must fail as a one-line SweepError, not deep in the flow stack
        with pytest.raises(SweepError, match="sources >= 1"):
            random_instance_spec({"sources": 0}, seed=1)
        with pytest.raises(SweepError, match="sources >= 1"):
            classify_point({"sources": 0, "n": 8}, 1)

    def test_out_rate_zero_rejected(self):
        with pytest.raises(SweepError, match="rate ceilings"):
            random_instance_spec({"out_rate": 0}, seed=1)

    def test_negative_sinks_rejected(self):
        # sources=3, sinks=-1 passes the placement check on 2 nodes; the
        # broadcast rate draw then handed the 2 nodes 3 rates and kept 2
        with pytest.raises(SweepError, match="sinks >= 0"):
            random_instance_spec({"family": "gnp", "n": 2, "sources": 3,
                                  "sinks": -1}, seed=0)
        with pytest.raises(SweepError, match="sinks >= 0"):
            random_instance_spec({"sinks": -1}, seed=1)

    def test_n_zero_hits_n_guard(self):
        with pytest.raises(SweepError, match="n >= 2"):
            random_instance_spec({"n": 0}, seed=1)

    def test_classify_point_respects_p_zero(self):
        rec = classify_point({"p": 0.0, "n": 8}, seed=77)
        assert rec["m"] == rec["n"] - 1
