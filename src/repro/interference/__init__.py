"""Wireless-interference models — Conjecture 5's setting."""

from repro._exports import lazy_exports

_EXPORTS = {
    ".matching": ("InterferenceModel", "GreedyMatchingInterference",
                  "OracleMatchingInterference"),
    ".distance2": ("DistanceTwoInterference",),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
