"""Packet arrival (injection) processes.

The classical model injects exactly ``in(s)`` per source per step; the
generalized model (Definition 5) allows anything in ``[0, in(s)]``.  The
conjectures need richer processes: pointwise-dominated traces
(Conjecture 1), adversarial bursts with compensating quiet intervals
(Conjecture 2), and uniform random arrivals (Conjecture 3).
"""

from repro._exports import lazy_exports

_EXPORTS = {
    ".base": ("ArrivalProcess",),
    ".deterministic": ("DeterministicArrivals", "ScaledArrivals"),
    ".stochastic": ("BernoulliArrivals", "UniformArrivals", "PoissonClippedArrivals"),
    ".adversarial": ("BurstArrivals", "OnOffArrivals"),
    ".token_bucket": ("TokenBucketArrivals",),
    ".trace": ("TraceArrivals", "RecordingArrivals", "dominates"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
