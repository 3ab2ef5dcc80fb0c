"""Network model: S-D-networks (Section II) and R-generalized
S-D-networks (Section IV, Definitions 5–8).

A :class:`~repro.network.spec.NetworkSpec` is the immutable *description*
of a network — multigraph + per-node injection/extraction rates + the
generalized-model parameters (retention constant ``R`` and queue-length
revelation policy).  The mutable runtime state (queues, time) lives in the
simulation engine (:mod:`repro.core.engine`); trajectory recording lives in
:mod:`repro.network.state`.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    ".spec": ("NetworkSpec", "NodeRole", "RevelationPolicy"),
    ".state": ("Trajectory", "network_state"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
