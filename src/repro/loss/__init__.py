"""Packet-loss models.

Section II: "each link can transmit at most 1 packet, and this packet can
be lost without any notification".  The sender's queue is debited either
way; only surviving packets reach the receiver.  The paper remarks that
losses *only improve* stability (the E14 ablation tests this), and its
Conjecture 1 machinery needs adversarial losses.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    ".models": ("LossModel", "NoLoss", "BernoulliLoss", "GilbertElliottLoss",
                "AdversarialEdgeLoss", "TargetedNodeLoss"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
