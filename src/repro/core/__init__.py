"""The paper's contribution: the Local Greedy Gradient protocol (LGG,
Algorithm 1), the synchronous simulation engine, baseline policies, and the
stability / Lyapunov analysis toolkit.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    ".tiebreak": ("TieBreak",),
    ".policies": ("TransmissionPolicy", "LGGPolicy", "FlowRoutingPolicy",
                  "BackpressurePolicy", "RandomForwardingPolicy", "ShortestPathPolicy"),
    ".pipeline": ("DEFAULT_PIPELINE", "STAGE_NAMES", "Stage", "StagePipeline",
                  "StepState"),
    ".engine": ("ExtractionMode", "LinkCapacityMode", "SimulationConfig",
                "SimulationResult", "Simulator", "simulate_lgg"),
    ".packet_engine": ("PacketSimulator", "PacketStats"),
    ".ensemble": ("EnsembleSimulator", "EnsembleResult"),
    ".stability": ("StabilityVerdict", "assess_stability"),
    ".bounds": None,
    ".lyapunov": None,
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
