"""The paper's contribution: the Local Greedy Gradient protocol (LGG,
Algorithm 1), the synchronous simulation engine, baseline policies, and the
stability / Lyapunov analysis toolkit.
"""

from repro.core.tiebreak import TieBreak
from repro.core.lgg import lgg_select_reference
from repro.core.lgg_fast import HalfEdges
from repro.core.policies import (
    BackpressurePolicy,
    FlowRoutingPolicy,
    LGGPolicy,
    RandomForwardingPolicy,
    ShortestPathPolicy,
    TransmissionPolicy,
)
from repro.core.pipeline import (
    DEFAULT_PIPELINE,
    STAGE_NAMES,
    Stage,
    StagePipeline,
    StageTiming,
    StepState,
)
from repro.core.engine import (
    ExtractionMode,
    LinkCapacityMode,
    SimulationConfig,
    SimulationResult,
    Simulator,
    simulate_lgg,
)
from repro.core.packet_engine import PacketSimulator, PacketStats
from repro.core.ensemble import EnsembleResult, EnsembleSimulator
from repro.core.stability import StabilityVerdict, assess_stability
from repro.core import bounds, lyapunov

__all__ = [
    "TieBreak",
    "lgg_select_reference",
    "HalfEdges",
    "TransmissionPolicy",
    "LGGPolicy",
    "FlowRoutingPolicy",
    "BackpressurePolicy",
    "RandomForwardingPolicy",
    "ShortestPathPolicy",
    "DEFAULT_PIPELINE",
    "STAGE_NAMES",
    "Stage",
    "StagePipeline",
    "StageTiming",
    "StepState",
    "ExtractionMode",
    "LinkCapacityMode",
    "SimulationConfig",
    "SimulationResult",
    "Simulator",
    "simulate_lgg",
    "PacketSimulator",
    "PacketStats",
    "EnsembleSimulator",
    "EnsembleResult",
    "StabilityVerdict",
    "assess_stability",
    "bounds",
    "lyapunov",
]
