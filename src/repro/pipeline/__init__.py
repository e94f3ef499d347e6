"""The stage-graph scoring runtime.

Decomposes the paper's staged framework (CNN forward → saliency mask →
autoencoder reconstruction → similarity → verdict) into explicit
:class:`Stage` objects sequenced by a compiled :class:`ScoringPlan` —
single shared CNN forward for steering *and* novelty, and per-stage
telemetry spans and fault guards.  See ``docs/architecture.md`` ("Stage
runtime") for the execution semantics.
"""

from repro.pipeline.runtime import (
    FUSED_STAGES,
    PREPROCESS_STAGES,
    SCORE_STAGES,
    ScoringPlan,
    compute_saliency,
)
from repro.pipeline.stages import (
    AggregateStage,
    CnnForwardStage,
    MemberScoresStage,
    ReconstructStage,
    SaliencyCascadeStage,
    SimilarityStage,
    Stage,
    StageContext,
    StandardizeStage,
    SteeringHeadStage,
    VerdictStage,
)

__all__ = [
    "FUSED_STAGES",
    "PREPROCESS_STAGES",
    "SCORE_STAGES",
    "ScoringPlan",
    "compute_saliency",
    "Stage",
    "StageContext",
    "CnnForwardStage",
    "SteeringHeadStage",
    "SaliencyCascadeStage",
    "ReconstructStage",
    "SimilarityStage",
    "VerdictStage",
    "MemberScoresStage",
    "AggregateStage",
    "StandardizeStage",
]
