"""Separate-then-fuse audio-visual reasoning toolkit.

Trace grammar and rewards, modality-asymmetric attention masks, reference
masked attention with analysis probes, group-relative policy optimization,
and the preferred-evidence-modality annotation pipeline.
"""

from .attention_core import (
    AllocationReport,
    AttentionInputs,
    AttentionWeights,
    attention_allocation,
    gradient_check,
    leakage_probe,
    masked_attention,
)
from .mask_engine import (
    LayoutError,
    MaskMatrix,
    TokenLayout,
    build_causal,
    build_composite,
    incremental_row,
    locate_layout,
)
from .pem_pipeline import (
    Discard,
    DiscardReason,
    Instance,
    PemRecord,
    PipelineConfig,
    ProbeSetting,
    SampleSet,
    SolvabilityRecord,
    accuracy_rate,
    annotate,
    consistency,
    decide_pem,
    solvable,
)
from .rl_core import (
    GrpoConfig,
    GrpoResult,
    RewardConfig,
    RolloutGroup,
    group_advantages,
    grpo_objective,
    kl_estimate,
    reward_stage2,
    score_trace,
)
from .tag_grammar import (
    DiagnosticKind,
    ParseDiagnostic,
    PemLabel,
    SfrTrace,
    parse_trace,
    render_trace,
    validate_structure,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationReport",
    "AttentionInputs",
    "AttentionWeights",
    "Discard",
    "DiagnosticKind",
    "DiscardReason",
    "GrpoConfig",
    "GrpoResult",
    "Instance",
    "LayoutError",
    "MaskMatrix",
    "ParseDiagnostic",
    "PemLabel",
    "PemRecord",
    "PipelineConfig",
    "ProbeSetting",
    "RewardConfig",
    "RolloutGroup",
    "SampleSet",
    "SfrTrace",
    "SolvabilityRecord",
    "TokenLayout",
    "accuracy_rate",
    "annotate",
    "attention_allocation",
    "build_causal",
    "build_composite",
    "consistency",
    "decide_pem",
    "gradient_check",
    "group_advantages",
    "grpo_objective",
    "incremental_row",
    "kl_estimate",
    "leakage_probe",
    "locate_layout",
    "masked_attention",
    "parse_trace",
    "render_trace",
    "reward_stage2",
    "score_trace",
    "solvable",
    "validate_structure",
]
