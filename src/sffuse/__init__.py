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
from .config import GrpoConfig, PipelineConfig, RewardConfig
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
    DiscardReason,
    Instance,
    PemRecord,
    ProbeSetting,
    SolvabilityRecord,
    accuracy_rate,
    annotate,
    consistency,
    decide_pem,
    solvable,
)
from .rl_core import (
    GroupError,
    GrpoResult,
    RolloutGroup,
    group_advantages,
    grpo_objective,
    grpo_objectives,
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
    "DiagnosticKind",
    "DiscardReason",
    "GroupError",
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
    "grpo_objectives",
    "incremental_row",
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
