"""Verifiable rewards and the group-relative clipped policy objective.

Rewards are binary and checkable from the raw output text alone: the
modality-preference & structure reward fires iff the trace parses and names
the right evidence modality, and the accuracy reward fires iff the answer
segment matches the ground truth after normalization. Stage 1 trains on
the structure reward alone; stage 2 on the weighted sum (accuracy weight
1.0, structure weight 0.2). Advantages are normalized within a rollout
group using the population variance, and the objective is the clipped
surrogate minus a KL penalty against the reference policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .jsonl import is_number_list, read_objects, str_fields
from .normalize import answers_match
from .tag_grammar import ParseDiagnostic, PemLabel, parse_trace


@dataclass(frozen=True)
class RewardConfig:
    """Stage-2 reward weights."""

    lambda_acc: float = 1.0
    lambda_mps: float = 0.2

    def __post_init__(self) -> None:
        if not (self.lambda_acc >= 0.0 and self.lambda_mps >= 0.0):  # NaN fails too
            raise ValueError("reward weights must be nonnegative")


@dataclass(frozen=True)
class GrpoConfig:
    clip_alpha: float = 0.2
    kl_beta: float = 0.01
    eps_stab: float = 1e-8

    def __post_init__(self) -> None:
        if not 0.0 < self.clip_alpha < 1.0:
            raise ValueError("clip_alpha must lie in (0, 1)")
        if not self.kl_beta >= 0.0:  # NaN fails too
            raise ValueError("kl_beta must be nonnegative")
        if not self.eps_stab > 0.0:  # NaN fails too
            raise ValueError("eps_stab must be positive")


@dataclass(frozen=True)
class RolloutGroup:
    """G sampled responses for one question, with sequence-level log-probs."""

    rewards: tuple[float, ...]
    logp_new: tuple[float, ...]
    logp_old: tuple[float, ...]
    logp_ref: tuple[float, ...]

    def __post_init__(self) -> None:
        for name in ("rewards", "logp_new", "logp_old", "logp_ref"):
            values = tuple(float(x) for x in getattr(self, name))
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{name} must hold finite numbers")
            object.__setattr__(self, name, values)
        g = len(self.rewards)
        if g < 2:
            raise ValueError("a rollout group needs G >= 2 responses")
        for name in ("logp_new", "logp_old", "logp_ref"):
            if len(getattr(self, name)) != g:
                raise ValueError(f"{name} length differs from rewards length")

    @property
    def size(self) -> int:
        return len(self.rewards)


@dataclass(frozen=True)
class TraceScore:
    """Both rewards and the stage-2 sum of one trace, from a single parse;
    ``diagnostics`` is empty iff the trace is structurally valid."""

    r_mps: int
    r_acc: int
    r_stage2: float
    diagnostics: tuple[ParseDiagnostic, ...]


def score_trace(output_text: str, gold_pem: PemLabel, ground_truth: str,
                cfg: RewardConfig = RewardConfig()) -> TraceScore:
    """Parse once and score. The modality-preference & structure reward is 1
    iff the trace is structurally valid and its PEM matches gold; the
    accuracy reward is 1 iff the answer segment equals the ground truth
    after normalization. Stage 2 is ``lambda_acc * acc + lambda_mps * mps``."""
    trace, diags = parse_trace(output_text)
    r_mps = int(trace is not None and trace.pem == gold_pem)
    r_acc = int(trace is not None and answers_match(trace.answer_text, ground_truth))
    return TraceScore(r_mps, r_acc, cfg.lambda_acc * r_acc + cfg.lambda_mps * r_mps, tuple(diags))


# One field of ``score_trace`` each; the placeholder gold answer or label does
# not affect the field read. They stay only because the benchmark's per-layer
# metrics name them (rl_core.reward_mps.self_s, rl_core.reward_acc.self_s).
def reward_mps(output_text: str, gold_pem: PemLabel) -> int:
    return score_trace(output_text, gold_pem, "").r_mps


def reward_acc(output_text: str, ground_truth: str) -> int:
    return score_trace(output_text, PemLabel.AUDIO, ground_truth).r_acc


def reward_stage2(
    output_text: str,
    gold_pem: PemLabel,
    ground_truth: str,
    cfg: RewardConfig = RewardConfig(),
) -> float:
    return score_trace(output_text, gold_pem, ground_truth, cfg).r_stage2


def group_advantages(rewards: Sequence[float], eps_stab: float) -> list[float]:
    """Center rewards and scale by sqrt(population variance + eps_stab).

    ``eps_stab`` may be zero (useful for exact-algebra checks); a group with
    zero variance then yields all-zero advantages rather than 0/0.
    """
    if len(rewards) < 2:
        raise ValueError("need at least 2 rewards")
    if not eps_stab >= 0.0:  # NaN fails too
        raise ValueError("eps_stab must be nonnegative")
    r = np.asarray(rewards, dtype=float)
    if (r == r[0]).all():
        return [0.0] * len(rewards)  # zero numerator exactly, no rounding residue
    with np.errstate(over="ignore", invalid="ignore"):
        centered = r - r.mean()
        denom = math.sqrt(float(np.mean(centered ** 2)) + eps_stab)
    if not math.isfinite(denom):
        raise ValueError("reward variance overflows: rewards are too far apart")
    if denom == 0.0:
        # Only with eps_stab == 0: distinct rewards whose squared deviations
        # underflow. Advantages do not depend on the rewards' scale, so redo
        # the sums on the rewards times the exact power of two that brings
        # the largest |reward| into [0.5, 1).
        r = np.ldexp(r, -math.frexp(float(np.abs(r).max()))[1])
        centered = r - r.mean()
        denom = math.sqrt(float(np.mean(centered ** 2)))
    return (centered / denom).tolist()


def kl_estimate(logp_new: Sequence[float], logp_ref: Sequence[float]) -> float:
    """Nonnegative per-sample KL estimator: mean of exp(d) - d - 1 with
    d = logp_ref - logp_new. Zero iff the log-probs agree elementwise."""
    new = np.asarray(logp_new, dtype=float)
    ref = np.asarray(logp_ref, dtype=float)
    if new.shape != ref.shape:
        raise ValueError("logp_new and logp_ref must have equal lengths")
    if not (np.isfinite(new).all() and np.isfinite(ref).all()):
        raise ValueError("log-probabilities must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        delta = ref - new
        kl = float(np.mean(np.exp(delta) - delta - 1.0))
    if not math.isfinite(kl):
        raise ValueError("KL estimate overflows: logp_ref - logp_new is too large")
    return kl


@dataclass(frozen=True)
class GrpoResult:
    objective: float
    advantages: tuple[float, ...]
    ratios: tuple[float, ...]
    surrogate_terms: tuple[float, ...]
    kl: float


def _clipped_ratios(group: RolloutGroup, cfg: GrpoConfig) -> tuple[np.ndarray, ...]:
    """Advantages, importance ratios rho_i = exp(logp_new_i - logp_old_i) and
    the ratios clipped to [1 - alpha, 1 + alpha]; a ratio that overflows
    raises."""
    advantages = np.asarray(group_advantages(group.rewards, cfg.eps_stab))
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = np.exp(np.asarray(group.logp_new) - np.asarray(group.logp_old))
    if not np.isfinite(ratios).all():
        raise ValueError("non-finite importance ratios")
    return advantages, ratios, np.clip(ratios, 1.0 - cfg.clip_alpha, 1.0 + cfg.clip_alpha)


def grpo_objective(group: RolloutGroup, cfg: GrpoConfig) -> GrpoResult:
    """Clipped group-relative surrogate minus the KL penalty.

    objective = mean_i min(rho_i A_i, clip(rho_i, 1-alpha, 1+alpha) A_i)
                - kl_beta * KL(new || ref)
    with rho_i = exp(logp_new_i - logp_old_i).
    """
    advantages, ratios, clipped = _clipped_ratios(group, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.minimum(ratios * advantages, clipped * advantages)
        surrogate = terms.mean()
    kl = kl_estimate(group.logp_new, group.logp_ref)
    objective = float(surrogate - cfg.kl_beta * kl)
    if not math.isfinite(objective):
        raise ValueError("objective overflows: importance ratios are too large")
    return GrpoResult(
        objective=objective,
        advantages=tuple(advantages.tolist()),
        ratios=tuple(ratios.tolist()),
        surrogate_terms=tuple(terms.tolist()),
        kl=kl,
    )


def grpo_gradient_logp_new(group: RolloutGroup, cfg: GrpoConfig) -> np.ndarray:
    """Analytic gradient of the objective w.r.t. each logp_new entry.

    Advantages depend only on rewards, so the surrogate contributes
    A_i * rho_i / G on the unclipped branch and 0 where the clip binds; the
    KL estimator contributes -beta * (1 - exp(logp_ref - logp_new)) / G.
    Raises where ``grpo_objective`` would: on a ratio or a KL term that
    overflows.
    """
    advantages, ratios, clipped = _clipped_ratios(group, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        surrogate_grad = np.where(
            ratios * advantages <= clipped * advantages, advantages * ratios, 0.0)
        kl_grad = 1.0 - np.exp(np.asarray(group.logp_ref) - np.asarray(group.logp_new))
        grad = (surrogate_grad - cfg.kl_beta * kl_grad) / group.size
    if not np.isfinite(grad).all():
        raise ValueError("gradient overflows: log-probabilities are too far apart")
    return grad


def read_rollout_groups(path: str | Path) -> list[tuple[str, RolloutGroup]]:
    """JSONL rollout records: {group_id, rewards[], logp_new[], logp_old[], logp_ref[]};
    each list must hold JSON numbers only."""
    groups, names = [], [f.name for f in fields(RolloutGroup)]
    for lineno, obj in read_objects(path):
        place = f"{path}:{lineno}"
        for name in names:
            values = obj.get(name)
            if name not in obj:
                raise ValueError(f"{place}: missing field '{name}'")
            if not is_number_list(values):
                raise ValueError(f"{place}: field '{name}' must be a list of numbers")
        try:
            group = RolloutGroup(**{name: obj[name] for name in names})
        except ValueError as exc:
            raise ValueError(f"{place}: {exc}") from None
        groups.append((str_fields(place, obj, "group_id", default=str(lineno))[0], group))
    return groups
