"""Verifiable rewards and the group-relative clipped policy objective.

Rewards are binary and checkable from the raw output text alone: the
modality-preference & structure reward fires iff the trace parses and names
the right evidence modality, and the accuracy reward fires iff the answer
segment matches the ground truth after normalization. Stage 1 trains on
the structure reward alone; stage 2 on their sum weighted by
``RewardConfig``. Advantages are normalized within a rollout group using
the population variance, and the objective is the clipped surrogate minus
a KL penalty against the reference policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import GrpoConfig, RewardConfig
from .jsonl import finite_floats, read_records, str_fields
from .normalize import answers_match
from .tag_grammar import ParseDiagnostic, PemLabel, parse_trace


@dataclass(frozen=True)
class RolloutGroup:
    """G sampled responses for one question, with sequence-level log-probs."""

    rewards: tuple[float, ...]
    logp_new: tuple[float, ...]
    logp_old: tuple[float, ...]
    logp_ref: tuple[float, ...]

    def __post_init__(self) -> None:
        for name in _GROUP_FIELDS:
            object.__setattr__(self, name, _finite_floats(getattr(self, name), name))
        g = len(self.rewards)
        if g < 2:
            raise ValueError("a rollout group needs G >= 2 responses")
        for name in _GROUP_FIELDS[1:]:
            if len(getattr(self, name)) != g:
                raise ValueError(f"{name} length differs from rewards length")

    @property
    def size(self) -> int:
        return len(self.rewards)


_GROUP_FIELDS = tuple(f.name for f in fields(RolloutGroup))


def _finite_floats(values: Sequence[float], name: str) -> tuple[float, ...]:
    """``values`` as floats; ValueError naming ``name`` unless they are a
    sequence of finite numbers by ``jsonl.finite_floats``."""
    floats = finite_floats(values)
    if floats is None:
        raise ValueError(f"{name} must hold finite numbers")
    return tuple(floats.tolist())


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


# A group's checks, in the order they are made; the gradient makes its own
# last check in place of the KL and objective ones.
_VARIANCE_OVERFLOW = "reward variance overflows: rewards are too far apart"
_RATIO_OVERFLOW = "non-finite importance ratios"
_KL_OVERFLOW = "KL estimate overflows: logp_ref - logp_new is too large"
_OBJECTIVE_OVERFLOW = "objective overflows: importance ratios are too large"
_GRADIENT_OVERFLOW = "gradient overflows: log-probabilities are too far apart"


class GroupError(ValueError):
    """A group whose objective cannot be computed; ``index`` is its place in
    the sequence given to ``grpo_objectives``."""

    def __init__(self, index: int, message: str) -> None:
        super().__init__(message)
        self.index = index


# The row-wise core. Each function takes (k, G) arrays, one group per row;
# numpy reduces the last axis of a C-contiguous array row by row with the
# same summation order as a 1-D call, so a row's result has the same bits as
# the group computed alone.

def _advantage_rows(rewards: np.ndarray, eps_stab: float) -> tuple[np.ndarray, np.ndarray]:
    """Advantages of each row, and which rows' variance overflows.

    A row of equal rewards gets exact zeros (no rounding residue). With
    ``eps_stab == 0``, a row of distinct rewards whose squared deviations
    underflow is redone on the rewards times the exact power of two that
    brings its largest |reward| into [0.5, 1): advantages do not depend on
    the rewards' scale.
    """
    size = rewards.shape[1]
    equal = (rewards == rewards[:, :1]).all(axis=1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        centered = rewards - rewards.sum(axis=1, keepdims=True) / size
        denom = np.sqrt((centered ** 2).sum(axis=1) / size + eps_stab)
        underflow = ~equal & (denom == 0.0)
        if underflow.any():
            tiny = rewards[underflow]
            tiny = np.ldexp(tiny, -np.frexp(np.abs(tiny).max(axis=1))[1][:, None])
            centered[underflow] = tiny = tiny - tiny.sum(axis=1, keepdims=True) / size
            denom[underflow] = np.sqrt((tiny ** 2).sum(axis=1) / size)
        advantages = centered / denom[:, None]
    advantages[equal] = 0.0
    return advantages, ~equal & ~np.isfinite(denom)


def _kl_rows(logp_new: np.ndarray, logp_ref: np.ndarray) -> np.ndarray:
    """Each row's KL estimate: the mean of exp(d) - d - 1 with
    d = logp_ref - logp_new, nonnegative and zero iff the log-probs agree."""
    with np.errstate(over="ignore", invalid="ignore"):
        delta = logp_ref - logp_new
        return (np.exp(delta) - delta - 1.0).sum(axis=1) / delta.shape[1]


def _policy_rows(rewards: np.ndarray, logp_new: np.ndarray, logp_old: np.ndarray,
                 cfg: GrpoConfig):
    """Advantages, importance ratios rho = exp(logp_new - logp_old), the
    ratios clipped to [1 - alpha, 1 + alpha], and the checks so far: the
    rows whose variance overflows and those with a non-finite ratio."""
    advantages, variance_overflow = _advantage_rows(rewards, cfg.eps_stab)
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = np.exp(logp_new - logp_old)
        clipped = np.clip(ratios, 1.0 - cfg.clip_alpha, 1.0 + cfg.clip_alpha)
    checks = [(variance_overflow, _VARIANCE_OVERFLOW),
              (~np.isfinite(ratios).all(axis=1), _RATIO_OVERFLOW)]
    return advantages, ratios, clipped, checks


def _first_fault(checks: Sequence[tuple[np.ndarray, str]]) -> tuple[int, str] | None:
    """The first row that fails a check, with the first check it fails."""
    failing = np.array([rows for rows, _ in checks])
    bad = np.flatnonzero(failing.any(axis=0))
    if not bad.size:
        return None
    row = int(bad[0])
    return row, checks[int(failing[:, row].argmax())][1]


def _stack(groups: Sequence[RolloutGroup]) -> list[np.ndarray]:
    return [np.array([getattr(group, name) for group in groups]) for name in _GROUP_FIELDS]


def group_advantages(rewards: Sequence[float], eps_stab: float) -> list[float]:
    """Center rewards and scale by sqrt(population variance + eps_stab).

    ``eps_stab`` may be zero (useful for exact-algebra checks); a group with
    zero variance then yields all-zero advantages rather than 0/0.
    """
    rows = np.array([_finite_floats(rewards, "rewards")])
    if rows.shape[1] < 2:
        raise ValueError("need at least 2 rewards")
    if not 0.0 <= eps_stab < math.inf:  # NaN fails too
        raise ValueError("eps_stab must be nonnegative and finite")
    advantages, overflow = _advantage_rows(rows, eps_stab)
    if overflow[0]:
        raise ValueError(_VARIANCE_OVERFLOW)
    return advantages[0].tolist()


@dataclass(frozen=True)
class GrpoResult:
    objective: float
    advantages: tuple[float, ...]
    ratios: tuple[float, ...]
    surrogate_terms: tuple[float, ...]
    kl: float


def grpo_objectives(groups: Sequence[RolloutGroup], cfg: GrpoConfig) -> list[GrpoResult]:
    """``grpo_objective`` of each group, in order, in one array pass per
    group size: the groups of each size G are stacked into (k, G) arrays.

    Raises ``GroupError`` for the first failing group in input order, with
    the first check it fails: variance, ratios, KL, then objective overflow.
    """
    by_size: dict[int, list[int]] = {}
    for index, group in enumerate(groups):
        by_size.setdefault(group.size, []).append(index)
    results: list[GrpoResult | None] = [None] * len(groups)
    faults = []
    for size, indices in by_size.items():
        rewards, logp_new, logp_old, logp_ref = _stack([groups[i] for i in indices])
        advantages, ratios, clipped, checks = _policy_rows(rewards, logp_new, logp_old, cfg)
        kl = _kl_rows(logp_new, logp_ref)
        with np.errstate(over="ignore", invalid="ignore"):
            terms = np.minimum(ratios * advantages, clipped * advantages)
            objective = terms.sum(axis=1) / size - cfg.kl_beta * kl
        fault = _first_fault(checks + [(~np.isfinite(kl), _KL_OVERFLOW),
                                       (~np.isfinite(objective), _OBJECTIVE_OVERFLOW)])
        if fault is not None:
            faults.append((indices[fault[0]], fault[1]))
            continue
        for index, obj, adv, rho, term, div in zip(indices, objective.tolist(),
                                                   advantages.tolist(), ratios.tolist(),
                                                   terms.tolist(), kl.tolist()):
            results[index] = GrpoResult(obj, tuple(adv), tuple(rho), tuple(term), div)
    if faults:
        raise GroupError(*min(faults))
    return results


def grpo_objective(group: RolloutGroup, cfg: GrpoConfig) -> GrpoResult:
    """Clipped group-relative surrogate minus the KL penalty.

    objective = mean_i min(rho_i A_i, clip(rho_i, 1-alpha, 1+alpha) A_i)
                - kl_beta * KL(new || ref)
    with rho_i = exp(logp_new_i - logp_old_i).
    """
    return grpo_objectives([group], cfg)[0]


def grpo_gradient_logp_new(group: RolloutGroup, cfg: GrpoConfig) -> np.ndarray:
    """Analytic gradient of the objective w.r.t. each logp_new entry.

    Advantages depend only on rewards, so the surrogate contributes
    A_i * rho_i / G on the unclipped branch and 0 where the clip binds; the
    KL estimator contributes -beta * (1 - exp(logp_ref - logp_new)) / G.
    Raises where ``grpo_objective`` would: on a ratio or a KL term that
    overflows.
    """
    rewards, logp_new, logp_old, logp_ref = _stack([group])
    advantages, ratios, clipped, checks = _policy_rows(rewards, logp_new, logp_old, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        surrogate_grad = np.where(
            ratios * advantages <= clipped * advantages, advantages * ratios, 0.0)
        kl_grad = 1.0 - np.exp(logp_ref - logp_new)
        grad = (surrogate_grad - cfg.kl_beta * kl_grad) / group.size
    fault = _first_fault(checks + [(~np.isfinite(grad).all(axis=1), _GRADIENT_OVERFLOW)])
    if fault is not None:
        raise ValueError(fault[1])
    return grad[0]


def read_rollout_groups(path: str | Path) -> list[tuple[str, RolloutGroup]]:
    """JSONL rollout records: {group_id, rewards[], logp_new[], logp_old[], logp_ref[]};
    ``RolloutGroup`` checks the lists, so each must hold finite numbers."""
    def build(obj: dict, lineno: int) -> tuple[str, RolloutGroup]:
        for name in _GROUP_FIELDS:
            if name not in obj:
                raise ValueError(f"missing field '{name}'")
        # The group is checked before its id, so a record with both faults
        # names the group's.
        group = RolloutGroup(**{name: obj[name] for name in _GROUP_FIELDS})
        return str_fields(obj, "group_id", default=str(lineno))[0], group

    return read_records(path, build)
